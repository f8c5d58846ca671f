package homeo_test

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/homeo"
	"repro/internal/fabric/codec"
	"repro/internal/lang"
	"repro/internal/treaty"
	"repro/internal/wal"
)

// unitLocals snapshots every unit's installed per-site local treaties.
func unitLocals(c *homeo.Cluster) [][]treaty.Local {
	out := make([][]treaty.Local, len(c.System().Units))
	for u := range out {
		out[u] = append([]treaty.Local(nil), c.System().UnitLocals(u)...)
	}
	return out
}

// sameLocals compares two treaty snapshots term by term: per unit and
// site, the same constraints in the same order, each with the same op,
// constant and terms.
func sameLocals(t *testing.T, got, want [][]treaty.Local) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d units, want %d", len(got), len(want))
	}
	for u := range want {
		if len(got[u]) != len(want[u]) {
			t.Fatalf("unit %d: %d local treaties, want %d", u, len(got[u]), len(want[u]))
		}
		for site, w := range want[u] {
			g := got[u][site]
			if g.Site != w.Site || len(g.Constraints) != len(w.Constraints) {
				t.Fatalf("unit %d site %d: treaty\n got %s\nwant %s", u, site, g, w)
			}
			for i := range w.Constraints {
				gc, wc := &g.Constraints[i], &w.Constraints[i]
				if !reflect.DeepEqual(gc, wc) {
					t.Errorf("unit %d site %d constraint %d:\n got %s\nwant %s", u, site, i, gc.AppendTo(nil), wc.AppendTo(nil))
				}
			}
		}
	}
}

// TestWALRecoverRoundTrip: run a simulated cluster with a write-ahead
// log, tear it down, and boot an identically configured cluster over the
// same log directory. Recovery — deterministic reboot plus WAL replay —
// must reproduce the commit log and every site's store partition exactly,
// including state installed by synchronization rounds and the treaty
// generations they distributed.
func TestWALRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*homeo.Cluster, *homeo.TxnClass) {
		t.Helper()
		c, err := homeo.New(homeo.Options{
			Runtime:   homeo.RuntimeSim,
			Sites:     2,
			Seed:      7,
			EnableLog: true,
			WAL:       homeo.WALOptions{Dir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		cls, err := c.Register(homeo.ClassSpec{
			L:       withdrawSrc,
			Bounds:  map[string][2]int64{"n": {1, 3}},
			Initial: map[string]int64{"bal": 60},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, cls
	}

	c1, cls := mk()
	if n, err := c1.Recover(); err != nil || n != 0 {
		t.Fatalf("fresh recover = (%d, %v), want (0, nil)", n, err)
	}
	ctx := context.Background()
	sess := c1.Session()
	for i := 0; i < 80; i++ {
		if _, err := sess.Submit(ctx, cls, int64(1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c1.Stats(); st.Synced == 0 {
		t.Fatal("no submission ever synced; the test must cover install and treaty records")
	}
	wantLog := c1.WireLog()
	wantDB := make([]lang.Database, c1.Sites())
	for k := range wantDB {
		wantDB[k] = c1.System().PartitionDB(k)
	}
	wantLocals := unitLocals(c1)
	c1.Close() // flushes and closes the WAL

	c2, _ := mk()
	n, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recovery replayed nothing")
	}
	defer c2.Close()
	if got := c2.Stats().RecoveredWALRecords; got != int64(n) {
		t.Fatalf("stats report %d recovered records, Recover returned %d", got, n)
	}
	gotLog := c2.WireLog()
	if len(gotLog) != len(wantLog) {
		t.Fatalf("recovered commit log has %d entries, want %d", len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if !reflect.DeepEqual(gotLog[i], wantLog[i]) {
			t.Fatalf("recovered log entry %d = %+v, want %+v", i, gotLog[i], wantLog[i])
		}
	}
	for k := range wantDB {
		if got := c2.System().PartitionDB(k); !reflect.DeepEqual(got, wantDB[k]) {
			t.Fatalf("site %d partition diverged after recovery:\n got %v\nwant %v", k, got, wantDB[k])
		}
	}
	// Treaty records carry the constraints in codec form; what comes back
	// must be what the rounds installed.
	sameLocals(t, unitLocals(c2), wantLocals)
	// A recovered entry replays as a live one does, from its class name
	// and arguments.
	if err := c2.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence after recovery: %v", err)
	}

	// The recovered incarnation keeps serving: fresh submissions commit
	// and extend the recovered log.
	if res, err := c2.Session().Submit(ctx, c2.Class("Withdraw"), 1); err != nil || !res.Committed {
		t.Fatalf("post-recovery submission = (%+v, %v)", res, err)
	}
	if got := c2.Committed(); got != len(wantLog)+1 {
		t.Fatalf("post-recovery commit log has %d entries, want %d", got, len(wantLog)+1)
	}
	if err := c2.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence over recovered and fresh entries: %v", err)
	}
}

// TestWALRecoverRefusesOtherEncodings: a log is read only in the format
// version that wrote it. A record from before the codec (a JSON payload)
// or from format version 1 (a treaty record holding a JSON constraint
// blob) fails recovery with an error naming the site, the record, what
// was found and what this build reads — and installs nothing.
func TestWALRecoverRefusesOtherEncodings(t *testing.T) {
	v1Treaty := []byte{codec.Magic, 1, byte(wal.KindTreaty)}
	v1Treaty = codec.AppendInt(v1Treaty, 0)    // unit
	v1Treaty = codec.AppendInt(v1Treaty, 0)    // site
	v1Treaty = codec.AppendVarint(v1Treaty, 9) // version
	v1Treaty = codec.AppendVarint(v1Treaty, 5) // clock
	v1Treaty = codec.AppendBool(v1Treaty, false)
	v1Treaty = codec.AppendString(v1Treaty, `[{"coeffs":{"bal":-1},"const":1,"op":"<="}]`)
	for _, tc := range []struct {
		name     string
		kind     wal.Kind
		payload  []byte
		mentions []string
	}{
		{"legacy JSON commit", wal.KindCommit, []byte(`{"class":"Withdraw","args":[1],"site":0,"clock":3,"writes":{"bal@d0":-1}}`),
			[]string{"site 0", "record 0", "0x7b", "format version 2"}},
		{"version-1 treaty", wal.KindTreaty, v1Treaty,
			[]string{"site 0", "record 0", "format version 1", "only version 2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := wal.Open(filepath.Join(dir, "site-0.wal"), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(tc.kind, tc.payload); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			mk := func(walDir string) *homeo.Cluster {
				c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Sites: 2, Seed: 7,
					EnableLog: true, WAL: homeo.WALOptions{Dir: walDir}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Register(homeo.ClassSpec{L: withdrawSrc,
					Bounds: map[string][2]int64{"n": {1, 3}}, Initial: map[string]int64{"bal": 60}}); err != nil {
					t.Fatal(err)
				}
				return c
			}
			c := mk(dir)
			defer c.Close()
			_, err = c.Recover()
			if err == nil {
				t.Fatal("recovery accepted the record")
			}
			for _, want := range tc.mentions {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			// Nothing of the refused record was installed: the cluster is
			// where a boot without a log leaves it.
			boot := mk("")
			defer boot.Close()
			if c.Committed() != 0 {
				t.Errorf("%d commits recovered from a refused log", c.Committed())
			}
			for k := 0; k < c.Sites(); k++ {
				if got, want := c.System().PartitionDB(k), boot.System().PartitionDB(k); !reflect.DeepEqual(got, want) {
					t.Errorf("site %d partition after the refusal:\n got %v\nwant %v", k, got, want)
				}
			}
			sameLocals(t, unitLocals(c), unitLocals(boot))
		})
	}
}

// TestWALRecoverMembership: a process that saw a site join and another
// drain wrote membership records to its WAL; its crashed-and-rebooted
// incarnation (booted at the original width) must recover the grown width,
// the per-slot statuses, and the membership epoch — the drained slot stays
// fenced (the drained process is gone, and rounds never reach for it), the
// joined slot keeps serving.
func TestWALRecoverMembership(t *testing.T) {
	dir := t.TempDir()
	spec := homeo.ClassSpec{L: withdrawSrc, Bounds: map[string][2]int64{"n": {1, 3}}, Initial: map[string]int64{"bal": 150}}
	f, cs, cls := simSites(t, 2, spec, homeo.Options{Seed: 3, EnableLog: true, WAL: homeo.WALOptions{Dir: dir}})
	for i := 0; i < 10; i++ {
		submit(t, cls[0], cs[0], 1, int64(1+i%3))
	}
	j, jcls := joinSim(t, f, cs[0], spec)
	submit(t, jcls, j, 10, 2)
	if err := cs[1].Drain(1); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	f.Kill(cs[1])
	wantEpoch := cs[0].TopologyEpoch()
	wantStatus := cs[0].SiteStatuses()
	wantLog := cs[0].WireLog()
	f.Kill(cs[0])

	c0, cls0 := bootSim(t, f, 0, 2, spec) // boots at the original width 2
	f.Attach(c0)
	if got := c0.Stats().RecoveredWALRecords; got == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if got := c0.Sites(); got != 3 {
		t.Fatalf("recovered width = %d, want 3 (the joined slot)", got)
	}
	if got := c0.TopologyEpoch(); got != wantEpoch {
		t.Fatalf("recovered epoch = %d, want %d", got, wantEpoch)
	}
	if got := c0.SiteStatuses(); !reflect.DeepEqual(got, wantStatus) || got[1] != "gone" {
		t.Fatalf("recovered statuses = %v, want %v", got, wantStatus)
	}
	if got := c0.WireLog(); len(got) != len(wantLog) {
		t.Fatalf("recovered commit log has %d entries, want %d", len(got), len(wantLog))
	}
	// Both sides keep serving, through rounds that would fail on a message
	// to the drained site.
	if synced := submit(t, jcls, j, 40, 3) + submit(t, cls0, c0, 40, 3); synced == 0 {
		t.Fatal("no submission paid a round after the recovery")
	}
	// The merged log against the folded partitions.
	if err := mergedReplay(c0, c0, cs[1], j); err != nil {
		t.Fatalf("replay equivalence after membership recovery: %v", err)
	}
}
