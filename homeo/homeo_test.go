package homeo_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/homeo"
	"repro/internal/micro"
)

const depositSrc = `
transaction Deposit(n) {
	v := read(acct);
	write(acct = v + n)
}`

const withdrawSrc = `
transaction Withdraw(n) {
	v := read(bal);
	if (v - n > 0) then
		write(bal = v - n)
	else
		skip
}`

const restockSQL = `
CREATE TABLE inv (item, qty) SIZE 4
UPDATE inv SET qty = qty + @d WHERE item = @k
SELECT SUM(qty) FROM inv WHERE item = @k
`

func simCluster(t *testing.T, opts homeo.Options) *homeo.Cluster {
	t.Helper()
	opts.Runtime = homeo.RuntimeSim
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	c, err := homeo.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestRegisterAndSubmitSim: an L class never seen at compile time runs on
// the simulator with treaties generated online.
func TestRegisterAndSubmitSim(t *testing.T) {
	c := simCluster(t, homeo.Options{EnableLog: true})
	cls, err := c.Register(homeo.ClassSpec{
		L:       depositSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"acct": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cls.Name() != "Deposit" {
		t.Fatalf("name = %q", cls.Name())
	}
	sess := c.Session()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		res, err := sess.Submit(ctx, cls, int64(1+i%5))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("submission %d not committed", i)
		}
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Committed != 20 {
		t.Fatalf("stats.Committed = %d", st.Committed)
	}
	if len(st.Classes) != 1 || st.Classes[0] != "Deposit" {
		t.Fatalf("stats.Classes = %v", st.Classes)
	}
	if got := c.Class("Deposit"); got != cls {
		t.Fatal("Class lookup failed")
	}
}

// TestSubmitDeterministicOnSim: identical clusters produce identical
// submission outcomes (virtual-time latencies included).
func TestSubmitDeterministicOnSim(t *testing.T) {
	run := func() []homeo.Result {
		c := simCluster(t, homeo.Options{Seed: 11})
		cls, err := c.Register(homeo.ClassSpec{
			L:      withdrawSrc,
			Bounds: map[string][2]int64{"n": {1, 5}},
			Initial: map[string]int64{
				"bal": 40,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []homeo.Result
		for i := 0; i < 30; i++ {
			res, err := c.Session().Submit(context.Background(), cls, int64(1+i%5))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Site != b[i].Site || a[i].Synced != b[i].Synced || a[i].Latency != b[i].Latency {
			t.Fatalf("run diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSQLClassBothRuntimes drives the full SQL path — sqlfront → lang →
// symtab → treaty generation → execution — for a client-registered class
// on both runtimes, checking SELECT logs and replay equivalence.
func TestSQLClassBothRuntimes(t *testing.T) {
	for _, kind := range []homeo.RuntimeKind{homeo.RuntimeSim, homeo.RuntimeLive} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := homeo.Options{
				Runtime:   kind,
				Seed:      3,
				EnableLog: true,
			}
			if kind == homeo.RuntimeLive {
				opts.RTT = 5 * time.Millisecond
				opts.LocalExecTime = 100 * time.Microsecond
			}
			c, err := homeo.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cls, err := c.Register(homeo.ClassSpec{
				Name:   "Restock",
				SQL:    restockSQL,
				Bounds: map[string][2]int64{"d": {1, 3}, "k": {1, 4}},
				Rows:   map[string][][]int64{"inv": {{1, 10}, {2, 20}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]int64{1: 10, 2: 20}
			ctx := context.Background()
			for i := 0; i < 40; i++ {
				k := int64(1 + i%2)
				d := int64(1 + i%3)
				res, err := c.Session().Submit(ctx, cls, d, k)
				if err != nil {
					t.Fatal(err)
				}
				want[k] += d
				if len(res.Log) != 1 || res.Log[0] != want[k] {
					t.Fatalf("txn %d: SELECT log = %v, want [%d]", i, res.Log, want[k])
				}
			}
			if err := c.CheckReplayEquivalence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLClassOnLive: treaties generated online on the wall-clock runtime,
// driven concurrently.
func TestLClassOnLive(t *testing.T) {
	c, err := homeo.New(homeo.Options{
		Runtime:       homeo.RuntimeLive,
		RTT:           5 * time.Millisecond,
		LocalExecTime: 100 * time.Microsecond,
		EnableLog:     true,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cls, err := c.Register(homeo.ClassSpec{
		L:       withdrawSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"bal": 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			sess, err := c.SessionAt(g % 2)
			if err != nil {
				errc <- err
				return
			}
			for i := 0; i < 25; i++ {
				if _, err := sess.Submit(ctx, cls, int64(1+i%5)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
	if got := c.Committed(); got != 100 {
		t.Fatalf("committed %d of 100", got)
	}
}

// TestCloseLeaksNoGoroutine: a live cluster's processes, the runtime's
// idle workers included, are gone once Close returns.
func TestCloseLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeLive, LocalExecTime: time.Microsecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := c.Register(homeo.ClassSpec{L: depositSrc, Initial: map[string]int64{"acct": 1}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.Session().Submit(context.Background(), cls, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	// An exiting goroutine is counted until it has returned.
	left := runtime.NumGoroutine() - base
	for deadline := time.Now().Add(5 * time.Second); left > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		left = runtime.NumGoroutine() - base
	}
	if left > 0 {
		t.Errorf("%d goroutines left after Close, want 0", left)
	}
}

// TestErrorTaxonomy exercises the structured errors.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()

	t.Run("aborted on arity", func(t *testing.T) {
		c := simCluster(t, homeo.Options{})
		cls, err := c.Register(homeo.ClassSpec{L: depositSrc})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Session().Submit(ctx, cls) // missing n
		if !errors.Is(err, homeo.ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		if homeo.ErrorCode(err) != "aborted" {
			t.Fatalf("code = %q", homeo.ErrorCode(err))
		}
	})

	t.Run("aborted on a class of another cluster", func(t *testing.T) {
		c, other := simCluster(t, homeo.Options{EnableLog: true}), simCluster(t, homeo.Options{EnableLog: true})
		cls, err := other.Register(homeo.ClassSpec{L: depositSrc})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Session().Submit(ctx, cls, 1)
		if !errors.Is(err, homeo.ErrAborted) || !strings.Contains(err.Error(), "class Deposit belongs to a different cluster") {
			t.Fatalf("err = %v, want ErrAborted naming the foreign class", err)
		}
		if c.Committed() != 0 || other.Committed() != 0 {
			t.Fatal("a foreign submission committed")
		}
	})

	t.Run("dropped when draining", func(t *testing.T) {
		c := simCluster(t, homeo.Options{})
		cls, err := c.Register(homeo.ClassSpec{L: depositSrc})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if _, err := c.Session().Submit(ctx, cls, 1); !errors.Is(err, homeo.ErrDropped) {
			t.Fatalf("err = %v, want ErrDropped", err)
		}
		if _, err := c.Register(homeo.ClassSpec{L: withdrawSrc}); !errors.Is(err, homeo.ErrDropped) {
			t.Fatalf("register err = %v, want ErrDropped", err)
		}
	})

	t.Run("timeout on live", func(t *testing.T) {
		c, err := homeo.New(homeo.Options{
			Runtime: homeo.RuntimeLive,
			RTT:     50 * time.Millisecond,
			Seed:    9,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cls, err := c.Register(homeo.ClassSpec{
			L:       depositSrc,
			Initial: map[string]int64{"acct": 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		tctx, cancel := context.WithTimeout(ctx, time.Microsecond)
		defer cancel()
		_, err = c.Session().Submit(tctx, cls, 1)
		if !errors.Is(err, homeo.ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if homeo.ErrorCode(err) != "timeout" {
			t.Fatalf("code = %q", homeo.ErrorCode(err))
		}
	})

	t.Run("dropped on overflow", func(t *testing.T) {
		c, err := homeo.New(homeo.Options{
			Runtime: homeo.RuntimeLive,
			RTT:     20 * time.Millisecond,
			// One submission at a time; its slow local execution holds the
			// slot long enough for the overflow probe.
			MaxInflight:   1,
			LocalExecTime: 2 * time.Second,
			Seed:          9,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cls, err := c.Register(homeo.ClassSpec{L: depositSrc, Initial: map[string]int64{"acct": 1}})
		if err != nil {
			t.Fatal(err)
		}
		// Saturate the single slot (the 2s local execution holds it),
		// then overflow with a second submission.
		started := make(chan struct{})
		go func() {
			close(started)
			c.Session().Submit(ctx, cls, 1)
		}()
		<-started
		time.Sleep(200 * time.Millisecond)
		_, err = c.Session().Submit(ctx, cls, 1)
		if !errors.Is(err, homeo.ErrDropped) {
			t.Fatalf("err = %v, want ErrDropped", err)
		}
		if homeo.ErrorCode(err) != "dropped" {
			t.Fatalf("code = %q", homeo.ErrorCode(err))
		}
	})
}

// TestRegisterValidation covers spec errors.
func TestRegisterValidation(t *testing.T) {
	c := simCluster(t, homeo.Options{})
	cases := []struct {
		name string
		spec homeo.ClassSpec
	}{
		{"no source", homeo.ClassSpec{}},
		{"two sources", homeo.ClassSpec{L: depositSrc, SQL: restockSQL, Name: "X"}},
		{"sql without name", homeo.ClassSpec{SQL: restockSQL}},
		{"name mismatch", homeo.ClassSpec{L: depositSrc, Name: "Other"}},
		{"rows for L class", homeo.ClassSpec{L: depositSrc, Rows: map[string][][]int64{"t": {{1}}}}},
		{"unknown table rows", homeo.ClassSpec{Name: "R", SQL: restockSQL, Rows: map[string][][]int64{"zzz": {{1, 2}}}}},
		{"zero key row", homeo.ClassSpec{Name: "R", SQL: restockSQL, Rows: map[string][][]int64{"inv": {{0, 5}}}}},
		{"bound for unknown param", homeo.ClassSpec{L: depositSrc, Bounds: map[string][2]int64{"zz": {0, 1}}}},
	}
	for _, tc := range cases {
		if _, err := c.Register(tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := c.Register(homeo.ClassSpec{L: depositSrc}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(homeo.ClassSpec{L: depositSrc}); err == nil {
		t.Error("duplicate accepted")
	}
}

// TestRegisterRejectsParameterMisuse: a class that assigns to its
// parameter used to register, and then ran another program than its
// source — Submit(2) on y = 7 wrote y = 2 and printed 2 where the source
// says 8, because every later read of n was the argument while the
// assignment bound a temporary nobody read. The parser now refuses it, and
// a parameter declared twice, and nothing of the class is left behind.
func TestRegisterRejectsParameterMisuse(t *testing.T) {
	c := simCluster(t, homeo.Options{})
	for src, want := range map[string]string{
		`transaction B(n) { v := read(y); n := v + 1; write(y = n); print(n) }`: `cannot assign to parameter "n"`,
		`transaction C(n, n) { v := read(y); write(y = v + n) }`:                `duplicate parameter "n"`,
	} {
		_, err := c.Register(homeo.ClassSpec{L: src, Initial: map[string]int64{"y": 7}})
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("Register(%s): error %v, want a positioned %q", src, err, want)
		}
	}
	if names := c.Classes(); len(names) != 0 {
		t.Fatalf("refused classes left %v registered", names)
	}
	// Said with a temporary, the program registers and does what it says.
	cls, err := c.Register(homeo.ClassSpec{
		L:       `transaction B(n) { v := read(y); m := v + n - 1; write(y = m); print(m) }`,
		Initial: map[string]int64{"y": 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Session().Submit(context.Background(), cls, 2)
	if err != nil || !res.Committed || len(res.Log) != 1 || res.Log[0] != 8 {
		t.Fatalf("B(2) on y = 7: %+v, %v; want a commit printing 8", res, err)
	}
}

// TestBaseWorkloadMix: a cluster seeded with the micro benchmark serves
// mix draws and registered classes side by side.
func TestBaseWorkloadMix(t *testing.T) {
	w, err := micro.New(micro.Config{Items: 20, Refill: 100, NSites: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := simCluster(t, homeo.Options{Workload: w, EnableLog: true})
	cls, err := c.Register(homeo.ClassSpec{L: depositSrc, Initial: map[string]int64{"acct": 5}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := c.Session().SubmitMix(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Session().Submit(ctx, cls, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Committed != 20 {
		t.Fatalf("committed = %d", st.Committed)
	}
	if st.Workload != "micro" {
		t.Fatalf("workload = %q", st.Workload)
	}
}

// TestDriveSim: the closed-loop driver on the simulator matches the
// experiments' code path and stays deterministic.
func TestDriveSim(t *testing.T) {
	run := func() homeo.Stats {
		w, err := micro.New(micro.Config{Items: 50, Refill: 100, NSites: 2})
		if err != nil {
			t.Fatal(err)
		}
		c := simCluster(t, homeo.Options{
			Workload:       w,
			Seed:           2,
			ClientsPerSite: 4,
			Warmup:         500 * time.Millisecond,
			Measure:        2 * time.Second,
			EnableLog:      true,
		})
		st := c.Drive()
		if err := c.CheckReplayEquivalence(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Committed == 0 {
		t.Fatal("no commits")
	}
	if a.Committed != b.Committed || a.Synced != b.Synced || a.LatencyP90 != b.LatencyP90 {
		t.Fatalf("nondeterministic drive: %+v vs %+v", a, b)
	}
}

// TestTreatiesIntrospection: registered classes expose their analysis.
func TestTreatiesIntrospection(t *testing.T) {
	c := simCluster(t, homeo.Options{})
	cls, err := c.Register(homeo.ClassSpec{
		L:       withdrawSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"bal": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pinned, why := cls.Pinned(); pinned {
		t.Fatalf("withdraw pinned: %s", why)
	}
	if cls.SymbolicTable() == "" {
		t.Fatal("no symbolic table")
	}
	tr := cls.Treaties()
	if len(tr) != 2 || !strings.HasPrefix(tr[0], "site 0: ") || !strings.HasPrefix(tr[1], "site 1: ") ||
		!strings.HasSuffix(tr[0], " 0") || strings.Contains(tr[0], "site 1") {
		t.Fatalf("treaties = %q, want one per site", tr)
	}
	if objs := cls.Objects(); len(objs) != 1 || objs[0] != "bal" {
		t.Fatalf("objects = %v", objs)
	}
	if ps := cls.Params(); len(ps) != 1 || ps[0] != "n" {
		t.Fatalf("params = %v", ps)
	}
}

// ExampleCluster demonstrates the embeddable API end to end.
func ExampleCluster() {
	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Sites: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	cls, err := c.Register(homeo.ClassSpec{
		L: `
transaction Order(n) {
	v := read(stock);
	if (v - n > 0) then
		write(stock = v - n)
	else
		skip
}`,
		Bounds:  map[string][2]int64{"n": {1, 3}},
		Initial: map[string]int64{"stock": 90},
	})
	if err != nil {
		panic(err)
	}
	res, err := c.Session().Submit(context.Background(), cls, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("committed:", res.Committed, "synced:", res.Synced)
	// Output: committed: true synced: false
}

// TestFabricOptionsValidation pins the multi-process construction
// contract: live runtime only, peers fix the width, site in range, and
// sessions pin to the owned site.
func TestFabricOptionsValidation(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	if _, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Fabric: &homeo.FabricOptions{Site: 0, Peers: peers}}); err == nil {
		t.Fatal("sim runtime accepted a fabric config")
	}
	if _, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeLive, Fabric: &homeo.FabricOptions{Site: 3, Peers: peers}}); err == nil {
		t.Fatal("out-of-range site accepted")
	}
	if _, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeLive, Sites: 2, Fabric: &homeo.FabricOptions{Site: 0, Peers: peers}}); err == nil {
		t.Fatal("sites/peers disagreement accepted")
	}
	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeLive, Fabric: &homeo.FabricOptions{Site: 1, Peers: peers}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Sites() != 3 || c.SelfSite() != 1 {
		t.Fatalf("sites=%d self=%d", c.Sites(), c.SelfSite())
	}
	if c.PeerHandler() == nil {
		t.Fatal("multi-process cluster has no peer handler")
	}
	if _, err := c.SessionAt(0); err == nil {
		t.Fatal("SessionAt accepted a site owned by another process")
	}
	if _, err := c.SessionAt(1); err != nil {
		t.Fatalf("SessionAt(self): %v", err)
	}
}

// TestStatsIsReadOnly: Stats reads the collector in place, under the
// cluster's lock, and changes nothing — two snapshots of an idle cluster
// agree field for field (percentiles, throughput window and store counters
// included), so a stats endpoint can poll a serving cluster.
func TestStatsIsReadOnly(t *testing.T) {
	c := simCluster(t, homeo.Options{})
	cls, err := c.Register(homeo.ClassSpec{L: withdrawSrc, Bounds: map[string][2]int64{"n": {1, 3}}, Initial: map[string]int64{"bal": 16}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := c.Session().Submit(context.Background(), cls, int64(1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	first, second := c.Stats(), c.Stats()
	if first.Committed != 12 || first.Synced == 0 || first.Negotiations == 0 || first.LatencyMax == 0 || first.Store.Commits == 0 {
		t.Fatalf("stats missed the run: %+v", first)
	}
	first.Uptime, second.Uptime = 0, 0
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("reading Stats changed them:\n first %+v\nsecond %+v", first, second)
	}
}

// TestBaselinesRefuseWhatTheyCannotHonour: the 2PC and local baselines
// replicate by writing this process's stores and log nothing a replay could
// use. A write-ahead log under them lost acknowledged commits on recovery,
// a fabric never sent a peer message, and a drain "succeeded" by skipping
// every unit; all are refused now, naming the mode and the feature.
func TestBaselinesRefuseWhatTheyCannotHonour(t *testing.T) {
	refused := func(err error, mode homeo.Mode, feature string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "mode "+mode.String()) || !strings.Contains(err.Error(), feature) {
			t.Fatalf("mode %v: want a refusal naming the mode and %q, got %v", mode, feature, err)
		}
	}
	for _, mode := range []homeo.Mode{homeo.ModeTwoPC, homeo.ModeLocal} {
		_, err := homeo.New(homeo.Options{Mode: mode, WAL: homeo.WALOptions{Dir: t.TempDir()}})
		refused(err, mode, "write-ahead log")
		_, err = homeo.New(homeo.Options{Mode: mode, Runtime: homeo.RuntimeLive,
			Fabric: &homeo.FabricOptions{Site: 0, Peers: []string{"http://a:1", "http://b:2"}}})
		refused(err, mode, "fabric")

		c := simCluster(t, homeo.Options{Mode: mode})
		if _, err := c.Register(homeo.ClassSpec{L: depositSrc}); err != nil {
			t.Fatal(err)
		}
		_, err = c.Join("")
		refused(err, mode, "joining a site")
		refused(c.Drain(1), mode, "draining a site")
		if c.Sites() != 2 || c.ActiveSites() != 2 {
			t.Fatalf("mode %v: a refused operation changed the membership: %d sites, %d active", mode, c.Sites(), c.ActiveSites())
		}
	}
}
