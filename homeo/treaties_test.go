package homeo_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/homeo"
	"repro/internal/treaty"
)

// TestRenderedTreatiesOutliveRounds: a unit's treaty slots write every new
// generation over the one the generation before retired, and retired
// generations are scribbled over (fabric.ScratchHook). What TxnClass.Treaties
// rendered and what System.UnitLocals returned before a run of rounds still
// reads as it did after them — in one process holding both sites, and at
// each process of a cluster on fabric.Sim, where a site copies the
// treaties a peer sends it.
func TestRenderedTreatiesOutliveRounds(t *testing.T) {
	scribbling(t)
	spec := homeo.ClassSpec{L: withdrawSrc, Bounds: map[string][2]int64{"n": {1, 5}}, Initial: map[string]int64{"bal": 40}}
	one, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	oneCls, err := one.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, cs, cls := simSites(t, 2, spec, homeo.Options{})
	for _, tc := range []struct {
		name string
		cs   []*homeo.Cluster
		cls  []*homeo.TxnClass
	}{{"one process", []*homeo.Cluster{one}, []*homeo.TxnClass{oneCls}}, {"fabric.Sim", cs, cls}} {
		// What a process rendered and returned before the rounds, and the
		// text of both then.
		type rendering struct {
			treaties []string
			locals   []treaty.Local
			text     []string
		}
		texts := func(r rendering) []string {
			out := slices.Clone(r.treaties)
			for _, l := range r.locals {
				out = append(out, l.String())
			}
			return out
		}
		render := func(k int) rendering {
			r := rendering{
				treaties: tc.cls[k].Treaties(),
				locals:   tc.cs[k].System().UnitLocals(0), // the class is the cluster's one unit
			}
			for _, s := range texts(r) {
				r.text = append(r.text, strings.Clone(s))
			}
			return r
		}
		earlier := make([]rendering, len(tc.cs))
		for k := range tc.cs {
			earlier[k] = render(k)
		}
		ctx, synced := context.Background(), 0
		for i := 0; i < 60; i++ {
			k := i % len(tc.cs)
			res, err := tc.cs[k].Session().Submit(ctx, tc.cls[k], int64(1+i%5))
			if err != nil || !res.Committed {
				t.Fatalf("%s: submit %d: %+v, %v", tc.name, i, res, err)
			}
			if res.Synced {
				synced++
			}
		}
		if synced < 3 {
			t.Fatalf("%s: %d submissions paid a round, want at least 3 (two generations overwritten)", tc.name, synced)
		}
		for k := range tc.cs {
			was := earlier[k]
			if got := texts(was); !slices.Equal(got, was.text) {
				t.Errorf("%s, process %d: the earlier rendering reads %q after %d rounds, was %q", tc.name, k, got, synced, was.text)
			}
			now := render(k)
			if slices.Equal(now.treaties, was.treaties) {
				t.Errorf("%s, process %d: %d rounds left the treaties at %q", tc.name, k, synced, now.treaties)
			}
			// Treaties renders what UnitLocals returns, a site at a time.
			if n := len(now.treaties); !slices.Equal(now.text[:n], now.text[n:]) {
				t.Errorf("%s, process %d: Treaties and UnitLocals read %q", tc.name, k, now.text)
			}
		}
	}
}
