package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of an unsorted odd sample = %v, want 5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, so a missing measurement cannot pass for a number")
	}
	// A p99 needs ten samples beyond it: 1000 samples have exactly ten.
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i)
	}
	if got := tailPercentile(many, 99); math.Abs(got-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, want 989.01", got)
	}
	if got := tailPercentile(many[:999], 99); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0 (fewer than ten beyond it)", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(vs, n=4), which
// is how the benchmark's spreads are judged.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if q1 != 27.5 || q3 != 82.5 {
		t.Errorf("quartiles of 10..100 = %v, %v; Python gives 27.5, 82.5", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2}) // clamps at the ends
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three values = %v, %v; Python gives 1, 3", q1, q3)
	}
	if got := relSpread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); got != 1 {
		t.Errorf("relative spread = %v, want 55/55", got)
	}
}

func TestOpsPerSlice(t *testing.T) {
	from := 7 * time.Second
	at := func(ms int) sample { return sample{at: from + time.Duration(ms)*time.Millisecond} }
	samples := []sample{at(100), at(900), at(1100), at(2100), at(2200), at(2300), at(3500)}
	got := opsPerSlice(samples, from, 3400*time.Millisecond, time.Second)
	if want := []float64{2, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("per-slice rates = %v, want %v (the ragged tail past 3 s is dropped)", got, want)
	}
	if got := opsPerSlice(samples[:2], from, 500*time.Millisecond, time.Second); len(got) != 1 || got[0] != 2 {
		t.Errorf("a window shorter than a slice is one slice of its own length: got %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"one nested child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []span{{Start: 160, End: 170}, {Start: 110, End: 120}}, 80},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"child inside another child", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"child sticking out is clipped", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"child covering everything", []span{{Start: 0, End: 1000}}, 0},
		{"child outside", []span{{Start: 300, End: 400}}, 100},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestLedger runs the span arithmetic on one local commit and one round
// built by hand.
func TestLedger(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	spans := []span{
		// A commit that needed no round: 100 us at the client, 80 on the
		// wire, 30 in the handler, 10 in the engine.
		{ID: 1, Name: spanSubmit, Start: 0, End: us(100)},
		{ID: 2, Parent: 1, Name: spanRoundTrip, Start: us(10), End: us(90)},
		{ID: 3, Parent: 2, Name: spanHandle, Start: us(40), End: us(70)},
		{ID: 4, Parent: 3, Name: spanEngine, Start: us(40), End: us(50)},
		// A commit that paid a round: 5 ms in the engine, of which two peer
		// messages took 300 us and 700 us.
		{ID: 11, Name: spanSubmit, Start: us(1000), End: us(7000)},
		{ID: 12, Parent: 11, Name: spanRoundTrip, Start: us(1010), End: us(6990)},
		{ID: 13, Parent: 12, Name: spanHandle, Start: us(1500), End: us(6900)},
		{ID: 14, Parent: 13, Name: spanRound, Start: us(1500), End: us(6500)},
		{ID: 15, Parent: 14, Name: spanPeerPfx + "collect", Start: us(2000), End: us(2300)},
		{ID: 16, Parent: 15, Name: spanPeerServe, Start: us(2100), End: us(2200)},
		{ID: 17, Parent: 14, Name: spanPeerPfx + "install-treaties", Start: us(6000), End: us(6700)},
	}
	got := ledger(spans)
	for name, want := range map[string]float64{
		"client.self_us":                20,
		"nethttp.self_us":               50,
		"httpapi.self_us":               20,
		"homeo.engine_us":               10,
		"ledger.traced_commit_p50_us":   100,
		"ledger.unattributed_us":        0,
		"fabric.collect_p50_us":         300,
		"fabric.treaties_p50_us":        700,
		"fabric.install_p50_us":         0,
		"fabric.peer_handler_p50_us":    100,
		"fabric.round_peer_ms":          1,
		"homeostasis.round_engine_ms":   5,
		"homeostasis.round_residual_ms": 4,
	} {
		if got[name].value != want {
			t.Errorf("%s = %v, want %v", name, got[name].value, want)
		}
	}
	if n := got["homeo.engine_us"].n; n != 1 {
		t.Errorf("the round must not count among the local commits: n = %d", n)
	}
}

// Equal seeds must give byte-identical inputs, different seeds different
// ones: the benchmark's inputs are a function of --seed alone.
func TestGeneratorsFollowTheSeed(t *testing.T) {
	stream := func(seed int64) []byte {
		var out []any
		out = append(out, classSet(refillSync, seed), classSet(refillNever, seed))
		for client := 0; client < 4; client++ {
			g := newReqGen(seed, client)
			for i := 0; i < 500; i++ {
				k, n := g.next()
				out = append(out, [2]int64{int64(k), n})
			}
		}
		g := newRegGen(seed)
		for i := 0; i < 500; i++ {
			req, novel := g.next()
			out = append(out, req, novel)
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := stream(7), stream(7); string(a) != string(b) {
		t.Error("the same seed generated different inputs")
	}
	if a, b := stream(7), stream(8); string(a) == string(b) {
		t.Error("different seeds generated the same inputs")
	}
}

func TestRequestStreamShape(t *testing.T) {
	for client := 0; client < nSites; client++ {
		g := newReqGen(1, client)
		for block := 0; block < 10; block++ {
			seen := map[int]bool{}
			for i := 0; i < nClasses/nSites; i++ {
				k, n := g.next()
				if k%nSites != client {
					t.Fatalf("client %d drew class %d, which belongs to the other site", client, k)
				}
				if n < argLo || n > argHi {
					t.Fatalf("argument %d outside [%d,%d]", n, argLo, argHi)
				}
				seen[k] = true
			}
			if len(seen) != nClasses/nSites {
				t.Fatalf("client %d, block %d: %d distinct classes, want every class once", client, block, len(seen))
			}
		}
	}
	g := newRegGen(1)
	novel := 0
	for i := 0; i < 5000; i++ {
		if _, isNovel := g.next(); isNovel {
			novel++
			continue
		}
		if i < regShapes {
			t.Fatalf("registration %d is a shape's first occurrence and must be marked novel", i)
		}
	}
	if novel < 400 || novel > 600 {
		t.Errorf("%d of 5000 registrations were novel, want about one in ten", novel)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999} }
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"lower is better, got lower", steady(100), steady(80), "lower", 0.10, "better"},
		{"lower is better, got higher", steady(100), steady(120), "lower", 0.10, "worse"},
		{"higher is better, got lower", steady(100), steady(80), "higher", 0.10, "worse"},
		{"higher is better, got higher", steady(100), steady(120), "higher", 0.10, "better"},
		{"inside the bound", steady(100), steady(105), "lower", 0.10, "same"},
		{"spread wider than the bound", []float64{60, 100, 140}, []float64{90, 130, 170}, "lower", 0.10, "unresolved"},
		{"a change beyond even a wide spread", []float64{60, 100, 140}, []float64{240, 300, 360}, "lower", 0.10, "worse"},
		{"no bound, change inside the spread", []float64{90, 100, 110}, []float64{95, 105, 115}, "lower", 0, "unresolved"},
		{"no bound, change beyond the spread", steady(100), steady(103), "lower", 0, "worse"},
	} {
		if got, _, _ := verdict(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestManifestMatchesTables holds BENCHMARK.json and the metric tables
// together: same workloads, same metric names, units and directions, in
// the same order, and a bound on every end-to-end metric and on no other.
func TestManifestMatchesTables(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the runner %q (or their reasons differ)", i, m.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: reason is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the runner", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the runner %+v", kind, i, g, d)
			}
			if (g.Bound != nil) != bounded {
				t.Errorf("%s metric %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd, true)
	same("per-layer", m.PerLayer, perLayer, false)
	if m.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// TestQuickSmoke runs every workload once at smoke-test sizes, traced (a
// traced pass measures the end-to-end metrics too, it just does not
// report them), and checks that it measures every metric BENCHMARK.json
// declares: end-to-end ones finite and non-zero, per-layer ones finite,
// and non-zero where their layer does work.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	// alive lists, per workload, the per-layer metrics that must be
	// non-zero there: its own probes, and the span- and counter-derived
	// lines of the layers it exists to exercise.
	alive := map[string][]string{
		"fastpath": {"wire.txn_encode_ns", "wire.txn_decode_ns", "wire.result_encode_ns", "wire.result_decode_ns",
			"nethttp.noop_rt_us", "httpapi.handle_txn_us", "homeo.submit_live_us", "homeo.submit_live_allocs",
			"homeostasis.exec_live_ns", "rtlive.spawn_ns", "rtlive.sleep_min_us", "rtlive.locked_ns",
			"client.self_us", "nethttp.self_us", "httpapi.self_us", "homeo.engine_us", "ledger.traced_commit_p50_us"},
		"sync": {"treaty.template_us", "treaty.optimize_cold_us", "treaty.optimize_warm_us", "codec.peer_roundtrip_ns",
			"fabric.http_round_us", "wal.append_commit_ns", "wal.flush_us",
			"fabric.msgs_per_round", "fabric.bytes_per_round", "fabric.peer_rt_p50_us", "fabric.collect_p50_us",
			"fabric.install_p50_us", "fabric.treaties_p50_us", "fabric.peer_handler_p50_us", "fabric.transport_self_us",
			"fabric.round_peer_ms", "homeostasis.round_residual_ms", "homeostasis.round_engine_ms",
			"homeostasis.sync_ratio_pct", "homeostasis.rounds", "wal.bytes_per_commit", "wal.records_per_commit",
			"wal.install_records_per_round", "wal.treaty_records_per_round"},
		"register": {"lang.parse_us", "symtab.build_us", "workload.compile_hit_us", "workload.compile_miss_us",
			"homeo.register_hit_us", "homeo.register_miss_us",
			"workload.cache_hit_pct", "workload.register_hit_p50_us", "workload.register_miss_p50_us", "httpapi.self_us"},
		"recover": {"wal.scan_ns_per_record", "wal.bytes_per_commit", "homeostasis.recover_us_per_record",
			"wal.build_txn_s", "homeostasis.sync_ratio_pct"},
		"simcore": {"homeo.submit_sim_us", "homeo.submit_sim_allocs", "homeostasis.exec_sim_ns", "sim.spawn_ns",
			"store.txn_ns", "treaty.holds_ns", "homeostasis.sync_ratio_pct", "homeostasis.rounds",
			"client.local_commit_p50_us"},
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	out := t.TempDir()
	for _, def := range workloads {
		cfg := config{workload: def.Name, seed: 5, seconds: 1, trace: true, quick: true, outDir: out}
		r, err := execute(cfg, def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if r.failed() != 0 || r.attempted == 0 {
			t.Errorf("%s: attempted %d, failures %v", def.Name, r.attempted, r.failures)
		}
		for _, d := range endToEnd {
			v, ok := r.e2e[d.Name]
			if !ok || v.n == 0 || v.value <= 0 || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", def.Name, d.Name, v, ok)
			}
		}
		for _, d := range loadTimings {
			if v := r.layer[d.Name]; v.n == 0 || v.value <= 0 {
				t.Errorf("%s: load timing %s = %+v", def.Name, d.Name, v)
			}
		}
		for _, d := range perLayer {
			v := r.layer[d.Name]
			if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
				t.Errorf("%s: per-layer metric %s = %v", def.Name, d.Name, v.value)
			}
		}
		for _, name := range alive[def.Name] {
			if v := r.layer[name]; !declared[name] || v.value <= 0 || v.n == 0 {
				t.Errorf("%s: per-layer metric %s = %+v (declared %v); its layer works here", def.Name, name, v, declared[name])
			}
		}
		if v := r.layer["homeostasis.exec_sim_allocs"]; def.Name == "simcore" && (v.n == 0 || v.value != 0) {
			t.Errorf("simcore: the treaty-checked commit allocates: %+v", v)
		}
		for name := range r.layer {
			if !declared[name] {
				t.Errorf("%s reports %s, which BENCHMARK.json does not declare", def.Name, name)
			}
		}
	}
}
