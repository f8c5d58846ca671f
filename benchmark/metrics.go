package main

// The metric tables. BENCHMARK.json at the root of the repository lists
// exactly these names, units and directions (a test holds the two
// together); the regression bounds live only there.

type metricDef struct {
	Name, Unit, Better string
}

// reading is one measured value and the number of samples behind it.
type reading struct {
	value float64
	n     int
}

// endToEnd is what a user of the system sees and the benchmark can hold
// steady enough to put a regression bound on. Every workload reports
// every one of them; what "an operation" is differs per workload and is
// spelled out in README.md:
//
//	fastpath  op = a transaction committed over POST /v1/txn
//	sync      op = the same; op_p50_us is the latency of commits that paid a round
//	register  op = a class registered over POST /v1/classes
//	recover   op = a commit replayed by Recover(); op_p50_us is one whole Recover() call
//	simcore   op = a Session.Submit on the simulator
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// loadTimings are the timings of the load as its caller sees it. A user
// sees them as much as anything in endToEnd, but on a shared virtual
// machine they swing by a factor of two with the neighbours, and a bound
// nobody can hold is worse than none: they are per-layer metrics, printed
// and recorded by the untraced pass too, compared but never bounded.
var loadTimings = []metricDef{
	{"throughput_ops_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
}

// perLayer is the ledger: loadTimings (with the tracing overhead in them
// when read from a traced pass), then one line per layer boundary,
// counter or probe. A workload reports 0 for a layer it does not exercise
// and for a probe whose home is another workload (probeHome).
var perLayer = append(loadTimings[:len(loadTimings):len(loadTimings)], []metricDef{
	// Commit path, from spans (commits that needed no round).
	{"client.self_us", "us", "lower"},
	{"nethttp.self_us", "us", "lower"},
	{"httpapi.self_us", "us", "lower"},
	{"homeo.engine_us", "us", "lower"},
	{"ledger.traced_commit_p50_us", "us", "lower"},
	{"ledger.unattributed_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"client.op_p99_us", "us", "lower"},
	{"client.local_commit_p50_us", "us", "lower"},
	// Round path, from spans.
	{"fabric.msgs_per_round", "count", "lower"},
	{"fabric.bytes_per_round", "B", "lower"},
	{"fabric.peer_rt_p50_us", "us", "lower"},
	{"fabric.collect_p50_us", "us", "lower"},
	{"fabric.install_p50_us", "us", "lower"},
	{"fabric.treaties_p50_us", "us", "lower"},
	{"fabric.peer_handler_p50_us", "us", "lower"},
	{"fabric.transport_self_us", "us", "lower"},
	{"fabric.round_peer_ms", "ms", "lower"},
	{"homeostasis.round_residual_ms", "ms", "lower"},
	{"homeostasis.round_engine_ms", "ms", "lower"},
	// Engine counters over the measured window.
	{"homeostasis.sync_ratio_pct", "%", "lower"},
	{"homeostasis.neg_comm_p50_ms", "ms", "lower"},
	{"homeostasis.rounds", "count", "lower"},
	{"homeostasis.conflict_aborts", "count", "lower"},
	{"homeostasis.busy_retries", "count", "lower"},
	{"homeostasis.livelocked", "count", "lower"},
	{"homeostasis.fabric_errors", "count", "lower"},
	{"homeostasis.gen_failures", "count", "lower"},
	{"treaty.solver_warm_starts", "count", "higher"},
	{"treaty.solver_fallbacks", "count", "lower"},
	{"workload.cache_hit_pct", "%", "higher"},
	{"workload.register_hit_p50_us", "us", "lower"},
	{"workload.register_miss_p50_us", "us", "lower"},
	{"store.aborts", "count", "lower"},
	{"store.deadlocks", "count", "lower"},
	{"store.timeouts", "count", "lower"},
	// Write-ahead log, from scanning the files after the run.
	{"wal.bytes_per_commit", "B", "lower"},
	{"wal.records_per_commit", "count", "lower"},
	{"wal.install_records_per_round", "count", "lower"},
	{"wal.treaty_records_per_round", "count", "lower"},
	{"homeostasis.recover_us_per_record", "us", "lower"},
	{"wal.build_txn_s", "1/s", "higher"},
	// Go runtime over the measured window.
	{"gc.cycles", "count", "lower"},
	{"gc.pause_total_ms", "ms", "lower"},
	{"heap.inuse_mb_end", "MB", "lower"},
	// Layer probes: direct timed calls, see probes.go.
	{"wire.txn_encode_ns", "ns", "lower"},
	{"wire.txn_decode_ns", "ns", "lower"},
	{"wire.result_encode_ns", "ns", "lower"},
	{"wire.result_decode_ns", "ns", "lower"},
	{"nethttp.noop_rt_us", "us", "lower"},
	{"httpapi.handle_txn_us", "us", "lower"},
	{"homeo.submit_live_us", "us", "lower"},
	{"homeo.submit_live_allocs", "count", "lower"},
	{"homeostasis.exec_live_ns", "ns", "lower"},
	{"rtlive.spawn_ns", "ns", "lower"},
	{"rtlive.sleep_min_us", "us", "lower"},
	{"rtlive.locked_ns", "ns", "lower"},
	{"homeo.submit_sim_us", "us", "lower"},
	{"homeo.submit_sim_allocs", "count", "lower"},
	{"homeostasis.exec_sim_ns", "ns", "lower"},
	{"homeostasis.exec_sim_allocs", "count", "lower"},
	{"sim.spawn_ns", "ns", "lower"},
	{"store.txn_ns", "ns", "lower"},
	{"treaty.holds_ns", "ns", "lower"},
	{"treaty.template_us", "us", "lower"},
	{"treaty.optimize_cold_us", "us", "lower"},
	{"treaty.optimize_warm_us", "us", "lower"},
	{"codec.peer_roundtrip_ns", "ns", "lower"},
	{"fabric.http_round_us", "us", "lower"},
	{"wal.append_commit_ns", "ns", "lower"},
	{"wal.flush_us", "us", "lower"},
	{"wal.scan_ns_per_record", "ns", "lower"},
	{"lang.parse_us", "us", "lower"},
	{"symtab.build_us", "us", "lower"},
	{"workload.compile_hit_us", "us", "lower"},
	{"workload.compile_miss_us", "us", "lower"},
	{"homeo.register_hit_us", "us", "lower"},
	{"homeo.register_miss_us", "us", "lower"},
}...)

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name, Why string
	new       func(cfg config, tr *tracer) load
}

var workloads = []workloadDef{
	{"fastpath", "Commits that never violate a treaty, over HTTP to a live 2-site cluster: client, HTTP, decode, submit, scheduler, locks, exec and treaty check do all the work; fabric, solver and WAL none.",
		func(cfg config, tr *tracer) load { return newTxnLoad(cfg, tr, false) }},
	{"sync", "One commit in ten pays a synchronization round between two clusters joined over loopback HTTP with WAL on: negotiate, fold, derive, codec, peer HTTP and log flush dominate.",
		func(cfg config, tr *tracer) load { return newTxnLoad(cfg, tr, true) }},
	{"register", "Classes registered online one POST at a time, nine in ten of a shape seen before: parse, symbolic table, template, optimize and compile with the analysis cache hit and missed; no commits.",
		func(cfg config, tr *tracer) load { return newRegisterLoad(cfg, tr) }},
	{"recover", "Recover() on the crash image of a fixed-length log: the WAL read where sync writes it, with byte counts that repeat exactly for a seed.",
		func(cfg config, _ *tracer) load { return newRecoverLoad(cfg) }},
	{"simcore", "The same engine, store and treaty code as fastpath and sync on the simulator, with no HTTP, scheduler or real sleeps: engine-core changes show here and live, transport changes only live.",
		func(cfg config, _ *tracer) load { return newSimLoad(cfg) }},
}
