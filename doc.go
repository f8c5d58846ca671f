// Package repro is a from-scratch Go implementation of "The Homeostasis
// Protocol: Avoiding Transaction Coordination Through Program Analysis"
// (Roy, Kot, Bender, Ding, Hojjat, Koch, Foster, Gehrke; SIGMOD 2015).
//
// # Public API
//
// The supported programmatic surface is the homeo package tree:
//
//   - homeo: the embeddable API — Cluster (a running multi-site
//     deployment on the simulator or the wall-clock runtime), TxnClass
//     (transaction classes registered at runtime from L or SQL source,
//     analyzed and treaty-fitted online), Session (submission with
//     per-call deadlines and the ErrAborted / ErrTimeout /
//     ErrLivelocked / ErrDropped taxonomy), and Stats snapshots;
//   - homeo/wire: the message types of the versioned /v1 wire protocol
//     (JSON towards clients, the binary peer encoding between sites);
//   - homeo/httpapi: the HTTP server half (mounted by
//     cmd/homeostasis-serve, embeddable behind any mux);
//   - homeo/client: the Go client with connection pooling and jittered
//     retries, which the drive harness (internal/drive) is built on.
//
// The implementation lives under internal/ (see README.md for the
// architecture and DESIGN.md for the paper-to-module map):
//
//   - internal/lang: the transaction languages L and L++ (Section 2),
//     the Appendix A lowering and the Appendix B replica rewrite;
//   - internal/symtab: symbolic tables (Figure 6) with joins and
//     independence-group factorization;
//   - internal/treaty: treaty generation (Section 4) — preprocessing,
//     per-site templates, the Theorem 4.3 default, the demarcation-style
//     equal split, and the Algorithm 1 MaxSAT optimizer;
//   - internal/sat, internal/maxsat, internal/lia: the solver stack
//     (DPLL, Fu-Malik, Fourier-Motzkin) standing in for Z3;
//   - internal/homeostasis: the protocol runtime (Section 3.3) plus the
//     2PC / local / OPT baselines over per-site 2PL stores
//     (internal/store), programmed against the internal/rt runtime
//     contract so the same core runs on the deterministic discrete-event
//     simulator (internal/sim, internal/cluster) and on the wall-clock
//     serving runtime (internal/rtlive);
//   - internal/fabric: the site fabric — each site owns its store
//     partition behind an actor answering typed peer messages
//     (CollectState / InstallState / InstallTreaties), and the cleanup
//     phase's coordinator drives its two communication rounds through a
//     pluggable Transport: fabric.Local (in-process, latency charged
//     per message from the topology; the default, byte-identical to the
//     seed timeline) or fabric.HTTP (binary peer messages over real
//     sockets, one OS process per site, Lamport-clocked commit logs for
//     merged replay checks). homeo.Options.Fabric and
//     cmd/homeostasis-serve's -site/-peers flags deploy it;
//   - internal/micro, internal/tpcc: the Section 6 workloads;
//   - internal/experiments: one runner per evaluation table/figure.
//
// # Allocation strategies and drift
//
// Beyond the paper's strategies (the Algorithm 1 optimizer, the
// demarcation-style equal split, and the Theorem 4.3 pin), the runtime
// offers an adaptive engine (homeostasis.Options.Alloc): a per-unit,
// per-site demand layer tracks delta burn and violation counts since
// the last negotiation round, treaty.AdaptiveConfig splits each
// clause's slack proportionally to the observed burn (shared between
// isomorphic units through the deriver's memo, keyed additionally by
// the quantized demand vector), and the cleanup phase batches — while
// a unit renegotiates, queued violators register as co-winners and one
// fold, one treaty generation, and one distribution round commit the
// whole batch. Everything is opt-in: AllocDefault reproduces the seed
// protocol bit for bit.
//
// The drift workloads exercise it: micro's hot-site rotation
// (Config.HotFrac/HotWindow/RotateEvery) and TPC-C's skewed warehouse
// (Config.WarehouseAffinity/RotateEvery), both clocked by
// workload.Rotor; each Config's Drift method is the one statement of the
// scenario's preset. The "drift" experiment compares equal-split,
// model-optimized, and adaptive allocation under both.
//
// Entry points: cmd/homeostasis-bench regenerates the paper's evaluation,
// cmd/homeostasis-serve serves the /v1 wire protocol live (its -drive mode
// is internal/drive: the closed-loop load and chaos harness, one sequence
// for in-process and multi-process drives), cmd/homeostasis-analyze
// exposes the offline analyzer, examples/ holds runnable walkthroughs
// (quickstart and ecommerce on the public API), and bench_test.go in
// this directory hosts the benchmark harness (one testing.B benchmark
// per table and figure).
package repro
