// Package wire defines the JSON types of the versioned /v1 HTTP protocol
// spoken between homeo/httpapi (the server half, mounted by
// cmd/homeostasis-serve) and homeo/client (the Go client). The protocol:
//
//	POST /v1/classes   register a transaction class (L or SQL source)
//	GET  /v1/classes   list registered classes
//	POST /v1/txn       invoke a class (or the base workload mix), one
//	                   transaction per request
//	GET  /v1/stats     counters snapshot
//	GET  /healthz      liveness probe
//
// Every non-2xx response carries an ErrorResponse envelope. Failed
// transactions inside a 200 response carry a per-result Error whose Code
// distinguishes aborted, timeout, and livelocked; queue overflow is
// reported out-of-band as HTTP 429 with code "dropped", and a draining
// server answers 503 with code "draining".
// The package is intentionally dependency-free (standard library only):
// it is the wire contract, importable by any client without dragging in
// the engine.
package wire

// Error is the structured error payload.
type Error struct {
	// Code is a stable machine-readable identifier: bad_request,
	// method_not_allowed, not_found, conflict, gone, dropped, draining,
	// site_gone, aborted, timeout, livelocked, or internal.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// ClassRequest is the POST /v1/classes body. Exactly one of L and SQL
// must be set.
type ClassRequest struct {
	// Name identifies the class; optional for L (defaults to the
	// transaction name), required for SQL.
	Name string `json:"name,omitempty"`
	// L is L/L++ source containing one transaction.
	L string `json:"l,omitempty"`
	// SQL is a sqlfront script (CREATE TABLE + DML).
	SQL string `json:"sql,omitempty"`
	// Bounds are inclusive parameter ranges used to strengthen
	// parameterized guards into treaties.
	Bounds map[string][2]int64 `json:"bounds,omitempty"`
	// Initial seeds starting logical values per object (L classes).
	Initial map[string]int64 `json:"initial,omitempty"`
	// Rows preloads relational rows per table (SQL classes).
	Rows map[string][][]int64 `json:"rows,omitempty"`
}

// ClassEnvelope is the POST /v1/classes body: either a single
// ClassRequest or a Batch, registered atomically — every class installs
// or none does (when Batch is non-empty the embedded single fields are
// ignored). Batching amortizes the per-registration installation sweep.
type ClassEnvelope struct {
	ClassRequest
	Batch []ClassRequest `json:"batch,omitempty"`
}

// ClassBatchResponse is the POST /v1/classes response for batch
// registrations, in request order.
type ClassBatchResponse struct {
	Classes []ClassInfo `json:"classes"`
}

// ClassInfo describes a registered class (POST/GET /v1/classes).
type ClassInfo struct {
	Name    string   `json:"name"`
	Params  []string `json:"params,omitempty"`
	Objects []string `json:"objects,omitempty"`
	// Pinned reports the analysis fallback: the class synchronizes on
	// every write instead of committing coordination-free.
	Pinned    bool   `json:"pinned,omitempty"`
	PinReason string `json:"pin_reason,omitempty"`
	// Treaties are the unit's current per-site local treaties, rendered.
	Treaties []string `json:"treaties,omitempty"`
}

// ClassListResponse is the GET /v1/classes body.
type ClassListResponse struct {
	Classes []ClassInfo `json:"classes"`
}

// TxnRequest is one invocation, the POST /v1/txn body.
type TxnRequest struct {
	// Class names a registered class; empty draws the next request from
	// the base workload's mix.
	Class string `json:"class,omitempty"`
	// Args are the invocation arguments (must match the class arity).
	Args []int64 `json:"args,omitempty"`
	// Site pins the executing site; absent round-robins.
	Site *int `json:"site,omitempty"`
	// TimeoutMS bounds the wait server-side; on expiry the result carries
	// code "timeout" while the transaction finishes in the background.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// TxnEnvelope is what ParseTxnRequest decodes a POST /v1/txn body into:
// one TxnRequest. A body with a batch member is refused; send one POST per
// transaction.
type TxnEnvelope struct {
	TxnRequest
}

// TxnResult is one invocation's outcome.
type TxnResult struct {
	Class     string  `json:"class"`
	Args      []int64 `json:"args,omitempty"`
	Site      int     `json:"site"`
	Committed bool    `json:"committed"`
	Synced    bool    `json:"synced,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	// Log is the transaction's observable print log (SELECT results for
	// SQL classes).
	Log []int64 `json:"log,omitempty"`
	// Error classifies a failed invocation: aborted, timeout, livelocked
	// or internal.
	Error *Error `json:"error,omitempty"`
}

// StoreStats mirrors one 2PL store's counters.
type StoreStats struct {
	Commits   int64 `json:"commits"`
	Aborts    int64 `json:"aborts"`
	Deadlocks int64 `json:"deadlocks"`
	Timeouts  int64 `json:"timeouts"`
}

// Stats is the GET /v1/stats body.
type Stats struct {
	Workload  string   `json:"workload"`
	Mode      string   `json:"mode"`
	Alloc     string   `json:"alloc"`
	Runtime   string   `json:"runtime"`
	Sites     int      `json:"sites"`
	Classes   []string `json:"classes,omitempty"`
	UptimeSec float64  `json:"uptime_sec"`

	Committed         int64 `json:"committed"`
	Synced            int64 `json:"synced"`
	ConflictAborts    int64 `json:"conflict_aborts"`
	Dropped           int64 `json:"dropped"`
	Livelocked        int64 `json:"livelocked"`
	TreatyGenFailures int64 `json:"treaty_gen_failures"`
	CoWinnerCommits   int64 `json:"co_winner_commits"`

	SyncRatioPct   float64 `json:"sync_ratio_pct"`
	ThroughputTxnS float64 `json:"throughput_txn_s"`

	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP90MS  float64 `json:"latency_p90_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyMaxMS  float64 `json:"latency_max_ms"`
	LatencyMeanMS float64 `json:"latency_mean_ms"`

	// Negotiations counts the cleanup rounds this process coordinated;
	// the percentiles are their communication cost (the two peer message
	// rounds of the site fabric).
	Negotiations    int64   `json:"negotiations"`
	NegLatencyP50MS float64 `json:"neg_latency_p50_ms"`
	NegLatencyP99MS float64 `json:"neg_latency_p99_ms"`
	FabricErrors    int64   `json:"fabric_errors"`

	// Coordinator-failover outcomes and WAL recovery (durable sites).
	RoundsAdopted       int64 `json:"rounds_adopted,omitempty"`
	RoundsAborted       int64 `json:"rounds_aborted,omitempty"`
	RecoveredWALRecords int64 `json:"recovered_wal_records,omitempty"`

	// Incremental derivation: registrations served from the analysis
	// cache versus built from scratch, and treaty negotiations solved
	// from the previous configuration versus falling back to a full
	// solve.
	AnalysisCacheHits   int64 `json:"analysis_cache_hits,omitempty"`
	AnalysisCacheMisses int64 `json:"analysis_cache_misses,omitempty"`
	SolverWarmStarts    int64 `json:"solver_warm_starts,omitempty"`
	SolverFallbacks     int64 `json:"solver_fallbacks,omitempty"`

	StoreCluster StoreStats   `json:"store_cluster"`
	StorePerSite []StoreStats `json:"store_per_site,omitempty"`

	// Elastic topology: TopologyEpoch is the serving process's membership
	// epoch (bumped on every join admission and drain completion it
	// observes — a refresh cue for clients, not a consensus value).
	// SiteStatus lists every membership slot's status ("active",
	// "draining", "gone") indexed by site; SiteAddrs the known peer base
	// URLs ("" in-process).
	TopologyEpoch int64    `json:"topology_epoch"`
	ActiveSites   int      `json:"active_sites,omitempty"`
	SiteStatus    []string `json:"site_status,omitempty"`
	SiteAddrs     []string `json:"site_addrs,omitempty"`
}

// TopologyResponse is the GET /v1/topology body: the serving process's
// view of the cluster membership.
type TopologyResponse struct {
	Epoch       int64    `json:"epoch"`
	Sites       int      `json:"sites"`
	ActiveSites int      `json:"active_sites"`
	SiteStatus  []string `json:"site_status"`
	SiteAddrs   []string `json:"site_addrs,omitempty"`
	// SelfSite is the one site the process owns (-1 when every site is
	// in-process).
	SelfSite int `json:"self_site"`
}

// DrainRequest is the POST /v1/topology/drain body. On a multi-process
// cluster Site must be the serving process's own site (the drain's
// absorb rounds need its local state); peers learn of the drain through
// the fabric broadcast.
type DrainRequest struct {
	Site int `json:"site"`
}

// TopologyAck acknowledges a topology mutation with the process's
// post-mutation membership view.
type TopologyAck struct {
	Epoch       int64 `json:"epoch"`
	Sites       int   `json:"sites"`
	ActiveSites int   `json:"active_sites"`
}
