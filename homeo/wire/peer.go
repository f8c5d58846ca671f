package wire

// This file defines the message types of the site-fabric peer protocol:
// what sites exchange under /v1/peer/* when a cluster runs as multiple OS
// processes (one site each, cmd/homeostasis-serve -site N -peers ...).
// On the wire a message is its internal/fabric/codec encoding and
// nothing else; the json tags give the field-by-field rendering the docs
// and `homeostasis-analyze -wal` print (the two GET endpoints below are
// the only JSON bodies the surface serves). The protocol is the wire
// form of the paper's cleanup phase (Section 3.3), coordinator-driven by
// the violating site:
//
//	POST /v1/peer/collect           round 1: freeze the violated units and
//	                                return the site's delta values for the
//	                                round's object footprint
//	POST /v1/peer/install-state     round 1 close: install the folded
//	                                consolidated state (without a winner
//	                                when the round is a drain's absorb,
//	                                triggered under /v1/topology/drain)
//	POST /v1/peer/install-treaties  round 2: install the site's new local
//	                                treaties and release the units
//	POST /v1/peer/abort             release a round that will not complete
//	POST /v1/peer/rejoin            recovery handshake: a site restarted
//	                                from its write-ahead log announces its
//	                                recovered treaty versions; peers fail
//	                                over its orphaned rounds and report the
//	                                units it must repair
//	POST /v1/peer/join              membership handshake from a joining
//	                                site: phase 1 quiesces the peer and
//	                                streams back a consistent partition
//	                                cut, phase 2 admits the joiner into
//	                                the epoch and releases the quiesce
//	POST /v1/peer/drain             a drained site announces itself: the
//	                                peer marks it gone and bumps its
//	                                membership epoch
//	GET  /v1/peer/log               the site's commit log (Lamport-clocked)
//	GET  /v1/peer/db                the site's authoritative partition of
//	                                the logical database
//
// A site that cannot grant a round because a unit is already negotiating
// answers 409 with code "busy"; the coordinator aborts, backs off, and
// retries. All clocks are Lamport timestamps: every message carries the
// sender's clock, receivers advance to max(own, received)+1, and commit-
// log entries record theirs, so a merge of per-site logs ordered by
// (clock, site, seq) respects the causality the synchronization rounds
// establish.

// PeerCollect is the POST /v1/peer/collect body (round 1 scatter).
type PeerCollect struct {
	// From is the coordinating site; Round its round sequence number.
	From  int    `json:"from"`
	Round uint64 `json:"round"`
	Clock int64  `json:"clock"`
	// Units are the treaty units the round renegotiates; the receiving
	// site freezes them until install-treaties (or abort) arrives.
	Units []int `json:"units"`
	// Objs is the round's logical object footprint: the units' objects
	// plus everything the winning transaction reads or writes outside
	// them.
	Objs []string `json:"objs"`
}

// PeerState is the collect reply: the site's contribution to the fold —
// its own delta object values for the requested footprint.
type PeerState struct {
	Clock  int64            `json:"clock"`
	Values map[string]int64 `json:"values"`
}

// PeerInstallState is the POST /v1/peer/install-state body (round 1
// close): the folded consolidated state, computed by the coordinator
// after running the winning transaction on the fold.
type PeerInstallState struct {
	From   int              `json:"from"`
	Round  uint64           `json:"round"`
	Clock  int64            `json:"clock"`
	Objs   []string         `json:"objs"`
	Folded map[string]int64 `json:"folded"`
	// Winner identifies the round's winning transaction (already applied
	// inside Folded), so the granted site can adopt the commit if the
	// coordinator dies before round 2.
	Winner *PeerWinner `json:"winner,omitempty"`
}

// PeerWinner is the winning transaction's identity carried by
// PeerInstallState for coordinator-failover adoption.
type PeerWinner struct {
	Class string  `json:"class"`
	Args  []int64 `json:"args,omitempty"`
	Site  int     `json:"site"`
	Units []int   `json:"units,omitempty"`
	Log   []int64 `json:"log,omitempty"`
}

// PeerConstraint is one linear constraint of a local treaty in canonical
// form: sum coeffs[obj]*obj + const (op) 0.
type PeerConstraint struct {
	Coeffs map[string]int64 `json:"coeffs,omitempty"`
	Const  int64            `json:"const"`
	// Op is "<=", "<", or "==".
	Op string `json:"op"`
}

// PeerUnitTreaty is one unit's new local treaty for the receiving site.
type PeerUnitTreaty struct {
	Unit        int              `json:"unit"`
	Version     int64            `json:"version"`
	Constraints []PeerConstraint `json:"constraints"`
}

// PeerInstallTreaties is the POST /v1/peer/install-treaties body
// (round 2): the receiving site's share of the round's new treaties.
// Installing them closes the round at the site.
type PeerInstallTreaties struct {
	From  int              `json:"from"`
	Round uint64           `json:"round"`
	Clock int64            `json:"clock"`
	Site  int              `json:"site"`
	Units []PeerUnitTreaty `json:"units"`
}

// PeerAbort is the POST /v1/peer/abort body: release a granted round
// without installing anything (the coordinator lost a busy race or failed
// mid-round).
type PeerAbort struct {
	From  int    `json:"from"`
	Round uint64 `json:"round"`
	Clock int64  `json:"clock"`
}

// PeerAck answers install and abort messages.
type PeerAck struct {
	Clock int64 `json:"clock"`
}

// PeerUnitVersion pairs a treaty unit with a treaty version.
type PeerUnitVersion struct {
	Unit    int   `json:"unit"`
	Version int64 `json:"version"`
}

// PeerRejoin is the POST /v1/peer/rejoin body: a site restarted from its
// write-ahead log announces itself and the treaty versions it recovered.
// Receivers fail over any round the sender's dead incarnation was
// coordinating and reply with the units the sender must repair.
type PeerRejoin struct {
	Site  int               `json:"site"`
	Clock int64             `json:"clock"`
	Units []PeerUnitVersion `json:"units,omitempty"`
}

// PeerRejoinUnit is one unit the rejoining site must repair: the
// answering peer's treaty version and the unit objects' replicated base
// values there.
type PeerRejoinUnit struct {
	Unit    int   `json:"unit"`
	Version int64 `json:"version"`
	// Force marks repair info from a round the rejoiner itself coordinated
	// whose state install completed at the peer: the base moved without a
	// new treaty generation, so the rejoiner must adopt it regardless of
	// version comparison.
	Force bool             `json:"force,omitempty"`
	Base  map[string]int64 `json:"base,omitempty"`
}

// PeerRejoinReply is the rejoin response.
type PeerRejoinReply struct {
	Clock int64            `json:"clock"`
	Units []PeerRejoinUnit `json:"units,omitempty"`
}

// PeerJoin is the POST /v1/peer/join body: one phase of a joining site's
// membership handshake. Phase 1 (prepare) quiesces every unit at the
// receiver under a round grant and streams back the partition cut; phase
// 2 (activate) grows the receiver's membership table, bumps its epoch,
// and releases the quiesce. Both phases carry the same round, which keys
// the quiesce in the grant table — a joiner that dies between phases is
// failed over by ordinary grant expiry.
type PeerJoin struct {
	// Site is the joining site's index (the pre-join cluster width); From
	// mirrors it as the round coordinator.
	Site  int    `json:"site"`
	Round uint64 `json:"round"`
	Clock int64  `json:"clock"`
	// Addr is the joining site's peer base URL.
	Addr string `json:"addr,omitempty"`
	// Phase is 1 (prepare) or 2 (activate).
	Phase int `json:"phase"`
}

// PeerJoinUnit is one treaty unit's slice of the partition cut streamed
// to a joining site.
type PeerJoinUnit struct {
	Unit    int              `json:"unit"`
	Version int64            `json:"version"`
	Base    map[string]int64 `json:"base,omitempty"`
}

// PeerJoinReply answers a join phase: the receiver's membership epoch,
// plus the partition cut on phase-1 replies.
type PeerJoinReply struct {
	Clock int64          `json:"clock"`
	Epoch int64          `json:"epoch"`
	Units []PeerJoinUnit `json:"units,omitempty"`
}

// PeerDrain is the POST /v1/peer/drain body: the named site has drained
// (its deltas are absorbed into the replicated base and it commits
// nothing further). The receiver marks it gone and bumps its epoch; the
// site's index is never reused.
type PeerDrain struct {
	Site  int   `json:"site"`
	Clock int64 `json:"clock"`
}

// PeerDrainReply acknowledges a drain with the receiver's new epoch.
type PeerDrainReply struct {
	Clock int64 `json:"clock"`
	Epoch int64 `json:"epoch"`
}

// LogEntry is one commit-log entry (GET /v1/peer/log): enough to replay
// the transaction through its registered class and to merge per-site logs
// into a causally consistent order.
type LogEntry struct {
	Class string  `json:"class"`
	Args  []int64 `json:"args,omitempty"`
	Site  int     `json:"site"`
	// Clock is the commit's Lamport timestamp; Seq its position in the
	// site's local log.
	Clock int64 `json:"clock"`
	Seq   int   `json:"seq"`
	// Round names the cleanup round for cleanup-phase commits. It is the
	// cluster-wide dedup key under coordinator failover: an adopted winner
	// may appear in several sites' logs, and a merge keeps one copy.
	Round *LogRound `json:"round,omitempty"`
}

// LogRound names a cleanup round in a commit-log entry.
type LogRound struct {
	Site int    `json:"site"`
	Seq  uint64 `json:"seq"`
}

// LogResponse is the GET /v1/peer/log body.
type LogResponse struct {
	Site    int        `json:"site"`
	Entries []LogEntry `json:"entries"`
}

// PartitionResponse is the GET /v1/peer/db body: the site's authoritative
// share of the logical database — every treaty-unit object's replicated
// base value plus the site's own delta object values.
type PartitionResponse struct {
	Site   int              `json:"site"`
	Values map[string]int64 `json:"values"`
}
