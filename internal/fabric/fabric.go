// Package fabric is the site fabric: the explicit message-passing layer
// the homeostasis cleanup phase (Section 3.3 of the paper) runs over.
// Each site owns its store partition behind a Node — an actor answering
// the peer protocol's typed messages — and the coordinator (the violating
// site) drives its two communication rounds through a Transport instead
// of reaching into other sites' memory:
//
//	round 1   CollectState scatter/gather: every site contributes its
//	          delta values for the round's object footprint, and the
//	          folded consolidated state comes back as InstallState.
//	round 2   InstallTreaties scatter: each site receives its new local
//	          treaties, closing the round.
//
// A round need not have a winning transaction: a drain's absorb rounds are
// the same two rounds with no winner in InstallState.
// Beside the round's four messages (those three and AbortRound) a Node
// answers recovery's Rejoin and membership's JoinSite and DrainSite: seven
// in all, each with one Transport method and, over HTTP, one endpoint.
//
// Two transports ship with the repository. Local keeps every site
// in-process: messages are direct calls, with communication latency
// charged to the coordinating process per message from the cluster
// topology (the round completes when the slowest peer's reply is back).
// HTTP ships the same messages over real sockets (homeo/wire peer types
// in the internal/fabric/codec encoding, served under /v1/peer/*), so a
// cluster can run as one OS process per site on different machines.
package fabric

import (
	"errors"
	"fmt"

	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/treaty"
)

// RoundID names one synchronization round cluster-wide: the coordinating
// site plus a coordinator-local sequence number.
type RoundID struct {
	Site int
	Seq  uint64
}

// String renders the round id as "round <site>.<seq>".
func (r RoundID) String() string { return fmt.Sprintf("round %d.%d", r.Site, r.Seq) }

// CollectState is the round-1 scatter message: freeze the units and
// return the site's delta values for the round's object footprint.
type CollectState struct {
	Round RoundID
	// Clock is the sender's Lamport clock.
	Clock int64
	// Units are the treaty units the round renegotiates.
	Units []int
	// Objs is the round's logical footprint: the units' objects plus
	// everything the winning transaction touches outside them.
	Objs []lang.ObjID
}

// StateReply is one site's CollectState answer: its own delta object
// values for the requested footprint.
type StateReply struct {
	Clock  int64
	Values lang.Database
}

// InstallState closes round 1: the folded consolidated state (with the
// winning transaction already applied) to install at the site.
type InstallState struct {
	Round  RoundID
	Clock  int64
	Objs   []lang.ObjID
	Folded lang.Database
	// Winner identifies the round's winning transaction, already applied
	// inside Folded. Sites remember it with the round grant: if the
	// coordinator dies between this message and round 2, the granted site
	// adopts the commit into its own log (instead of losing it) when the
	// grant fails over.
	Winner *WinnerCommit
}

// WinnerCommit is the winning transaction's identity, carried by
// InstallState so a site can adopt the commit if the coordinator vanishes
// after round 1 completed.
type WinnerCommit struct {
	Class string
	Args  []int64
	Site  int
	Units []int
	Log   []int64
}

// UnitTreaty is one unit's new local treaty for the destination site.
type UnitTreaty struct {
	Unit    int
	Version int64
	Local   treaty.Local
}

// InstallTreaties is the round-2 message for one site: its share of the
// round's new treaties. Installing them closes the round at the site.
type InstallTreaties struct {
	Round RoundID
	Clock int64
	// Site is the destination site (the treaties are its locals).
	Site  int
	Units []UnitTreaty
}

// AbortRound releases a granted round that will not complete (the
// coordinator lost a busy race or failed mid-round).
type AbortRound struct {
	Round RoundID
	Clock int64
}

// Rejoin is the recovery handshake: a site that restarted from its WAL
// announces itself and the treaty versions it recovered, so peers can
// (a) fail over any round the dead incarnation was coordinating and
// (b) report units whose treaty generation moved past the rejoiner.
type Rejoin struct {
	// Site is the rejoining site.
	Site  int
	Clock int64
	// Versions maps unit id to the treaty version the rejoining site
	// holds after replay.
	Versions map[int]int64
}

// RejoinUnit is one unit the rejoining site must repair before serving:
// the peer's treaty version and the unit objects' replicated base values.
type RejoinUnit struct {
	Unit    int
	Version int64
	// Base holds the unit objects' base values at the answering peer.
	Base lang.Database
	// Force marks repair info from a round the rejoining site itself
	// coordinated whose state install completed at the peer: the base
	// moved even though no new treaty generation was distributed, so the
	// rejoiner must adopt the base regardless of version comparison.
	Force bool
}

// RejoinReply answers a Rejoin: the units the rejoining site must repair
// (empty when its recovered state is already current).
type RejoinReply struct {
	Clock int64
	Units []RejoinUnit
}

// JoinSite phases. A join is a two-phase handshake coordinated by the
// joining site: prepare quiesces every unit at the peer and streams back
// a consistent partition cut; activate grows the peer's membership table
// and releases the quiesce. The quiesce is held under the peer's round
// grant table, so a joiner that dies between the phases is failed over by
// the ordinary grant expiry (the units unfreeze, the join aborts).
const (
	// JoinPrepare freezes the peer's units and returns the partition cut.
	JoinPrepare = 1
	// JoinActivate admits the joiner into the membership epoch and
	// releases the prepare quiesce.
	JoinActivate = 2
)

// JoinSite is the membership handshake from a joining site to one
// existing peer. Sent twice per join (JoinPrepare then JoinActivate),
// both under the same Round, which keys the prepare quiesce in the
// peer's grant table.
type JoinSite struct {
	Round RoundID
	Clock int64
	// Site is the joining site's index: the cluster width before the join.
	Site int
	// Addr is the joining site's peer base URL ("" on in-process fabrics).
	Addr string
	// Phase is JoinPrepare or JoinActivate.
	Phase int
}

// JoinUnit is one treaty unit's slice of the partition cut streamed to a
// joining site: the unit's treaty generation and its objects' replicated
// base values at the answering peer.
type JoinUnit struct {
	Unit    int
	Version int64
	Base    lang.Database
}

// JoinReply answers a JoinSite. The prepare reply carries the quiesced
// partition cut; the activate reply carries the peer's new membership
// epoch.
type JoinReply struct {
	Clock int64
	// Epoch is the peer's membership epoch after handling the message.
	Epoch int64
	// Units is the partition cut (JoinPrepare replies only).
	Units []JoinUnit
}

// DrainSite announces that a site has drained: its deltas are absorbed
// into the replicated base and it commits nothing further. Peers mark the
// site gone, bump their membership epoch, and exclude it from future
// rounds. The site keeps its index (membership slots are never reused, so
// per-site state and the merged log stay stably indexed).
type DrainSite struct {
	// Site is the drained site.
	Site  int
	Clock int64
}

// DrainReply acknowledges a DrainSite with the peer's new epoch.
type DrainReply struct {
	Clock int64
	Epoch int64
}

// ErrBusy is returned by a Node refusing CollectState because one of the
// round's units is already negotiating. The coordinator aborts the round,
// backs off, and retries.
var ErrBusy = errors.New("fabric: unit busy in another round")

// ErrSiteGone is returned by a Node refusing a message because the
// addressed site has been drained from the membership.
var ErrSiteGone = errors.New("fabric: site drained from membership")

// SiteError attributes a transport or handler failure to one site, so
// partial scatter failures surface with their origin. Unwrap exposes the
// underlying error (errors.Is sees ErrBusy through it).
type SiteError struct {
	Site int
	Err  error
}

// Error renders the failing site and the underlying error.
func (e *SiteError) Error() string { return fmt.Sprintf("fabric: site %d: %v", e.Site, e.Err) }

// Unwrap exposes the underlying error for errors.Is / errors.As.
func (e *SiteError) Unwrap() error { return e.Err }

// Node is the per-site actor: it owns the site's store partition and
// local treaty state and answers the peer protocol's typed messages.
// Handlers run under the site runtime's execution right, never park, and
// must therefore be fast and non-blocking.
type Node interface {
	// CollectState begins a round at the site: freeze the units (or
	// refuse with ErrBusy) and reply with the site's delta values for the
	// footprint.
	CollectState(m CollectState) (StateReply, error)
	// InstallState installs the folded consolidated state.
	InstallState(m InstallState) error
	// InstallTreaties installs the site's new local treaties and closes
	// the round.
	InstallTreaties(m InstallTreaties) error
	// AbortRound releases a granted round without installing anything.
	AbortRound(m AbortRound) error
	// Rejoin answers a restarted site's recovery handshake: fail over any
	// round it was coordinating and report the units it must repair.
	Rejoin(m Rejoin) (RejoinReply, error)
	// JoinSite handles one phase of a joining site's membership handshake
	// (quiesce + cut on JoinPrepare, admit + release on JoinActivate).
	JoinSite(m JoinSite) (JoinReply, error)
	// DrainSite marks the drained site gone and bumps the epoch.
	DrainSite(m DrainSite) (DrainReply, error)
}

// Transport ships the coordinator's messages to every site's Node and
// charges the coordinating process the communication cost. All methods
// are called from process context (the caller holds its runtime's
// execution right); implementations that wait for real I/O park the
// process while requests are in flight.
type Transport interface {
	// NSites reports the cluster width.
	NSites() int

	// Collect runs the round-1 scatter/gather: deliver the CollectState
	// message to every site and gather the replies, indexed by site. The
	// message is built by mkMsg when the round's membership is final:
	// the Local transport materializes it at round completion (so
	// violators that join the in-flight round are folded too), HTTP at
	// send time. A failure is returned as a *SiteError naming the first
	// failed site; ErrBusy from any site surfaces through it.
	Collect(p rt.Proc, from int, mkMsg func() CollectState) ([]StateReply, error)

	// Install delivers the folded state to every site as the closing
	// half of round 1. Under the paper's model round 1 is an all-to-all
	// state broadcast — every site holds the consolidated state when the
	// round completes — so Local charges no additional latency here; HTTP
	// pays real network time.
	Install(p rt.Proc, from int, m InstallState) error

	// Distribute runs round 2: deliver each site its InstallTreaties
	// message (ms is indexed by site). One communication round is
	// charged.
	Distribute(p rt.Proc, from int, ms []InstallTreaties) error

	// Abort releases a round at every site.
	Abort(p rt.Proc, from int, m AbortRound) error

	// Rejoin delivers the recovery handshake to every peer of the
	// rejoining site (the from site itself is skipped — it is the
	// sender) and gathers the replies, indexed by site; the rejoiner's
	// own entry is the zero RejoinReply.
	Rejoin(p rt.Proc, from int, m Rejoin) ([]RejoinReply, error)

	// Join delivers a join-handshake phase to every member site except
	// from (the joining site itself) and gathers the replies, indexed by
	// site; the joiner's own entry is the zero JoinReply.
	Join(p rt.Proc, from int, m JoinSite) ([]JoinReply, error)

	// Drain announces a drained site to every member except from (the
	// drained site itself) and gathers the acks, indexed by site.
	Drain(p rt.Proc, from int, m DrainSite) ([]DrainReply, error)

	// AddSite grows the transport by one site at the next index: Local
	// gains the node, HTTP gains the peer address. Call under the site
	// runtime's execution right, never mid-scatter.
	AddSite(addr string, node Node)

	// MarkGone excludes a drained site from every future scatter (its
	// reply slots stay present and zero, keeping site indexing stable).
	MarkGone(site int)
}
