// Package wal is the per-site write-ahead log that makes a site's
// partition survive a crash. A site appends three kinds of records as it
// runs — committed transactions with their own-delta watermarks,
// synchronization-round state installs, and installed treaty generations
// — and a restarted process rebuilds its store partition, treaty
// versions, Lamport clock, and commit log by replaying them on top of
// the deterministic boot state (same seed and class registrations yield
// the same unit ids and boot treaties in every incarnation).
//
// # Format
//
// The log is a flat append-only file of length-prefixed, checksummed
// frames:
//
//	[4-byte big-endian payload length][4-byte IEEE CRC32][payload]
//
// where payload is one kind byte followed by the record's fields in the
// fabric codec (internal/fabric/codec), the only payload encoding: a
// payload that does not open with the codec magic and this build's
// format version fails to decode, and recovery fails with it. Replay
// (Frames, and Scan and Open on top of it) reads the longest valid prefix
// and stops cleanly at the first torn frame — a crash mid-batch loses at
// most the final unflushed records, never the prefix.
//
// # Reading a log: who owns the bytes
//
// Frames is the one checked walk of a log's frames, and Scan collects
// what it visits. Open checks a file's frames once, with Frames, and
// returns the valid prefix it read as a Prefix, whose Walk visits the
// same records without checking them again and whose Count sizes what a
// replay will build. None of them copies a payload: every Record they
// produce is a sub-slice of the bytes walked (Scan's argument, or the
// buffer Open read the file into), capacity-clipped so that appending to
// one cannot reach the next. A caller that overwrites or reuses those
// bytes invalidates the records, and a caller that keeps a record keeps
// the whole buffer.
//
// Decoding has the same two levels. A view (CommitView, InstallView,
// TreatyView, MembershipView) decodes a record in place: names and other
// byte fields point into the payload, number lists land in scratch the
// view reuses for the next record, nothing is allocated per record, and
// what must outlive the payload is the caller's to copy. The accessors
// (Record.Commit, Install, Treaty, Membership, Decode) are the view
// decoders followed by that copy — a record struct that owns everything
// it holds — for callers to whom a few allocations per record do not
// matter. There is no other decoder: a new field is decoded in the view
// and copied in the accessor.
//
// # Durability model
//
// Appends batch in memory and a background group-commit timer writes the
// batch (Options.GroupWindow, 2ms default); Options.Sync additionally
// fsyncs each batch. The homeostasis site flushes the batch before any
// state escapes to a peer (a round-1 state reply, an install ack, a
// rejoin reply), so even without fsync a SIGKILL cannot lose a record
// that another site's state depends on: a plain write(2) survives the
// process, and nothing unwritten was ever externalized. The package
// never touches virtual time, so simulator timelines and the experiment
// goldens are byte-identical with the WAL on or off.
package wal
