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
// (Scan) decodes the longest valid prefix and stops cleanly at
// the first torn frame — a crash mid-batch loses at most the final
// unflushed records, never the prefix.
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
