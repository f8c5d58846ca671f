package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/homeo/wire"
	"repro/internal/wal"
)

// TestDumpWAL: every record of the valid prefix gets one JSON line; a
// record that does not decode gets its error and the dump goes on; a torn
// tail is reported.
func TestDumpWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.wal")
	l, _, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		l.AppendCommit(wal.CommitRecord{Class: "Withdraw", Args: []int64{2}, Clock: 3}),
		l.Append(wal.KindCommit, []byte(`{"class":"Withdraw"}`)),
		l.AppendTreaty(wal.TreatyRecord{Unit: 1, Version: 2, Constraints: []wire.PeerConstraint{
			{Coeffs: map[string]int64{"bal": -1}, Const: 5, Op: "<="}}}),
		l.Close(),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 9, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := dumpWAL(&out, path); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{
		`{"index":0,"kind":"commit","record":{"class":"Withdraw","args":[2],"site":0,"clock":3}}`,
		`{"index":1,"kind":"commit","error":"codec: first byte 0x7b is not the codec magic 0xb5 (format version 2 is the only encoding read)"}`,
		`{"index":2,"kind":"treaty","record":{"unit":1,"site":0,"version":2,"clock":0,"constraints":[{"coeffs":{"bal":-1},"const":5,"op":"<="}]}}`,
		`{"torn_tail_bytes":6}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("dump has %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}
