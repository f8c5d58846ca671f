package fabric_test

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/fabric/codec"
	"repro/internal/lia"
	"repro/internal/treaty"
	"repro/internal/wal"
)

// TestConstraintsFromWireBoundary pins what the one boundary conversion
// does with input no canonical treaty produces: map keys come out in
// ascending object order, a zero coefficient is dropped, a constraint with
// no coefficients is ground, and an op the protocol does not know is
// refused.
func TestConstraintsFromWireBoundary(t *testing.T) {
	got, err := fabric.ConstraintsFromWire(1, []wire.PeerConstraint{
		{Coeffs: map[string]int64{"b@d1": 2, "a@d1": -1, "z@d1": 0}, Const: 3, Op: "<"},
		{Coeffs: map[string]int64{"a@d1": 0}, Const: -4, Op: "<="},
		{Const: 5, Op: "=="},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := treaty.Local{Site: 1, Constraints: []treaty.Constraint{
		{Terms: []treaty.Term{{Obj: "a@d1", Coeff: -1}, {Obj: "b@d1", Coeff: 2}}, Const: 3, Op: lia.LT},
		{Terms: []treaty.Term{}, Const: -4, Op: lia.LE},
		{Const: 5, Op: lia.EQ},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ConstraintsFromWire =\n %+v\nwant\n %+v", got, want)
	}
	if _, err := treaty.Compile(got); err != nil {
		t.Errorf("what the boundary built is not canonical: %v", err)
	}
	_, err = fabric.ConstraintsFromWire(0, []wire.PeerConstraint{{Const: 1, Op: "<="}, {Const: 1, Op: "!="}})
	if err == nil || err.Error() != `fabric: unknown constraint op "!="` {
		t.Errorf("unknown op: err = %v", err)
	}
}

// goldenLine returns the bytes of the fixture line that starts with name.
func goldenLine(t *testing.T, path, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if hexBytes, ok := strings.CutPrefix(line, name+" "); ok {
			b, err := hex.DecodeString(hexBytes)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatalf("%s has no %s line", path, name)
	return nil
}

// TestTreatyRoundTripIsGoldenBytes: the treaties the two golden fixtures
// hold — an install-treaties body and a WAL treaty record — decoded into
// the flat Local and encoded again are the fixture's bytes, and decoding
// those gives the same Local: Local → wire → codec bytes → wire → Local is
// the identity on canonical input and moves no byte of either format.
func TestTreatyRoundTripIsGoldenBytes(t *testing.T) {
	t.Run("peer", func(t *testing.T) {
		fixture := goldenLine(t, "codec/testdata/peer_v2.golden", "*wire.PeerInstallTreaties")
		decode := func(b []byte) fabric.InstallTreaties {
			t.Helper()
			var w wire.PeerInstallTreaties
			if err := codec.DecodeMessage(b, &w); err != nil {
				t.Fatal(err)
			}
			m, err := fabric.InstallTreatiesFromWire(w)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := decode(fixture)
		if len(m.Units) == 0 || len(m.Units[0].Local.Constraints) == 0 {
			t.Fatalf("the fixture holds no treaty: %+v", m)
		}
		w := fabric.InstallTreatiesToWire(m)
		enc, err := codec.AppendMessage(nil, &w)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, fixture) {
			t.Errorf("re-encoded\n  %x\nfixture\n  %x", enc, fixture)
		}
		if back := decode(enc); !reflect.DeepEqual(back, m) {
			t.Errorf("second trip gives %+v, want %+v", back, m)
		}
	})
	t.Run("wal", func(t *testing.T) {
		fixture := goldenLine(t, "../wal/testdata/wal_v2.golden", "treaty")
		decode := func(payload []byte) (wal.TreatyRecord, treaty.Local) {
			t.Helper()
			rec, err := wal.Record{Kind: wal.KindTreaty, Payload: payload}.Treaty()
			if err != nil {
				t.Fatal(err)
			}
			l, err := fabric.ConstraintsFromWire(rec.Site, rec.Constraints)
			if err != nil {
				t.Fatal(err)
			}
			return rec, l
		}
		rec, l := decode(fixture)
		if len(l.Constraints) == 0 {
			t.Fatalf("the fixture holds no treaty: %+v", rec)
		}
		rec.Constraints = fabric.ConstraintsToWire(l)
		path := filepath.Join(t.TempDir(), "site-0.wal")
		lg, _, err := wal.Open(path, wal.Options{GroupWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.AppendTreaty(rec); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := wal.Scan(data)
		if len(recs) != 1 || !bytes.Equal(recs[0].Payload, fixture) {
			t.Fatalf("logged\n  %x\nfixture\n  %x", recs, fixture)
		}
		if _, back := decode(recs[0].Payload); !reflect.DeepEqual(back, l) {
			t.Errorf("second trip gives %+v, want %+v", back, l)
		}
	})
}
