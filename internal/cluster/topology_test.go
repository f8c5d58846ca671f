package cluster

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestUniformTopology(t *testing.T) {
	topo := Uniform(3, 100*sim.Millisecond)
	if topo.NSites() != 3 {
		t.Fatalf("sites = %d", topo.NSites())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				if topo.RTT(i, j) != 0 {
					t.Fatalf("self RTT = %v", topo.RTT(i, j))
				}
				continue
			}
			if topo.RTT(i, j) != 100*sim.Millisecond {
				t.Fatalf("RTT(%d,%d) = %v", i, j, topo.RTT(i, j))
			}
			if topo.OneWay(i, j) != 50*sim.Millisecond {
				t.Fatalf("one-way = %v", topo.OneWay(i, j))
			}
		}
	}
	if topo.MaxRTTFrom(0) != 100*sim.Millisecond {
		t.Fatalf("max RTT = %v", topo.MaxRTTFrom(0))
	}
}

func TestEC2MatchesTable1(t *testing.T) {
	topo := EC2(5)
	// Spot checks against Table 1 of the paper (values in ms).
	cases := []struct {
		a, b int
		ms   int64
	}{
		{UE, UW, 64}, {UE, IE, 80}, {UE, SG, 243}, {UE, BR, 164},
		{UW, IE, 170}, {UW, SG, 210}, {UW, BR, 227},
		{IE, SG, 285}, {IE, BR, 235}, {SG, BR, 372},
	}
	for _, tc := range cases {
		want := sim.Duration(tc.ms) * sim.Millisecond
		if got := topo.RTT(tc.a, tc.b); got != want {
			t.Errorf("RTT(%s,%s) = %v, want %v", table1Names[tc.a], table1Names[tc.b], got, want)
		}
		// Symmetry.
		if topo.RTT(tc.a, tc.b) != topo.RTT(tc.b, tc.a) {
			t.Errorf("asymmetric RTT between %d and %d", tc.a, tc.b)
		}
	}
}

func TestEC2Truncation(t *testing.T) {
	topo := EC2(2)
	if topo.NSites() != 2 {
		t.Fatalf("sites = %d", topo.NSites())
	}
	if topo.MaxRTTFrom(0) != 64*sim.Millisecond {
		t.Fatalf("UE max RTT with 2 sites = %v, want 64ms", topo.MaxRTTFrom(0))
	}
	// Five-replica worst case from SG is BR (372ms).
	topo5 := EC2(5)
	if topo5.MaxRTTFrom(SG) != 372*sim.Millisecond {
		t.Fatalf("SG max RTT = %v", topo5.MaxRTTFrom(SG))
	}
}

func TestEC2PanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EC2(6) should panic")
		}
	}()
	EC2(6)
}

func TestTable1String(t *testing.T) {
	s := Table1String()
	for _, want := range []string{"UE", "UW", "IE", "SG", "BR", "372", "64"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table1String missing %q:\n%s", want, s)
		}
	}
}
