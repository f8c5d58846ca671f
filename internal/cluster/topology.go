// Package cluster models the multi-site deployment: network topology with
// per-pair latencies (including the paper's Table 1 EC2 datacenter RTT
// matrix), and per-site compute resources.
package cluster

import (
	"fmt"

	"repro/internal/rt"
)

// Topology holds symmetric one-way latencies between sites.
type Topology struct {
	n      int
	oneWay [][]rt.Duration
}

// NSites returns the number of sites.
func (t *Topology) NSites() int { return t.n }

// OneWay returns the one-way latency between two sites.
func (t *Topology) OneWay(a, b int) rt.Duration { return t.oneWay[a][b] }

// RTT returns the round-trip time between two sites.
func (t *Topology) RTT(a, b int) rt.Duration { return 2 * t.oneWay[a][b] }

// MaxOneWayFrom returns the worst one-way latency from the given site to
// any other site.
func (t *Topology) MaxOneWayFrom(site int) rt.Duration {
	var max rt.Duration
	for other := 0; other < t.n; other++ {
		if other != site && t.oneWay[site][other] > max {
			max = t.oneWay[site][other]
		}
	}
	return max
}

// MaxRTTFrom returns the worst round trip from the given site.
func (t *Topology) MaxRTTFrom(site int) rt.Duration {
	return 2 * t.MaxOneWayFrom(site)
}

// RoundLatency is the duration of one scatter/gather communication round
// coordinated by the given site: each peer's message pays its own
// pairwise round trip, and the round completes when the slowest reply is
// back — max over peers of RTT(from, k), which is exactly MaxRTTFrom.
// The site fabric charges this per round.
func (t *Topology) RoundLatency(from int) rt.Duration {
	return t.MaxRTTFrom(from)
}

// Grow widens the topology by one site in place. The new site takes site
// 0's latency profile: its one-way latency to each existing site k != 0
// copies oneWay[0][k], and its latency to site 0 copies site 0's nearest
// peer distance oneWay[0][1] (for a one-site topology, zero). Growing in
// place lets every holder of the shared *Topology — transports, the
// homeostasis system — see the new width at once. Returns the new site's
// index.
func (t *Topology) Grow() int {
	site := t.n
	row := make([]rt.Duration, t.n+1)
	for k := 0; k < t.n; k++ {
		if k != 0 {
			row[k] = t.oneWay[0][k]
		} else if t.n > 1 {
			row[0] = t.oneWay[0][1]
		}
		t.oneWay[k] = append(t.oneWay[k], row[k])
	}
	t.oneWay = append(t.oneWay, row)
	t.n++
	return site
}

// Uniform builds a topology of n sites with identical pairwise RTT, as in
// the microbenchmark experiments (Section 6.1, simulated RTTs).
func Uniform(n int, rtt rt.Duration) *Topology {
	t := &Topology{n: n, oneWay: make([][]rt.Duration, n)}
	for i := range t.oneWay {
		t.oneWay[i] = make([]rt.Duration, n)
		for j := range t.oneWay[i] {
			if i != j {
				t.oneWay[i][j] = rtt / 2
			}
		}
	}
	return t
}

// EC2 datacenter indices for the Table 1 matrix, in the order replicas
// are added in the TPC-C experiments (Section 6.2): UE, UW, IE, SG, BR.
const (
	UE = iota
	UW
	IE
	SG
	BR
)

// table1RTT is the average RTT matrix between Amazon datacenters in
// milliseconds (Table 1 of the paper).
var table1RTT = [5][5]int64{
	{0, 64, 80, 243, 164},
	{64, 0, 170, 210, 227},
	{80, 170, 0, 285, 235},
	{243, 210, 285, 0, 372},
	{164, 227, 235, 372, 0},
}

var table1Names = []string{"UE", "UW", "IE", "SG", "BR"}

// EC2 builds the Table 1 topology truncated to the first n datacenters
// (2 <= n <= 5): UE, UW, IE, SG, BR.
func EC2(n int) *Topology {
	if n < 1 || n > 5 {
		panic(fmt.Sprintf("cluster: EC2 topology supports 1..5 sites, got %d", n))
	}
	t := &Topology{n: n, oneWay: make([][]rt.Duration, n)}
	for i := range t.oneWay {
		t.oneWay[i] = make([]rt.Duration, n)
		for j := range t.oneWay[i] {
			t.oneWay[i][j] = rt.Duration(table1RTT[i][j]) * rt.Millisecond / 2
		}
	}
	return t
}

// Table1String renders the RTT matrix like the paper's Table 1.
func Table1String() string {
	out := "      UE    UW    IE    SG    BR\n"
	for i := 0; i < 5; i++ {
		out += fmt.Sprintf("%-4s", table1Names[i])
		for j := 0; j < 5; j++ {
			if j < i {
				out += "     -"
			} else if i == j {
				out += "    <1"
			} else {
				out += fmt.Sprintf("  %4d", table1RTT[i][j])
			}
		}
		out += "\n"
	}
	return out
}
