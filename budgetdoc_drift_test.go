package repro_test

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRoundBudgetMatchesLedger holds docs/ARCHITECTURE.md's "The round
// budget" to BENCH_hotpath.json: the table's round row and the budget the
// prose quotes for TestRoundAllocs are the allocs/round the ledger records
// for BenchmarkSubmitExecCommit/Round/Sim — the baseline CI's allocation
// gate reads. A new record cannot leave the section behind.
func TestRoundBudgetMatchesLedger(t *testing.T) {
	doc, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## The round budget\n")
	section, _, _ = strings.Cut(section, "\n## ")

	data, err := os.ReadFile("BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Baselines map[string]struct {
			After struct {
				AllocsRound *float64 `json:"allocs_round"`
			} `json:"after"`
		} `json:"baselines"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	recorded := ledger.Baselines["BenchmarkSubmitExecCommit/Round/Sim"].After.AllocsRound
	if recorded == nil {
		t.Fatal("BENCH_hotpath.json records no baselines.BenchmarkSubmitExecCommit/Round/Sim.after.allocs_round")
	}

	for _, quote := range []struct {
		what string
		re   *regexp.Regexp
	}{
		{"the round row of the table", regexp.MustCompile(`(?m)^\| \*\*round, measured window\*\*[^|]*\|[^|]*\| \*\*([0-9.]+)\*\* \|`)},
		{"TestRoundAllocs' budget", regexp.MustCompile("memo hitting ([0-9.]+) \\(`TestRoundAllocs`")},
	} {
		m := quote.re.FindStringSubmatch(section)
		if m == nil {
			t.Errorf("docs/ARCHITECTURE.md, \"The round budget\": %s is not found (%s)", quote.what, quote.re)
			continue
		}
		if v, err := strconv.ParseFloat(m[1], 64); err != nil || v != *recorded {
			t.Errorf("docs/ARCHITECTURE.md, \"The round budget\": %s reads %s, BENCH_hotpath.json records %v",
				quote.what, m[1], *recorded)
		}
	}
}
