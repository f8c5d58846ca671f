package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// manifest is BENCHMARK.json: the contract the benchmark is judged by,
// and the one place the regression bounds live.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	return m, dec.Decode(&m)
}

// resultSet is every untraced result found under one -compare argument.
type resultSet struct {
	values   map[string]map[string][]float64 // workload -> metric -> one value per run
	failRate map[string][]float64            // workload -> failed/attempted per run
}

func loadResults(path string) (resultSet, error) {
	set := resultSet{values: map[string]map[string][]float64{}, failRate: map[string][]float64{}}
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return set, err
	} else if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*-untraced-*.json")); err != nil {
			return set, err
		}
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return set, err
		}
		var res resultFile
		if err := json.Unmarshal(data, &res); err != nil {
			return set, fmt.Errorf("%s: %w", f, err)
		}
		if res.Pass != "untraced" {
			continue // a traced pass carries the tracing overhead: never compared
		}
		if set.values[res.Workload] == nil {
			set.values[res.Workload] = map[string][]float64{}
		}
		for _, metrics := range []map[string]metricOut{res.Metrics, res.Timings} {
			for name, m := range metrics {
				set.values[res.Workload][name] = append(set.values[res.Workload][name], m.Value)
			}
		}
		set.failRate[res.Workload] = append(set.failRate[res.Workload], float64(res.Failed)/float64(max(res.Attempted, 1)))
	}
	if len(set.values) == 0 {
		return set, fmt.Errorf("%s: no untraced result files", path)
	}
	return set, nil
}

// verdict places a change of a metric against its bound. worse is the
// relative change in the metric's bad direction. A spread (interquartile
// range over median, on either side) wider than the bound means the runs
// cannot resolve a change of the size the bound forbids. A metric without
// a bound (bound 0) is judged against the spread alone.
func verdict(old, new []float64, better string, bound float64) (v string, worse, spread float64) {
	mo, mn := median(old), median(new)
	worse = (mn - mo) / mo
	if better == "higher" {
		worse = -worse
	}
	for _, vs := range [][]float64{old, new} {
		if len(vs) >= 2 {
			spread = max(spread, relSpread(vs))
		}
	}
	limit := max(bound, spread)
	switch {
	case worse == 0:
		return "same", worse, spread
	case spread > bound && math.Abs(worse) <= limit:
		return "unresolved", worse, spread
	case worse > limit:
		return "worse", worse, spread
	case worse < -limit:
		return "better", worse, spread
	}
	return "same", worse, spread
}

// runCompare prints one row per (metric, workload) present on both sides,
// the bounded end-to-end metrics first and the load timings, which have
// no bound, after them. It returns the exit code: non-zero if a bounded
// row is worse or a workload fails more of its operations than before.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs OLD and NEW (result files or directories of them)")
		return 2
	}
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reading the bounds:", err)
		return 2
	}
	old, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	new, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	exit := 0
	names := make([]string, 0, len(old.values))
	for w := range old.values {
		if new.values[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	rows := m.EndToEnd
	for _, d := range loadTimings {
		rows = append(rows, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	fmt.Printf("%-10s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, w := range names {
		for _, def := range rows {
			o, n := old.values[w][def.Name], new.values[w][def.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			bound, shown := 0.0, "none"
			if def.Bound != nil {
				bound, shown = *def.Bound, fmt.Sprintf("%.0f%%", 100**def.Bound)
			}
			v, worse, spread := verdict(o, n, def.Better, bound)
			if v == "worse" && def.Bound != nil {
				exit = 1
			}
			fmt.Printf("%-10s %-18s %14.4f %14.4f %+8.1f%% %7.1f%% %7s  %s\n",
				w, def.Name, median(o), median(n), 100*worse, 100*spread, shown, v)
		}
		if fo, fn := median(old.failRate[w]), median(new.failRate[w]); fn > fo {
			fmt.Printf("%-10s failed operations rose from %.4f%% to %.4f%%\n", w, 100*fo, 100*fn)
			exit = 1
		}
	}
	fmt.Println("change is in each metric's bad direction: positive is worse; a row without a bound never fails the comparison")
	return exit
}
