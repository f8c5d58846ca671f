// Command homeostasis-analyze is the paper's offline component
// (Section 5.1) as a CLI: it parses L++ transactions, computes symbolic
// tables, and — given an initial database — derives the global treaty and
// per-site local treaties.
//
// Usage:
//
//	homeostasis-analyze -file txns.lpp
//	homeostasis-analyze -file txns.lpp -db 'x=10,y=13' -sites 2 -place 'x=0,y=1'
//	echo 'transaction T() { ... }' | homeostasis-analyze
//
// With -db, the tool joins the symbolic tables of all transactions,
// matches the row the database satisfies, preprocesses its guard into
// linear constraints, splits it into per-site templates (objects are
// placed per -place, defaulting to site 0), and prints the default,
// equal-split, and (when -optimize is set) Algorithm 1 optimized local
// treaties.
//
// With -wal, the tool instead prints a site's write-ahead log as JSON,
// one object per record — the human-readable rendering of a log whose
// only machine encoding is binary:
//
//	homeostasis-analyze -wal /var/lib/homeo/site-0.wal
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/lang"
	"repro/internal/symtab"
	"repro/internal/treaty"
	"repro/internal/wal"
)

func main() {
	var (
		file     = flag.String("file", "", "L++ source file (default: stdin)")
		dbSpec   = flag.String("db", "", "initial database, e.g. 'x=10,y=13'")
		sites    = flag.Int("sites", 2, "number of sites for treaty splitting")
		place    = flag.String("place", "", "object placement, e.g. 'x=0,y=1' (default: all on site 0)")
		optimize = flag.Bool("optimize", false, "also run the Algorithm 1 optimizer with a random-walk model")
		walFile  = flag.String("wal", "", "dump this write-ahead log file as JSON, one object per record, and exit")
	)
	flag.Parse()

	if *walFile != "" {
		if err := dumpWAL(os.Stdout, *walFile); err != nil {
			fatal(err)
		}
		return
	}
	src, err := readSource(*file)
	if err != nil {
		fatal(err)
	}
	txns, err := lang.ParseProgram(src)
	if err != nil {
		fatal(err)
	}
	var tables []*symtab.Table
	for _, t := range txns {
		tbl, err := symtab.Build(t)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, tbl)
		fmt.Println(tbl)
	}

	if *dbSpec == "" {
		return
	}
	db, err := parseAssignments(*dbSpec)
	if err != nil {
		fatal(err)
	}
	placeMap, err := parseAssignments(*place)
	if err != nil {
		fatal(err)
	}
	placement := func(obj lang.ObjID) int { return int(placeMap[obj]) }

	// Independence groups keep joint tables small (Section 5.1).
	groups := symtab.FactorGroups(tables)
	for gi, grp := range groups {
		jt := symtab.Join(grp.Tables...)
		fmt.Printf("--- group %d (%d transactions, %d joint rows) ---\n",
			gi, len(grp.Tables), jt.Size())
		row, err := jt.MatchRow(db, nil)
		if err != nil {
			fmt.Printf("  no row matches the database (transactions may need parameters): %v\n", err)
			continue
		}
		psi := jt.Rows[row].Guard
		fmt.Printf("  matched row %d: psi = %s\n", row, psi)
		g, err := treaty.Preprocess(psi, db, nil, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  global treaty: %s\n", g)
		tmpl, err := treaty.BuildTemplate(g, *sites, placement)
		if err != nil {
			fatal(err)
		}
		printConfig := func(name string, cfg treaty.Config) {
			if err := tmpl.Validate(cfg, db); err != nil {
				fmt.Printf("  %s: INVALID: %v\n", name, err)
				return
			}
			locals, _ := tmpl.LocalTreaties(cfg)
			fmt.Printf("  %s:\n", name)
			for _, l := range locals {
				fmt.Printf("    %s\n", l)
			}
		}
		printConfig("default configuration (Theorem 4.3)", tmpl.DefaultConfig(db))
		printConfig("equal-split configuration (demarcation/OPT)", tmpl.AdaptiveConfig(db, nil))
		if *optimize {
			cfg, stats := treaty.Optimize(tmpl, db, randomWalkModel{}, treaty.OptimizeOptions{
				Lookahead:  20,
				CostFactor: 3,
				Rng:        rand.New(rand.NewSource(1)),
			})
			printConfig(fmt.Sprintf("optimized configuration (Algorithm 1, %d/%d soft satisfied)",
				stats.SoftSatisfied, stats.SoftTotal), cfg)
		}
	}
}

// dumpWAL prints every record of the log's valid prefix as one JSON
// object: its index, kind, and decoded fields — or, for a record that
// does not decode, the error, after which the dump continues. Bytes past
// the valid prefix (a torn tail) are reported on the last line.
func dumpWAL(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type line struct {
		Index  int    `json:"index"`
		Kind   string `json:"kind"`
		Record any    `json:"record,omitempty"`
		Error  string `json:"error,omitempty"`
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // "<=" is for a person to read
	valid, err := wal.Frames(data, func(i int, r wal.Record) error {
		out := line{Index: i, Kind: r.Kind.String()}
		if rec, err := r.Decode(); err != nil {
			out.Error = err.Error()
		} else {
			out.Record = rec
		}
		return enc.Encode(out)
	})
	if err != nil {
		return err
	}
	if valid < len(data) {
		return enc.Encode(map[string]int{"torn_tail_bytes": len(data) - valid})
	}
	return nil
}

// randomWalkModel perturbs each object by ±1 per step — a generic stand-in
// workload model for ad-hoc analysis.
type randomWalkModel struct{}

func (randomWalkModel) SampleFuture(rng *rand.Rand, db lang.Database, l int, visit func(lang.Database)) {
	cur := db.Clone()
	objs := cur.Objects()
	if len(objs) == 0 {
		return
	}
	for i := 0; i < l; i++ {
		obj := objs[rng.Intn(len(objs))]
		cur[obj] += int64(rng.Intn(3) - 1)
		visit(cur)
	}
}

func readSource(file string) (string, error) {
	if file == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(file)
	return string(b), err
}

// parseAssignments parses "x=10,y=13" into a database/int map.
func parseAssignments(spec string) (lang.Database, error) {
	out := lang.Database{}
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad assignment %q", part)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(kv[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", part, err)
		}
		out[lang.ObjID(strings.TrimSpace(kv[0]))] = v
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "homeostasis-analyze:", err)
	os.Exit(1)
}
