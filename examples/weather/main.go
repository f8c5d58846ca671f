// Weather: the Appendix D example beyond top-k — "top-k of minimums".
// A monitoring application records temperature observations per day and
// displays the record (lowest) daily minimum. The paper argues these
// treaties are linear but already painful to derive by hand; here the
// analysis derives them automatically: recording a temperature above the
// day's current minimum never changes any output, so sites holding
// different days can stay silent for most observations.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/lang"
	"repro/internal/symtab"
	"repro/internal/treaty"
)

// recordSrc updates one day's minimum and maintains the global record
// low across days (top-1 of minimums). Days are a bounded L++ array.
const recordSrc = `
transaction Record(d, t) {
	array dmin(3);
	cur := dmin(d);
	if (t < cur) then {
		write(dmin(d) = t);
		rec := read(record);
		if (t < rec) then {
			write(record = t);
			print(t)
		} else
			skip
	} else
		skip
}`

func main() {
	txn := lang.MustParse(recordSrc)
	tbl, err := symtab.Build(txn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("symbolic table for Record has %d rows (day x branch combinations)\n\n", len(tbl.Rows))

	// Current state: three days of minima and the record low.
	db := lang.Database{
		lang.ArrayObj("dmin", 0): 12,
		lang.ArrayObj("dmin", 1): 7,
		lang.ArrayObj("dmin", 2): 15,
		"record":                 7,
	}
	fmt.Printf("daily minima: %d / %d / %d, record low: %d\n\n",
		db[lang.ArrayObj("dmin", 0)], db[lang.ArrayObj("dmin", 1)],
		db[lang.ArrayObj("dmin", 2)], db["record"])

	// For each day, derive the treaty governing silent observations:
	// match the row for a representative harmless observation, then
	// strengthen over the sensor range [-40, 60] (Appendix C.1 parameter
	// bounds). The result is the per-day linear constraint the paper says
	// is "nontrivial to infer manually".
	for day := int64(0); day < 3; day++ {
		params := map[string]int64{"d": day, "t": 60} // warm reading: silent row
		row, err := tbl.MatchRow(db, params)
		if err != nil {
			log.Fatal(err)
		}
		g, err := treaty.Preprocess(tbl.Rows[row].Guard, db, params,
			treaty.ParamBounds{"d": {day, day}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d silent-region treaty: %s\n", day, g)
	}
	fmt.Println()

	// Place each day's data on its own site (the paper's "each list is
	// stored on a different site") and validate a default split of the
	// joint silent region.
	place := func(obj lang.ObjID) int {
		for d := int64(0); d < 3; d++ {
			if obj == lang.ArrayObj("dmin", d) {
				return int(d)
			}
		}
		return 0 // the record low lives with day 0
	}
	// The joint silent region: every day's reading stays above its
	// minimum. Build it from the analysis for a representative day and
	// combine.
	var all []treaty.Global
	for day := int64(0); day < 3; day++ {
		params := map[string]int64{"d": day, "t": 60}
		row, _ := tbl.MatchRow(db, params)
		g, err := treaty.Preprocess(tbl.Rows[row].Guard, db, params, treaty.ParamBounds{"d": {day, day}})
		if err != nil {
			log.Fatal(err)
		}
		all = append(all, g)
	}
	joint := treaty.Global{}
	for _, g := range all {
		joint.Constraints = append(joint.Constraints, g.Constraints...)
	}
	tmpl, err := treaty.BuildTemplate(joint, 3, place)
	if err != nil {
		log.Fatal(err)
	}
	cfg := tmpl.DefaultConfig(db)
	if err := tmpl.Validate(cfg, db); err != nil {
		log.Fatal(err)
	}
	locals, _ := tmpl.LocalTreaties(cfg)
	fmt.Println("per-site local treaties (each day on its own site):")
	for _, l := range locals {
		fmt.Printf("  %s\n", l)
	}
	fmt.Println()

	// Verify the analysis against execution on a simulated stream: the
	// silent guard must hold exactly when the record display would not
	// change.
	rng := rand.New(rand.NewSource(2))
	silent, synced := 0, 0
	for i := 0; i < 2000; i++ {
		day := int64(rng.Intn(3))
		temp := int64(rng.Intn(101) - 40)
		params := map[string]int64{"d": day, "t": temp}
		row, err := tbl.MatchRow(db, params)
		if err != nil {
			log.Fatal(err)
		}
		res, err := tbl.EvalResidual(row, db, day, temp)
		if err != nil {
			log.Fatal(err)
		}
		if res.DB.Equal(db) && len(res.Log) == 0 {
			silent++
		} else {
			synced++
			db = res.DB
		}
	}
	fmt.Printf("2000 observations: %d silent (%.1f%%), %d required coordination\n",
		silent, float64(silent)/20, synced)
	fmt.Printf("final record low: %d\n", db.Get("record"))
}
