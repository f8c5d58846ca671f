package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/homeo"
	"repro/homeo/wire"
	"repro/internal/lang"
)

// recoverLoad is the recover workload. Set-up runs a simulated cluster
// with a write-ahead log through a fixed number of submissions and then
// takes its crash image: the log files are copied as they stand, without
// closing the logs, so the image holds exactly what had been flushed.
// The measured window boots an identical cluster on a copy of the image
// and times Recover(), over and over; every pass recovers the same bytes.
type recoverLoad struct {
	cfg      config
	dir      string // scratch root
	commits  int    // acknowledged by the crashed incarnation
	rounds   int
	wantLog  int
	wantPart []lang.Database
	image    walCounts
	buildSec float64
}

func newRecoverLoad(cfg config) *recoverLoad {
	return &recoverLoad{cfg: cfg, dir: filepath.Join(cfg.outDir, "wal-recover")}
}

func (l *recoverLoad) imageDir() string { return filepath.Join(l.dir, "image") }

func (l *recoverLoad) setup() error {
	if err := os.RemoveAll(l.dir); err != nil {
		return err
	}
	live := filepath.Join(l.dir, "live")
	for _, d := range []string{live, l.imageDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	t0 := time.Now()
	c, classes, err := simCluster(l.cfg.seed, refillSync, live)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Recover(); err != nil { // first boot: opens the empty logs
		return err
	}
	var sessions [nSites]*homeo.Session
	for s := range sessions {
		if sessions[s], err = c.SessionAt(s); err != nil {
			return err
		}
	}
	var gens [nSites]*reqGen
	for s := range gens {
		gens[s] = newReqGen(l.cfg.seed, s)
	}
	ctx := context.Background()
	l.commits, l.rounds = l.cfg.scale(100000, 3000), 0
	for i := 0; i < l.commits; i++ {
		k, n := gens[i%nSites].next()
		res, err := sessions[i%nSites].Submit(ctx, classes[k], n)
		if err != nil || !res.Committed {
			return fmt.Errorf("building the log: submit %d: committed=%v err=%v", i, res.Committed, err)
		}
		if res.Synced {
			l.rounds++
		}
	}
	l.buildSec = time.Since(t0).Seconds()
	l.wantLog = c.Committed()
	l.wantPart = make([]lang.Database, nSites)
	for s := range l.wantPart {
		l.wantPart[s] = c.System().PartitionDB(s)
	}
	// The crash. A commit is acknowledged before its group-commit timer
	// (2 ms) has flushed it, so wait until the files have stopped growing:
	// the image then holds every acknowledged commit, the workload loses
	// none, and its byte count repeats exactly.
	if err := waitQuiet(live); err != nil {
		return err
	}
	l.image = walCounts{}
	for s := 0; s < nSites; s++ {
		name := fmt.Sprintf("site-%d.wal", s)
		if err := copyFile(filepath.Join(live, name), filepath.Join(l.imageDir(), name)); err != nil {
			return err
		}
		counts, err := scanWAL(filepath.Join(l.imageDir(), name))
		if err != nil {
			return err
		}
		l.image.add(counts)
	}
	return nil
}

// waitQuiet returns once no file in dir has changed size for 20 ms.
func waitQuiet(dir string) error {
	size := func() (int64, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		var total int64
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
		return total, nil
	}
	last, err := size()
	for quiet := 0; err == nil && quiet < 4; {
		time.Sleep(5 * time.Millisecond)
		var now int64
		if now, err = size(); now == last {
			quiet++
		} else {
			last, quiet = now, 0
		}
	}
	return err
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		_ = dst.Close()
		return err
	}
	return dst.Close()
}

func (l *recoverLoad) measure(d time.Duration, r *run) error {
	var passUS []float64
	var timed cost
	records := 0
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		dir := filepath.Join(l.dir, "boot")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for s := 0; s < nSites; s++ {
			name := fmt.Sprintf("site-%d.wal", s)
			if err := copyFile(filepath.Join(l.imageDir(), name), filepath.Join(dir, name)); err != nil {
				return err
			}
		}
		c, _, err := simCluster(l.cfg.seed, refillSync, dir)
		if err != nil {
			return err
		}
		runtime.GC()
		before := takeUsage()
		n, err := c.Recover()
		pass := takeUsage().since(before)
		r.attempted++
		if err != nil {
			fmt.Println("  recover:", err)
			r.fail("Recover() failed", 1)
		} else {
			l.verify(c, n, i == 0, r)
		}
		c.Close()
		timed.add(pass)
		passUS = append(passUS, float64(pass.wall)/1e3)
		r.rates = append(r.rates, float64(l.commits)/pass.wall.Seconds())
		records = n
	}
	// An operation here is one commit brought back; the latency shown is
	// that of a whole Recover() call, the thing a restarting site waits for.
	r.observe(len(passUS)*l.commits, passUS, timed)

	r.layer["homeostasis.sync_ratio_pct"] = reading{100 * float64(l.rounds) / float64(l.commits), l.commits}
	r.layer["homeostasis.rounds"] = reading{float64(l.rounds), 1}
	if records > 0 {
		r.layer["homeostasis.recover_us_per_record"] = reading{median(passUS) / float64(records), len(passUS)}
	}
	r.layer["wal.build_txn_s"] = reading{float64(l.commits) / l.buildSec, 1}
	l.image.report(r, l.commits, l.rounds)
	return nil
}

// verify holds a recovered incarnation against the one that crashed: no
// acknowledged commit lost, every site's partition as it was, and (once,
// it is the slow part) the recovered log replays to the recovered state.
func (l *recoverLoad) verify(c *homeo.Cluster, records int, replay bool, r *run) {
	if records != l.image.records {
		r.fail("Recover() replayed fewer records than the image holds", 1)
	}
	if got := c.Committed(); got < l.wantLog {
		r.fail("acknowledged commits lost", l.wantLog-got)
	}
	parts := make([]wire.PartitionResponse, nSites)
	for s := range parts {
		db := c.System().PartitionDB(s)
		if !reflect.DeepEqual(db, l.wantPart[s]) {
			r.fail("recovered partition differs from the crashed one", 1)
		}
		parts[s] = wire.PartitionResponse{Site: s, Values: map[string]int64{}}
		for obj, v := range db {
			parts[s].Values[string(obj)] = v
		}
	}
	if !replay {
		return
	}
	if err := c.CheckMergedReplay([][]wire.LogEntry{c.WireLog()}, parts); err != nil {
		fmt.Println("  replay:", err)
		r.fail("recovered log does not replay to the recovered state", 1)
	}
}

func (l *recoverLoad) teardown() { _ = os.RemoveAll(l.dir) }
