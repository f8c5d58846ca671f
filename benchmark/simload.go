package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/homeo"
)

// simLoad is the simcore workload: the sync workload's classes (refill
// 100) on the deterministic simulator, driven by Session.Submit from one
// goroutine alternating sites, commit log on, no WAL. It runs the same
// homeostasis, store and treaty code as fastpath and sync with no HTTP,
// no live scheduler and no real sleeps, so for a fixed seed its counts
// repeat exactly.
type simLoad struct {
	cfg      config
	c        *homeo.Cluster
	classes  []*homeo.TxnClass
	sessions [nSites]*homeo.Session
	gens     [nSites]*reqGen
}

func newSimLoad(cfg config) *simLoad { return &simLoad{cfg: cfg} }

// simCluster boots the simulated cluster every sim-based piece of the
// benchmark uses; walDir is empty for no WAL.
func simCluster(seed int64, refill int64, walDir string) (*homeo.Cluster, []*homeo.TxnClass, error) {
	c, err := homeo.New(homeo.Options{
		Runtime:       homeo.RuntimeSim,
		Sites:         nSites,
		LocalExecTime: time.Nanosecond, // 0 would select the 2 ms default
		CPUPerSite:    64,
		Seed:          seed,
		EnableLog:     true,
		WAL:           homeo.WALOptions{Dir: walDir},
	})
	if err != nil {
		return nil, nil, err
	}
	classes, err := c.RegisterBatch(toSpecs(classSet(refill, seed)))
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, classes, nil
}

func (l *simLoad) setup() error {
	c, classes, err := simCluster(l.cfg.seed, refillSync, "")
	if err != nil {
		return err
	}
	l.c, l.classes = c, classes
	for s := range l.sessions {
		if l.sessions[s], err = c.SessionAt(s); err != nil {
			return err
		}
	}
	for s := range l.gens {
		l.gens[s] = newReqGen(l.cfg.seed, s)
	}
	ctx := context.Background()
	for i := 0; i < l.cfg.scale(5000, 500); i++ {
		k, n := l.gens[i%nSites].next()
		if res, err := l.sessions[i%nSites].Submit(ctx, l.classes[k], n); err != nil || !res.Committed {
			return fmt.Errorf("warm-up submit %d: committed=%v err=%v", i, res.Committed, err)
		}
	}
	return nil
}

// measure runs episodes until the window is used up. An episode is a
// fixed number of submissions on a fresh setup, followed by the replay
// check; only the submissions are timed. The commit log grows with every
// commit, so fixed episodes keep memory (and the cost of collecting it)
// independent of how fast the system is. Every episode replays the
// same seeded stream, so its counts are the same every time.
func (l *simLoad) measure(d time.Duration, r *run) error {
	perEpisode := l.cfg.scale(100000, 2000)
	samples := make([]sample, 0, 1<<20)
	var timed cost
	deadline := time.Now().Add(d)
	for episode := 0; episode == 0 || time.Now().Before(deadline); episode++ {
		if episode > 0 {
			if err := r.setUp(l); err != nil {
				return err
			}
		}
		counters := beginCounters(l.c)
		c := l.episode(perEpisode, &samples, r)
		timed.add(c)
		r.rates = append(r.rates, float64(perEpisode)/c.wall.Seconds())
		if episode == 0 {
			counters.report(r)
		}
		if err := l.c.CheckReplayEquivalence(); err != nil {
			fmt.Println("  replay:", err)
			r.fail("serial replay diverged", 1)
		}
	}
	r.observe(len(samples), latenciesUS(samples, all), timed)
	r.tails(samples)
	return nil
}

// episode submits n transactions from one goroutine, alternating sites.
func (l *simLoad) episode(n int, samples *[]sample, r *run) cost {
	ctx := context.Background()
	bad := map[string]int{}
	runtime.GC()
	before := takeUsage()
	now := before.at
	for i := 0; i < n; i++ {
		k, arg := l.gens[i%nSites].next()
		res, err := l.sessions[i%nSites].Submit(ctx, l.classes[k], arg)
		end := time.Now()
		switch {
		case err != nil:
			bad["submit error"]++
		case !res.Committed:
			bad["not committed"]++
		}
		*samples = append(*samples, sample{at: end.Sub(epoch), lat: end.Sub(now), slow: res.Synced})
		now = end
	}
	after := takeUsage()
	r.attempted += n
	for cause, c := range bad {
		r.fail(cause, c)
	}
	return after.since(before)
}

func (l *simLoad) teardown() {
	if l.c != nil {
		l.c.Close()
		l.c = nil
	}
}
