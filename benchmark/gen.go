package main

import (
	"fmt"
	"math/rand"

	"repro/homeo"
	"repro/homeo/wire"
)

// The common inputs of every transaction workload: one class family,
//
//	Buy<k>(n) { v := read(stock<k>);
//	            if (v - n > 0) then write(stock<k> = v - n)
//	            else write(stock<k> = v - n + R) }
//
// with n in [1,3]. R is the only knob: a huge refill never violates its
// treaty (coordination-free commits only), a small one violates it about
// once every dozen purchases. Under a small refill the stocks of a site's
// classes start evenly spaced over (0, R], in a seeded order from a seeded
// offset: started level, all 64 classes would run out together and the
// rounds would come in waves for the whole run, and started at random,
// the number of rounds in a window would depend on the seed.
const (
	nClasses    = 64
	nSites      = 2
	argLo       = 1
	argHi       = 3
	refillNever = int64(1) << 40
	refillSync  = int64(100)
)

// buyClass is the k-th member of the Buy family with refill r and the
// given starting stock.
func buyClass(k int, r, stock int64) wire.ClassRequest {
	return wire.ClassRequest{
		L: fmt.Sprintf("transaction Buy%d(n) { v := read(stock%d); if (v - n > 0) then write(stock%d = v - n) else write(stock%d = v - n + %d) }",
			k, k, k, k, r),
		Bounds:  map[string][2]int64{"n": {argLo, argHi}},
		Initial: map[string]int64{fmt.Sprintf("stock%d", k): stock},
	}
}

// classSet is the 64 classes every transaction workload registers.
func classSet(r, seed int64) []wire.ClassRequest {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 11))
	out := make([]wire.ClassRequest, nClasses)
	const perSite = nClasses / nSites
	for site := 0; site < nSites; site++ {
		order, shift := rng.Perm(perSite), rng.Int63n(r)
		for j, i := range order {
			stock := r
			if r == refillSync {
				stock = 1 + (int64(j)*r/perSite+shift)%r
			}
			k := i*nSites + site // the classes a site's client buys, see reqGen
			out[k] = buyClass(k, r, stock)
		}
	}
	return out
}

func toSpec(r wire.ClassRequest) homeo.ClassSpec {
	return homeo.ClassSpec{Name: r.Name, L: r.L, SQL: r.SQL, Bounds: r.Bounds, Initial: r.Initial, Rows: r.Rows}
}

func toSpecs(rs []wire.ClassRequest) []homeo.ClassSpec {
	out := make([]homeo.ClassSpec, len(rs))
	for i, r := range rs {
		out[i] = toSpec(r)
	}
	return out
}

// classNames avoids formatting a name per request inside timed loops.
var classNames = func() [nClasses]string {
	var out [nClasses]string
	for k := range out {
		out[k] = fmt.Sprintf("Buy%d", k)
	}
	return out
}()

// reqGen draws the transaction stream of one client: classes in blocks,
// each block a fresh seeded shuffle of the client's classes, and a
// uniform argument. Every class is as likely as under independent draws,
// but is bought exactly once per block, so the number of treaty
// violations in a window depends on the seed far less than a run of lucky
// draws would make it.
//
// A client buys only the classes of its own site's half (k mod 2 = site).
// Two sites that violate the same treaty at the same instant refuse each
// other's round and back off for a multiple of the service time, which
// these workloads set to 1 ns: the duel would burn the engine's 100
// retries in a few milliseconds and one transaction would come back
// "livelocked". Disjoint halves make that impossible, and a workload on
// which no operation fails is what a benchmark needs.
//
// Each client owns one generator, seeded from the run seed and its
// index, so a seed fixes every request of every client.
type reqGen struct {
	rng   *rand.Rand
	block [nClasses / nSites]int
	pos   int
}

func newReqGen(seed int64, client int) *reqGen {
	g := &reqGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)))}
	for i := range g.block {
		g.block[i] = i*nSites + client%nSites
	}
	g.pos = len(g.block)
	return g
}

func (g *reqGen) next() (class int, n int64) {
	if g.pos == len(g.block) {
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	class = g.block[g.pos]
	g.pos++
	return class, argLo + g.rng.Int63n(argHi-argLo+1)
}

// Registration stream: nine in ten classes repeat one of regShapes
// recurring shapes (the analysis cache hits), one in ten has a shape of
// its own (a constant nobody else uses, so the cache misses): exactly one
// of every ten requests, at a seeded place among them, so the share of
// misses does not depend on the seed. The first regShapes requests walk
// the recurring shapes once, so a warm-up longer than that leaves only
// novel shapes to miss.
const regShapes = 8

type regGen struct {
	rng   *rand.Rand
	i     int
	novel int // which request of the current ten has a shape of its own
}

func newRegGen(seed int64) *regGen {
	return &regGen{rng: rand.New(rand.NewSource(seed*1_000_003 + 7))}
}

// next returns the i-th class to register and whether its shape is novel.
func (g *regGen) next() (req wire.ClassRequest, novel bool) {
	i := g.i
	g.i++
	if i%10 == 0 {
		g.novel = g.rng.Intn(10)
	}
	switch {
	case i < regShapes:
		return regClass(i, int64(i)), true // first occurrence of a recurring shape
	case i%10 == g.novel:
		return regClass(i, novelShape+int64(i)), true
	}
	return regClass(i, int64(g.rng.Intn(regShapes))), false
}

// novelShape and up are shapes used by one class only.
const novelShape = 1000

// regClass is the i-th registered class, of the given shape: a guarded
// purchase like Buy, whose two constants derive from the shape, so two
// classes are isomorphic to the analysis exactly when their shapes are
// equal.
func regClass(i int, shape int64) wire.ClassRequest {
	floor, refill := shape, 100+shape
	return wire.ClassRequest{
		L: fmt.Sprintf("transaction Reg%d(n) { v := read(item%d); if (v - n > %d) then write(item%d = v - n) else write(item%d = v - n + %d) }",
			i, i, floor, i, i, refill),
		Bounds:  map[string][2]int64{"n": {argLo, argHi}},
		Initial: map[string]int64{fmt.Sprintf("item%d", i): floor + refill},
	}
}
