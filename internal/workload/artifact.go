package workload

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/lang"
	"repro/internal/sqlfront"
	"repro/internal/symtab"
	"repro/internal/treaty"
)

// famGlobalBound caps each family's preprocessed-Global memo; past it
// the memo is cleared (misses recompute deterministically, so clearing
// only costs time).
const famGlobalBound = 128

// classFamily is the shared analysis-artifact set of one isomorphism
// class of transactions: all members differ only in transaction,
// parameter, temporary, and object names (symtab.Canonicalize). The
// first-registered member is the representative; its symbolic table
// serves every member through the positional object mapping, and its
// guard preprocessing results are memoized per distinct folded-value
// vector so re-deriving a member's global treaty is a rename, not a
// re-analysis.
type classFamily struct {
	rep *Class

	mu sync.Mutex
	// globals memoizes rep-namespace preprocessed globals keyed by the
	// folded values in canonical object order. ok=false records a
	// preprocessing failure at those values (the member pins).
	globals map[string]famGlobal
}

type famGlobal struct {
	g  treaty.Global
	ok bool
}

// ArtifactCache shares registration-time analysis artifacts across
// isomorphic transaction classes, and is the only way a class is built.
// Keys are generation-free by construction: a family key is the exact
// canonical structure encoding plus the site count and positional
// parameter bounds, all of which are immutable inputs of the analysis, so
// entries never go stale and the cache only ever grows by one family per
// distinct structure.
//
// The cache is safe for concurrent use; in practice registrations are
// serialized by the cluster lock and only the lazily built per-family
// artifacts see concurrency (negotiation-time model sampling).
type ArtifactCache struct {
	mu       sync.Mutex
	families map[string]*classFamily
	// canon and key are what a lookup encodes a family key with, reused
	// from one Compile to the next: nine registrations in ten find their
	// family, and for those no key is ever built.
	canon symtab.Canonicalizer
	key   []byte
}

// NewArtifactCache returns an empty cache.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{families: make(map[string]*classFamily)}
}

// Families reports the number of distinct structure families cached.
func (ac *ArtifactCache) Families() int {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return len(ac.families)
}

// CompileL parses an L/L++ source containing exactly one transaction and
// compiles it. The boolean reports whether an existing family served the
// class (a cache hit).
func (ac *ArtifactCache) CompileL(src string, nSites int, bounds treaty.ParamBounds) (*Class, bool, error) {
	txns, err := lang.ParseProgram(src)
	if err != nil {
		return nil, false, fmt.Errorf("workload: parsing class source: %w", err)
	}
	if len(txns) != 1 {
		return nil, false, fmt.Errorf("workload: class source must contain exactly one transaction, got %d", len(txns))
	}
	return ac.Compile(txns[0], nSites, bounds)
}

// CompileSQL compiles a sqlfront script (CREATE TABLE + DML) into a class
// named name. The class carries the relational schema so callers can load
// initial rows with sqlfront.LoadRow.
func (ac *ArtifactCache) CompileSQL(name, script string, nSites int, bounds treaty.ParamBounds) (*Class, bool, error) {
	if name == "" {
		return nil, false, fmt.Errorf("workload: SQL class needs a name")
	}
	txn, schema, err := sqlfront.Compile(name, script)
	if err != nil {
		return nil, false, err
	}
	c, hit, err := ac.Compile(txn, nSites, bounds)
	if err != nil {
		return nil, false, err
	}
	c.Schema = schema
	return c, hit, nil
}

// Compile analyzes txn into a class, serving the symbolic table and
// guard preprocessing from an existing isomorphic family when one is
// cached and founding a new family otherwise. The transaction may use L++
// arrays (they are lowered, once, here); bounds may be nil when it has no
// parameters or their values do not reach branch guards.
func (ac *ArtifactCache) Compile(txn *lang.Transaction, nSites int, bounds treaty.ParamBounds) (*Class, bool, error) {
	// One validation for a hit and a miss alike, so both reject the same
	// inputs.
	if err := validateClassInputs(txn, nSites, bounds); err != nil {
		return nil, false, err
	}
	lowered := txn
	if len(txn.Arrays) > 0 {
		var err error
		lowered, err = lang.Lower(txn)
		if err != nil {
			return nil, false, fmt.Errorf("workload: class %s: %w", txn.Name, err)
		}
	}
	// The family key — canonical structure, then the remaining analysis
	// inputs — is encoded into the cache's buffer and the map is probed with
	// the buffer itself; only a class that founds a family keeps a copy.
	ac.mu.Lock()
	var objs []lang.ObjID
	ac.key, objs = ac.canon.AppendKey(ac.key[:0], lowered)
	ac.key = appendFamilyInputs(ac.key, nSites, txn.Params, bounds)
	if fam := ac.families[string(ac.key)]; fam != nil {
		c, err := newClassFromFamily(fam, txn, lowered, objs, nSites, bounds)
		ac.mu.Unlock()
		return c, err == nil, err
	}
	key, objs := string(ac.key), slices.Clone(objs)
	ac.mu.Unlock()

	c, err := newClass(txn, lowered, nSites, bounds)
	if err != nil {
		return nil, false, err
	}
	fam := &classFamily{rep: c, globals: make(map[string]famGlobal)}
	c.fam = fam
	c.canonObjs = objs
	ac.mu.Lock()
	if existing := ac.families[key]; existing == nil {
		ac.families[key] = fam
	}
	ac.mu.Unlock()
	return c, false, nil
}

// appendFamilyInputs extends the canonical structure encoding with the
// remaining analysis inputs: site count and parameter bounds by declaration
// position (bounds strengthen guards, so families with different bounds
// must not share preprocessing).
func appendFamilyInputs(key []byte, nSites int, params []string, bounds treaty.ParamBounds) []byte {
	key = strconv.AppendInt(append(key, "|n"...), int64(nSites), 10)
	key = append(key, "|b"...)
	for _, p := range params {
		if b, ok := bounds[p]; ok {
			key = strconv.AppendInt(key, b[0], 10)
			key = strconv.AppendInt(append(key, ','), b[1], 10)
		} else {
			key = append(key, '_')
		}
		key = append(key, ';')
	}
	return key
}

// validateClassInputs checks what a class's analysis takes besides the
// transaction's structure: the site count, the name, and the bounds.
func validateClassInputs(txn *lang.Transaction, nSites int, bounds treaty.ParamBounds) error {
	if nSites <= 0 {
		return fmt.Errorf("workload: class %s: nSites must be positive", txn.Name)
	}
	if txn.Name == "" {
		return fmt.Errorf("workload: class has no transaction name")
	}
	for p, b := range bounds {
		if !slices.Contains(txn.Params, p) {
			return fmt.Errorf("workload: class %s: bound for unknown parameter %q", txn.Name, p)
		}
		if b[0] > b[1] {
			return fmt.Errorf("workload: class %s: empty bound [%d,%d] for %q", txn.Name, b[0], b[1], p)
		}
	}
	return nil
}

// newClassFromFamily builds a member class from its family's shared
// artifacts: the representative's symbolic table is reused through the
// positional object mapping, the per-site replica rewrites are deferred
// until the workload model first samples (negotiation time), and guard
// preprocessing goes through the family memo in buildGlobal. canonObjs is
// the member's objects in canonical order, copied here.
//
// What a member owns is sized once: its three object lists share one
// allocation, and what the family key fixes — the representative
// arguments are the positional lower bounds, which are part of the key —
// is the representative's, read-only.
func newClassFromFamily(fam *classFamily, txn, lowered *lang.Transaction, canonObjs []lang.ObjID, nSites int, bounds treaty.ParamBounds) (*Class, error) {
	rep := fam.rep
	n := len(canonObjs)
	if n == 0 {
		return nil, fmt.Errorf("workload: class %s touches no database objects", txn.Name)
	}
	objs := make([]lang.ObjID, n+len(rep.writes)+len(rep.footprint))
	copy(objs, canonObjs)
	canonObjs, objs = objs[:n:n], objs[n:]
	fromRep := make(map[lang.ObjID]lang.ObjID, n)
	for i, obj := range canonObjs {
		if base, site, ok := lang.IsDeltaObj(obj); ok {
			return nil, fmt.Errorf("workload: class %s: object %q collides with the delta encoding (%s@site%d)",
				txn.Name, obj, base, site)
		}
		fromRep[rep.canonObjs[i]] = obj
	}
	mapObjs := func(repObjs []lang.ObjID) []lang.ObjID {
		out := objs[:len(repObjs):len(repObjs)]
		objs = objs[len(repObjs):]
		for i, obj := range repObjs {
			out[i] = fromRep[obj]
		}
		slices.Sort(out)
		return out
	}
	c := &Class{
		Name:      txn.Name,
		Params:    txn.Params,
		Bounds:    bounds,
		Source:    txn,
		Lowered:   lowered,
		nSites:    nSites,
		writes:    mapObjs(rep.writes),
		footprint: mapObjs(rep.footprint),
		table:     rep.table,
		repArgs:   rep.repArgs,
		pinned:    rep.pinned,
		pinReason: rep.pinReason,
		fam:       fam,
		canonObjs: canonObjs,
		fromRep:   fromRep,
	}
	c.bind()
	return c, nil
}
