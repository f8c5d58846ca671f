package workload

import (
	"fmt"
	"strconv"
	"strings"
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
// isomorphic transaction classes. Keys are generation-free by
// construction: a family key is the exact canonical structure encoding
// plus the site count and positional parameter bounds, all of which are
// immutable inputs of the analysis, so entries never go stale and the
// cache only ever grows by one family per distinct structure.
//
// The cache is safe for concurrent use; in practice registrations are
// serialized by the cluster lock and only the lazily built per-family
// artifacts see concurrency (negotiation-time model sampling).
type ArtifactCache struct {
	mu       sync.Mutex
	families map[string]*classFamily
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

// CompileL is CompileLClass through the cache. The boolean reports
// whether an existing family served the class (a cache hit).
func (ac *ArtifactCache) CompileL(src string, nSites int, bounds treaty.ParamBounds) (*Class, bool, error) {
	txns, err := lang.ParseProgram(src)
	if err != nil {
		return nil, false, fmt.Errorf("workload: parsing class source: %w", err)
	}
	if len(txns) != 1 {
		return nil, false, fmt.Errorf("workload: class source must contain exactly one transaction, got %d", len(txns))
	}
	lang.ResolveParams(txns[0])
	return ac.Compile(txns[0], nSites, bounds)
}

// CompileSQL is CompileSQLClass through the cache.
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
// cached and founding a new family otherwise.
func (ac *ArtifactCache) Compile(txn *lang.Transaction, nSites int, bounds treaty.ParamBounds) (*Class, bool, error) {
	// Validate exactly what NewClass validates, so a cache hit rejects
	// the same inputs scratch compilation rejects.
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
	canon := symtab.Canonicalize(lowered)
	key := familyKey(canon.Key, nSites, txn.Params, bounds)

	ac.mu.Lock()
	fam := ac.families[key]
	ac.mu.Unlock()
	if fam != nil {
		c, err := newClassFromFamily(fam, txn, lowered, canon, nSites, bounds)
		if err != nil {
			return nil, false, err
		}
		return c, true, nil
	}

	c, err := NewClass(txn, nSites, bounds)
	if err != nil {
		return nil, false, err
	}
	fam = &classFamily{rep: c, globals: make(map[string]famGlobal)}
	c.fam = fam
	c.canonObjs = canon.Objs
	ac.mu.Lock()
	if existing := ac.families[key]; existing == nil {
		ac.families[key] = fam
	}
	ac.mu.Unlock()
	return c, false, nil
}

// familyKey extends the canonical structure encoding with the remaining
// analysis inputs: site count and parameter bounds by declaration
// position (bounds strengthen guards, so families with different bounds
// must not share preprocessing).
func familyKey(canonKey string, nSites int, params []string, bounds treaty.ParamBounds) string {
	var sb strings.Builder
	sb.Grow(len(canonKey) + 16 + 24*len(params))
	sb.WriteString(canonKey)
	sb.WriteString("|n")
	sb.WriteString(strconv.Itoa(nSites))
	sb.WriteString("|b")
	for _, p := range params {
		if b, ok := bounds[p]; ok {
			sb.WriteString(strconv.FormatInt(b[0], 10))
			sb.WriteString(",")
			sb.WriteString(strconv.FormatInt(b[1], 10))
		} else {
			sb.WriteString("_")
		}
		sb.WriteString(";")
	}
	return sb.String()
}

// validateClassInputs mirrors NewClass's input checks (shared by the
// cache-hit path, which never reaches NewClass).
func validateClassInputs(txn *lang.Transaction, nSites int, bounds treaty.ParamBounds) error {
	if nSites <= 0 {
		return fmt.Errorf("workload: class %s: nSites must be positive", txn.Name)
	}
	if txn.Name == "" {
		return fmt.Errorf("workload: class has no transaction name")
	}
	for p := range bounds {
		found := false
		for _, q := range txn.Params {
			if q == p {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("workload: class %s: bound for unknown parameter %q", txn.Name, p)
		}
		if b := bounds[p]; b[0] > b[1] {
			return fmt.Errorf("workload: class %s: empty bound [%d,%d] for %q", txn.Name, b[0], b[1], p)
		}
	}
	return nil
}

// newClassFromFamily builds a member class from its family's shared
// artifacts: the representative's symbolic table is reused through the
// positional object mapping, the per-site replica rewrites are deferred
// until the workload model first samples (negotiation time), and guard
// preprocessing goes through the family memo in buildGlobal.
func newClassFromFamily(fam *classFamily, txn, lowered *lang.Transaction, canon symtab.Canon, nSites int, bounds treaty.ParamBounds) (*Class, error) {
	rep := fam.rep
	if len(canon.Objs) == 0 {
		return nil, fmt.Errorf("workload: class %s touches no database objects", txn.Name)
	}
	fromRep := make(map[lang.ObjID]lang.ObjID, len(canon.Objs))
	for i, obj := range canon.Objs {
		if base, site, ok := lang.IsDeltaObj(obj); ok {
			return nil, fmt.Errorf("workload: class %s: object %q collides with the delta encoding (%s@site%d)",
				txn.Name, obj, base, site)
		}
		fromRep[rep.canonObjs[i]] = obj
	}
	mapObjs := func(objs []lang.ObjID) []lang.ObjID {
		out := make([]lang.ObjID, len(objs))
		for i, obj := range objs {
			out[i] = fromRep[obj]
		}
		sortObjIDs(out)
		return out
	}
	c := &Class{
		Name:      txn.Name,
		Params:    append([]string(nil), txn.Params...),
		Bounds:    bounds,
		Source:    txn,
		Lowered:   lowered,
		nSites:    nSites,
		writes:    mapObjs(rep.writes),
		footprint: mapObjs(rep.footprint),
		table:     rep.table,
		pinned:    rep.pinned,
		pinReason: rep.pinReason,
		fam:       fam,
		canonObjs: canon.Objs,
		fromRep:   fromRep,
	}
	c.repArgs = make([]int64, len(c.Params))
	for i, p := range c.Params {
		if b, ok := bounds[p]; ok {
			c.repArgs[i] = b[0]
		}
	}
	c.bind()
	return c, nil
}
