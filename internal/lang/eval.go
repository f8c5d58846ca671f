package lang

import (
	"fmt"
	"math/bits"
	"slices"
)

// Database maps objects to integer values. Objects not present are
// associated with the null default value 0 (Section 2.1: a database is a
// map from objects to integers with finite support).
type Database map[ObjID]int64

// Clone returns a deep copy of the database.
func (d Database) Clone() Database {
	out := make(Database, len(d))
	for k, v := range d {
		out[k] = v
	}
	return out
}

// Get returns the value of obj, 0 if absent.
func (d Database) Get(obj ObjID) int64 { return d[obj] }

// Set stores v into obj.
func (d Database) Set(obj ObjID, v int64) { d[obj] = v }

// Equal reports whether two databases denote the same map (treating
// missing objects as 0).
func (d Database) Equal(other Database) bool {
	for k, v := range d {
		if other[k] != v {
			return false
		}
	}
	for k, v := range other {
		if d[k] != v {
			return false
		}
	}
	return true
}

// Objects returns the sorted list of objects with explicit entries.
func (d Database) Objects() []ObjID {
	out := make([]ObjID, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Env is the evaluation environment of a single transaction run: the
// database being read and written, bound parameter values, and temporary
// variable bindings.
type Env struct {
	DB     Database
	Params map[string]int64
	Temps  map[string]int64
	Log    []int64

	// Arrays holds the bounded-array declarations in scope. Out-of-range
	// indices read the null default 0 and make writes no-ops, matching the
	// Appendix A lowered encoding exactly.
	Arrays map[string]ArrayDecl

	// ReadFn, if set, intercepts database reads. The homeostasis runtime
	// uses it to serve remote objects from a (possibly stale) local
	// snapshot, per Section 3.2.
	ReadFn func(ObjID) int64
	// WriteFn, if set, intercepts database writes (used by the store
	// integration to route writes through the lock manager).
	WriteFn func(ObjID, int64)
}

func (env *Env) read(obj ObjID) int64 {
	if env.ReadFn != nil {
		return env.ReadFn(obj)
	}
	return env.DB.Get(obj)
}

func (env *Env) write(obj ObjID, v int64) {
	if env.WriteFn != nil {
		env.WriteFn(obj, v)
		return
	}
	env.DB.Set(obj, v)
}

// EvalExpr evaluates an arithmetic expression in env.
func EvalExpr(e Expr, env *Env) (int64, error) {
	switch e := e.(type) {
	case IntLit:
		return e.Value, nil
	case Param:
		v, ok := env.Params[e.Name]
		if !ok {
			return 0, fmt.Errorf("lang: unbound parameter %q", e.Name)
		}
		return v, nil
	case TempVar:
		v, ok := env.Temps[e.Name]
		if !ok {
			return 0, fmt.Errorf("lang: unbound temporary variable %q", e.Name)
		}
		return v, nil
	case Read:
		return env.read(e.Obj), nil
	case ArrayRead:
		i, err := EvalExpr(e.Index, env)
		if err != nil {
			return 0, err
		}
		if d, ok := env.Arrays[e.Array]; ok && (i < 0 || i >= d.Len*d.Cols) {
			return 0, nil
		}
		return env.read(ArrayObj(e.Array, i)), nil
	case Neg:
		v, err := EvalExpr(e.E, env)
		if err != nil {
			return 0, err
		}
		n, ok := Sub64(0, v)
		if !ok {
			return 0, &OverflowError{Op: OpSub, L: 0, R: v}
		}
		return n, nil
	case Bin:
		l, err := EvalExpr(e.L, env)
		if err != nil {
			return 0, err
		}
		r, err := EvalExpr(e.R, env)
		if err != nil {
			return 0, err
		}
		var v int64
		var exact bool
		switch e.Op {
		case OpAdd:
			v, exact = Add64(l, r)
		case OpSub:
			v, exact = Sub64(l, r)
		case OpMul:
			v, exact = Mul64(l, r)
		default:
			return 0, fmt.Errorf("lang: unknown binary operator %v", e.Op)
		}
		if !exact {
			return 0, &OverflowError{Op: e.Op, L: l, R: r}
		}
		return v, nil
	}
	return 0, fmt.Errorf("lang: unknown expression %T", e)
}

// An OverflowError is an arithmetic step whose value leaves int64 (a
// negation is 0 - x): evaluation stops there, before the command it was
// part of writes anything, and the transaction aborts. L's integers are
// ℤ, as the analysis proves its treaties over, so no step wraps.
type OverflowError struct {
	Op   BinOp
	L, R int64
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("lang: integer overflow: %d %v %d leaves int64", e.L, e.Op, e.R)
}

// Add64 returns a + b and whether the sum is exact (did not wrap).
func Add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0
}

// Sub64 returns a - b and whether the difference is exact (did not wrap).
func Sub64(a, b int64) (int64, bool) {
	d := a - b
	return d, (a^b)&(a^d) >= 0
}

// Mul64 returns a * b and whether the product is exact (did not wrap).
func Mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// The signed product's high word: the unsigned one, less b when a is
	// negative and less a when b is.
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	return int64(lo), int64(hi) == int64(lo)>>63
}

// EvalBool evaluates a boolean expression in env.
func EvalBool(b BoolExpr, env *Env) (bool, error) {
	switch b := b.(type) {
	case BoolLit:
		return b.Value, nil
	case Cmp:
		l, err := EvalExpr(b.L, env)
		if err != nil {
			return false, err
		}
		r, err := EvalExpr(b.R, env)
		if err != nil {
			return false, err
		}
		return b.Op.Holds(l, r), nil
	case And:
		l, err := EvalBool(b.L, env)
		if err != nil {
			return false, err
		}
		if !l {
			return false, nil
		}
		return EvalBool(b.R, env)
	case Or:
		l, err := EvalBool(b.L, env)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return EvalBool(b.R, env)
	case Not:
		v, err := EvalBool(b.B, env)
		if err != nil {
			return false, err
		}
		return !v, nil
	}
	return false, fmt.Errorf("lang: unknown boolean expression %T", b)
}

// EvalCmd executes a command in env, mutating env.DB (or routing through
// env.WriteFn), env.Temps and env.Log.
func EvalCmd(c Cmd, env *Env) error {
	switch c := c.(type) {
	case Skip:
		return nil
	case Assign:
		v, err := EvalExpr(c.E, env)
		if err != nil {
			return err
		}
		env.Temps[c.Var] = v
		return nil
	case Seq:
		if err := EvalCmd(c.First, env); err != nil {
			return err
		}
		return EvalCmd(c.Rest, env)
	case If:
		cond, err := EvalBool(c.Cond, env)
		if err != nil {
			return err
		}
		if cond {
			return EvalCmd(c.Then, env)
		}
		return EvalCmd(c.Else, env)
	case WriteCmd:
		v, err := EvalExpr(c.E, env)
		if err != nil {
			return err
		}
		env.write(c.Obj, v)
		return nil
	case ArrayWrite:
		i, err := EvalExpr(c.Index, env)
		if err != nil {
			return err
		}
		v, err := EvalExpr(c.E, env)
		if err != nil {
			return err
		}
		if d, ok := env.Arrays[c.Array]; ok && (i < 0 || i >= d.Len*d.Cols) {
			return nil
		}
		env.write(ArrayObj(c.Array, i), v)
		return nil
	case PrintCmd:
		v, err := EvalExpr(c.E, env)
		if err != nil {
			return err
		}
		env.Log = append(env.Log, v)
		return nil
	}
	return fmt.Errorf("lang: unknown command %T", c)
}

// Result is the observable outcome of a transaction evaluation
// (Definition 2.1): the updated database and the printed log.
type Result struct {
	DB  Database
	Log []int64
}

// Eval runs transaction t on database d with the given positional argument
// values, returning the updated database and log. The input database is not
// modified. Eval is deterministic.
func Eval(t *Transaction, d Database, args ...int64) (Result, error) {
	if len(args) != len(t.Params) {
		return Result{}, fmt.Errorf("lang: transaction %s expects %d parameters, got %d",
			t.Name, len(t.Params), len(args))
	}
	env := &Env{
		DB:     d.Clone(),
		Params: make(map[string]int64, len(args)),
		Temps:  make(map[string]int64),
		Arrays: make(map[string]ArrayDecl, len(t.Arrays)),
	}
	for i, p := range t.Params {
		env.Params[p] = args[i]
	}
	for _, ad := range t.Arrays {
		env.Arrays[ad.Name] = ad
	}
	if err := EvalCmd(t.Body, env); err != nil {
		return Result{}, fmt.Errorf("lang: evaluating %s: %w", t.Name, err)
	}
	return Result{DB: env.DB, Log: env.Log}, nil
}

// EvalIn runs the body of t inside a caller-provided environment. The
// caller controls read/write interception, which the protocol runtime uses
// for snapshot reads of remote objects and lock-managed writes.
func EvalIn(t *Transaction, env *Env, args ...int64) error {
	if len(args) != len(t.Params) {
		return fmt.Errorf("lang: transaction %s expects %d parameters, got %d",
			t.Name, len(t.Params), len(args))
	}
	if env.Params == nil {
		env.Params = make(map[string]int64, len(args))
	}
	if env.Temps == nil {
		env.Temps = make(map[string]int64)
	}
	if env.Arrays == nil {
		env.Arrays = make(map[string]ArrayDecl, len(t.Arrays))
	}
	for _, ad := range t.Arrays {
		env.Arrays[ad.Name] = ad
	}
	for i, p := range t.Params {
		env.Params[p] = args[i]
	}
	return EvalCmd(t.Body, env)
}
