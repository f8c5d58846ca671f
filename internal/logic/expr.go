// Package logic implements the first-order formulas used by symbolic
// tables and treaties (Sections 2.2, 4.1 of the Homeostasis paper):
// symbolic integer expressions over database objects, transaction
// parameters, temporary variables and treaty configuration variables;
// atoms comparing expressions; and boolean combinations thereof.
//
// The two operations the paper's analysis needs are substitution
// (rule (4) and rule (6) of Figure 6 replace variables by expressions)
// and evaluation against a concrete database/parameter binding.
// Linearization into the internal/lia constraint form supports the
// treaty-generation pipeline.
package logic

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/lang"
)

// VarKind classifies the variables formulas may mention.
type VarKind int

const (
	// ObjVar refers to a database object's value.
	ObjVar VarKind = iota
	// ParamVar refers to a transaction parameter.
	ParamVar
	// TempVar refers to a temporary program variable (only present in
	// intermediate formulas during symbolic-table construction).
	TempVar
	// ConfigVar refers to a treaty configuration variable (Section 4.2).
	ConfigVar
)

func (k VarKind) String() string {
	switch k {
	case ObjVar:
		return "obj"
	case ParamVar:
		return "param"
	case TempVar:
		return "temp"
	case ConfigVar:
		return "config"
	}
	return "?"
}

// Var identifies a variable. Var is comparable and used as a map key
// throughout the analysis.
type Var struct {
	Kind VarKind
	Name string
}

func (v Var) String() string {
	switch v.Kind {
	case ObjVar:
		return v.Name
	case ParamVar:
		return "$" + v.Name
	case TempVar:
		return "^" + v.Name
	case ConfigVar:
		return "#" + v.Name
	}
	return v.Name
}

// Obj makes an object variable.
func Obj(name lang.ObjID) Var { return Var{Kind: ObjVar, Name: string(name)} }

// Param makes a parameter variable.
func Param(name string) Var { return Var{Kind: ParamVar, Name: name} }

// Temp makes a temporary variable.
func Temp(name string) Var { return Var{Kind: TempVar, Name: name} }

// Config makes a configuration variable.
func Config(name string) Var { return Var{Kind: ConfigVar, Name: name} }

// Expr is a symbolic integer expression.
type Expr interface {
	exprNode()
	String() string
}

// Const is an integer constant.
type Const struct{ Value int64 }

// Ref references a variable.
type Ref struct{ Var Var }

// Add is e0 + e1.
type Add struct{ L, R Expr }

// Sub is e0 - e1.
type Sub struct{ L, R Expr }

// Mul is e0 * e1.
type Mul struct{ L, R Expr }

// Neg is -e.
type Neg struct{ E Expr }

func (Const) exprNode() {}
func (Ref) exprNode()   {}
func (Add) exprNode()   {}
func (Sub) exprNode()   {}
func (Mul) exprNode()   {}
func (Neg) exprNode()   {}

func (e Const) String() string { return fmt.Sprintf("%d", e.Value) }
func (e Ref) String() string   { return e.Var.String() }
func (e Add) String() string   { return fmt.Sprintf("(%s + %s)", e.L, e.R) }
func (e Sub) String() string   { return fmt.Sprintf("(%s - %s)", e.L, e.R) }
func (e Mul) String() string   { return fmt.Sprintf("(%s * %s)", e.L, e.R) }
func (e Neg) String() string   { return fmt.Sprintf("-(%s)", e.E) }

// FromLangExpr converts a lang arithmetic expression to a symbolic
// expression: read(x) becomes an object variable reference, parameters and
// temporaries become their respective variable kinds. ArrayRead nodes are
// rejected; lower L++ to L first.
func FromLangExpr(e lang.Expr) (Expr, error) {
	switch e := e.(type) {
	case lang.IntLit:
		return Const{Value: e.Value}, nil
	case lang.Param:
		return Ref{Var: Param(e.Name)}, nil
	case lang.TempVar:
		return Ref{Var: Temp(e.Name)}, nil
	case lang.Read:
		return Ref{Var: Obj(e.Obj)}, nil
	case lang.Neg:
		inner, err := FromLangExpr(e.E)
		if err != nil {
			return nil, err
		}
		return Neg{E: inner}, nil
	case lang.Bin:
		l, err := FromLangExpr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := FromLangExpr(e.R)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case lang.OpAdd:
			return Add{L: l, R: r}, nil
		case lang.OpSub:
			return Sub{L: l, R: r}, nil
		case lang.OpMul:
			return Mul{L: l, R: r}, nil
		}
		return nil, fmt.Errorf("logic: unknown binary op %v", e.Op)
	case lang.ArrayRead:
		return nil, fmt.Errorf("logic: ArrayRead in formula; lower L++ to L first")
	}
	return nil, fmt.Errorf("logic: unknown lang expression %T", e)
}

// Subst substitutes expressions for variables throughout e. The
// substitution is simultaneous.
func Subst(e Expr, sub map[Var]Expr) Expr {
	switch e := e.(type) {
	case Const:
		return e
	case Ref:
		if r, ok := sub[e.Var]; ok {
			return r
		}
		return e
	case Add:
		return Add{L: Subst(e.L, sub), R: Subst(e.R, sub)}
	case Sub:
		return Sub{L: Subst(e.L, sub), R: Subst(e.R, sub)}
	case Mul:
		return Mul{L: Subst(e.L, sub), R: Subst(e.R, sub)}
	case Neg:
		return Neg{E: Subst(e.E, sub)}
	}
	return e
}

// Binding supplies concrete values for variables during evaluation.
type Binding func(Var) (int64, bool)

// DBBinding builds a Binding that resolves object variables from a
// database (missing objects read 0), parameter variables from params, and
// config variables from cfg. Temp variables are unresolved.
func DBBinding(db lang.Database, params map[string]int64, cfg map[string]int64) Binding {
	return func(v Var) (int64, bool) {
		switch v.Kind {
		case ObjVar:
			return db.Get(lang.ObjID(v.Name)), true
		case ParamVar:
			val, ok := params[v.Name]
			return val, ok
		case ConfigVar:
			val, ok := cfg[v.Name]
			return val, ok
		}
		return 0, false
	}
}

// EvalExpr evaluates a symbolic expression under a binding.
func EvalExpr(e Expr, b Binding) (int64, error) {
	switch e := e.(type) {
	case Const:
		return e.Value, nil
	case Ref:
		v, ok := b(e.Var)
		if !ok {
			return 0, fmt.Errorf("logic: unbound variable %s", e.Var)
		}
		return v, nil
	case Add:
		l, err := EvalExpr(e.L, b)
		if err != nil {
			return 0, err
		}
		r, err := EvalExpr(e.R, b)
		if err != nil {
			return 0, err
		}
		return l + r, nil
	case Sub:
		l, err := EvalExpr(e.L, b)
		if err != nil {
			return 0, err
		}
		r, err := EvalExpr(e.R, b)
		if err != nil {
			return 0, err
		}
		return l - r, nil
	case Mul:
		l, err := EvalExpr(e.L, b)
		if err != nil {
			return 0, err
		}
		r, err := EvalExpr(e.R, b)
		if err != nil {
			return 0, err
		}
		return l * r, nil
	case Neg:
		v, err := EvalExpr(e.E, b)
		if err != nil {
			return 0, err
		}
		return -v, nil
	}
	return 0, fmt.Errorf("logic: unknown expression %T", e)
}

// ExprVars adds every variable mentioned in e to out.
func ExprVars(e Expr, out map[Var]bool) {
	switch e := e.(type) {
	case Ref:
		out[e.Var] = true
	case Add:
		ExprVars(e.L, out)
		ExprVars(e.R, out)
	case Sub:
		ExprVars(e.L, out)
		ExprVars(e.R, out)
	case Mul:
		ExprVars(e.L, out)
		ExprVars(e.R, out)
	case Neg:
		ExprVars(e.E, out)
	}
}

// SortedVars returns the variables of a set in deterministic order.
func SortedVars(set map[Var]bool) []Var {
	out := make([]Var, 0, len(set))
	//homeo:nondet collected then sorted by SortVars below
	for v := range set {
		out = append(out, v)
	}
	SortVars(out)
	return out
}

// SortVars sorts variables in place into the canonical (kind, name)
// order. It avoids sort.Slice's reflection so treaty compilation on the
// registration path stays cheap.
func SortVars(vars []Var) { slices.SortFunc(vars, CompareVars) }

// CompareVars is the canonical (kind, name) order on variables.
func CompareVars(a, b Var) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	return strings.Compare(a.Name, b.Name)
}

// joinStrings is a small helper for readable formula printing.
func joinStrings(parts []string, sep string) string {
	return strings.Join(parts, sep)
}
