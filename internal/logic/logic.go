// Package logic names the variables of the Homeostasis analysis
// (Sections 2.2, 4.1 of the paper): database objects, transaction
// parameters, temporary variables and treaty configuration variables.
// internal/lia's linear terms are sums over them, and a Binding gives
// them values. The guards they come from are L's own boolean expressions
// (internal/lang); lia.Linearize maps read(x), a parameter and a temporary
// to Obj, Param and Temp.
package logic

import (
	"slices"
	"strings"

	"repro/internal/lang"
)

// VarKind classifies the variables of the analysis.
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
