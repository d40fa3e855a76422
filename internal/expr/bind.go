package expr

import (
	"fmt"
	"strings"

	"smartssd/internal/expr/syntax"
	"smartssd/internal/schema"
)

// Resolver maps a column reference to the column it names, or fails.
// Each front end brings its own: one schema for Parse, the joined row
// of a statement for the SQL binder.
type Resolver func(syntax.ColRef) (Col, error)

// Bind lowers a parsed expression onto expression nodes, resolving
// column references through resolve and applying the language's kind
// rules — the only copy of them:
//
//   - booleans are Int64; AND, OR, NOT and a CASE condition take them;
//   - the integer kinds (Int32, Int64, Date) mix in comparisons and
//     arithmetic, and CHAR compares only with CHAR;
//   - LIKE takes a CHAR operand;
//   - CASE branches agree in kind, or are both integer-valued.
//
// BETWEEN desugars to the range pair (e >= lo AND e <= hi) the
// interval-aware selectivity estimator recognizes, NOT BETWEEN and NOT
// LIKE to a Not over it. Aggregate calls never bind here: only a SQL
// select item may be one, and the statement binder lifts it first.
// Bind's own errors are *syntax.Error values at the offending node's
// Pos; a resolver's errors pass through unchanged.
func Bind(n syntax.Expr, resolve Resolver) (Expr, error) {
	switch v := n.(type) {
	case syntax.ColRef:
		c, err := resolve(v)
		if err != nil {
			return nil, err
		}
		return c, nil
	case syntax.IntLit:
		return IntConst(v.V), nil
	case syntax.StrLit:
		return StrConst(v.V), nil
	case syntax.DateLit:
		return DateConst(v.Days), nil
	case syntax.Cmp:
		l, r, err := bindPair(v.L, v.R, resolve)
		if err != nil {
			return nil, err
		}
		if !comparable(l.Kind(), r.Kind()) {
			return nil, syntax.Errorf(v.P, "cannot compare %s (%s) with %s (%s)", l.Kind(), l, r.Kind(), r)
		}
		return Cmp{Op: cmpOps[v.Op], L: l, R: r}, nil
	case syntax.Logical:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			bt, err := Bind(t, resolve)
			if err != nil {
				return nil, err
			}
			if bt.Kind() != schema.Int64 {
				return nil, syntax.Errorf(t.Pos(), "%s operand must be boolean, got %s (%s)", v.Op, bt.Kind(), bt)
			}
			terms[i] = bt
		}
		if v.Op == "OR" {
			return Or{Terms: terms}, nil
		}
		return And{Terms: terms}, nil
	case syntax.Not:
		e, err := Bind(v.E, resolve)
		if err != nil {
			return nil, err
		}
		if e.Kind() != schema.Int64 {
			return nil, syntax.Errorf(v.E.Pos(), "NOT operand must be boolean, got %s (%s)", e.Kind(), e)
		}
		return Not{E: e}, nil
	case syntax.Arith:
		l, r, err := bindPair(v.L, v.R, resolve)
		if err != nil {
			return nil, err
		}
		if !numeric(l.Kind()) || !numeric(r.Kind()) {
			return nil, syntax.Errorf(v.P, "arithmetic needs numeric operands, got %s and %s", l.Kind(), r.Kind())
		}
		return Arith{Op: arithOps[v.Op], L: l, R: r}, nil
	case syntax.Between:
		e, err := Bind(v.E, resolve)
		if err != nil {
			return nil, err
		}
		lo, hi, err := bindPair(v.Lo, v.Hi, resolve)
		if err != nil {
			return nil, err
		}
		if !comparable(e.Kind(), lo.Kind()) || !comparable(e.Kind(), hi.Kind()) {
			return nil, syntax.Errorf(v.P, "cannot compare %s (%s) with BETWEEN bounds %s and %s",
				e.Kind(), e, lo.Kind(), hi.Kind())
		}
		return negated(And{Terms: []Expr{Cmp{Op: GE, L: e, R: lo}, Cmp{Op: LE, L: e, R: hi}}}, v.Negate), nil
	case syntax.Like:
		e, err := Bind(v.E, resolve)
		if err != nil {
			return nil, err
		}
		if e.Kind() != schema.Char {
			return nil, syntax.Errorf(v.P, "LIKE needs a CHAR operand, got %s (%s)", e.Kind(), e)
		}
		return negated(LikePrefix{E: e, Prefix: strings.TrimSuffix(v.Pattern, "%")}, v.Negate), nil
	case syntax.CaseExpr:
		cond, err := Bind(v.Cond, resolve)
		if err != nil {
			return nil, err
		}
		if cond.Kind() != schema.Int64 {
			return nil, syntax.Errorf(v.Cond.Pos(), "CASE condition must be boolean, got %s (%s)", cond.Kind(), cond)
		}
		then, els, err := bindPair(v.Then, v.Else, resolve)
		if err != nil {
			return nil, err
		}
		if then.Kind() != els.Kind() && !(numeric(then.Kind()) && numeric(els.Kind())) {
			return nil, syntax.Errorf(v.P, "CASE branches disagree: THEN is %s, ELSE is %s", then.Kind(), els.Kind())
		}
		return Case{Cond: cond, Then: then, Else: els}, nil
	case syntax.FuncCall:
		return nil, syntax.Errorf(v.P, "%s is only allowed at the top of a select item", strings.ToUpper(v.Name))
	default:
		return nil, syntax.Errorf(n.Pos(), "unsupported expression node %T", n)
	}
}

func bindPair(a, b syntax.Expr, resolve Resolver) (Expr, Expr, error) {
	l, err := Bind(a, resolve)
	if err != nil {
		return nil, nil, err
	}
	r, err := Bind(b, resolve)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func negated(e Expr, negate bool) Expr {
	if negate {
		return Not{E: e}
	}
	return e
}

var cmpOps = map[string]CmpOp{
	"=": EQ, "<>": NE, "!=": NE, "<": LT, "<=": LE, ">": GT, ">=": GE,
}

var arithOps = map[string]ArithOp{"+": Add, "-": Sub, "*": Mul, "/": Div}

// comparable reports whether two kinds may meet in a comparison: the
// integer-valued kinds (Int32, Int64, Date) interoperate, Char only
// compares with Char.
func comparable(a, b schema.Kind) bool {
	if a == schema.Char || b == schema.Char {
		return a == b
	}
	return true
}

func numeric(k schema.Kind) bool {
	return k == schema.Int32 || k == schema.Int64 || k == schema.Date
}

// CheckAggregate is the rule for the argument of an aggregate that folds
// values (SUM, MIN, MAX): it must be numeric. name is the aggregate as
// the caller spells it.
func CheckAggregate(name string, e Expr) error {
	if !numeric(e.Kind()) {
		return fmt.Errorf("%s needs a numeric argument, got %s (%s)", name, e.Kind(), e)
	}
	return nil
}

// CheckAssign is the rule for SET col = e: the integer kinds mix, as in
// comparisons, and a CHAR column takes only CHAR.
func CheckAssign(col schema.Column, e Expr) error {
	if !comparable(col.Kind, e.Kind()) {
		return fmt.Errorf("cannot assign %s (%s) to %s column %s", e.Kind(), e, col.Kind, col.Name)
	}
	return nil
}
