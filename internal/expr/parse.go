package expr

import (
	"fmt"
	"strings"

	"smartssd/internal/expr/syntax"
	"smartssd/internal/schema"
)

// Parse builds an expression tree from a SQL-ish expression string,
// resolving column names against s. It is the wire-side counterpart of
// the programmatic constructors: the serving layer accepts textual
// predicates ("l_discount > 5 AND l_shipdate >= DATE '1994-01-01'")
// and lowers them through this parser onto the same Expr nodes the
// host executor and in-device programs share.
//
// The grammar is the SQL front end's expression grammar (package
// syntax), and the tree is typed by Bind, the rules a SQL statement's
// expressions follow. Names are unqualified columns of s; an aggregate
// call is rejected, and so is anything after the expression. Only the
// expression keywords are reserved, so a column may be named like a
// SQL statement word (desc, from).
//
// Parse never panics on malformed input: every lexical, syntactic, and
// type error is reported as a non-nil error carrying a byte offset (the
// fuzz target FuzzParsePredicate holds it to that contract). Nesting
// depth is bounded so adversarial inputs cannot overflow the goroutine
// stack.
func Parse(s *schema.Schema, src string) (Expr, error) {
	p := syntax.NewParser(src)
	n, err := p.ParseExpr()
	if err == nil {
		err = p.End("expression")
	}
	var e Expr
	if err == nil {
		e, err = Bind(n, func(c syntax.ColRef) (Col, error) {
			if c.Table != "" {
				return Col{}, syntax.Errorf(c.P, "unexpected qualified name %s.%s (an expression names columns of its own table)", c.Table, c.Name)
			}
			i := s.ColumnIndex(c.Name)
			if i < 0 {
				return Col{}, syntax.Errorf(c.P, "unknown column %q in schema %s", c.Name, s)
			}
			col := s.Column(i)
			return Col{Index: i, Name: col.Name, K: col.Kind}, nil
		})
	}
	if se, ok := err.(*syntax.Error); ok {
		return nil, fmt.Errorf("expr: parse %q at offset %d: %s", src, se.Pos, se.Msg)
	}
	return e, err
}

// ParsePredicate is Parse restricted to boolean results: the parsed
// expression must be a predicate (Int64-valued comparison, connective,
// or CASE over them), the only form QuerySpec.Filter accepts.
func ParsePredicate(s *schema.Schema, src string) (Expr, error) {
	e, err := Parse(s, src)
	if err != nil {
		return nil, err
	}
	if e.Kind() != schema.Int64 {
		return nil, fmt.Errorf("expr: predicate must be boolean-valued, got %s (%s)", e.Kind(), e)
	}
	return e, nil
}

// Render serializes an expression to the textual form Parse accepts:
// fully parenthesized, with Char literals quoted and Date literals in
// DATE 'YYYY-MM-DD' form. For any tree Parse produced,
// Parse(s, Render(e)) succeeds and renders identically — the canonical
// wire form the serving layer logs and replays. (Expr.String stays the
// human-facing EXPLAIN rendering; it is not guaranteed to re-parse.)
func Render(e Expr) string {
	var b strings.Builder
	render(&b, e)
	return b.String()
}

func render(b *strings.Builder, e Expr) {
	switch v := e.(type) {
	case Col:
		if v.Name != "" {
			b.WriteString(v.Name)
		} else {
			fmt.Fprintf(b, "$%d", v.Index)
		}
	case Const:
		switch v.K {
		case schema.Char:
			fmt.Fprintf(b, "'%s'", v.V.Bytes)
		case schema.Date:
			fmt.Fprintf(b, "DATE '%s'", syntax.FormatDate(v.V.Int))
		default:
			fmt.Fprintf(b, "%d", v.V.Int)
		}
	case Cmp:
		b.WriteByte('(')
		render(b, v.L)
		fmt.Fprintf(b, " %s ", v.Op)
		render(b, v.R)
		b.WriteByte(')')
	case And:
		renderTerms(b, v.Terms, " AND ")
	case Or:
		renderTerms(b, v.Terms, " OR ")
	case Not:
		b.WriteString("NOT ")
		render(b, v.E)
	case Arith:
		b.WriteByte('(')
		render(b, v.L)
		fmt.Fprintf(b, " %s ", v.Op)
		render(b, v.R)
		b.WriteByte(')')
	case LikePrefix:
		b.WriteByte('(')
		render(b, v.E)
		fmt.Fprintf(b, " LIKE '%s%%')", v.Prefix)
	case Case:
		b.WriteString("CASE WHEN ")
		render(b, v.Cond)
		b.WriteString(" THEN ")
		render(b, v.Then)
		b.WriteString(" ELSE ")
		render(b, v.Else)
		b.WriteString(" END")
	default:
		// Unknown node types fall back to the EXPLAIN rendering; Parse
		// cannot produce them, so the Render contract is unaffected.
		b.WriteString(e.String())
	}
}

func renderTerms(b *strings.Builder, terms []Expr, sep string) {
	b.WriteByte('(')
	for i, t := range terms {
		if i > 0 {
			b.WriteString(sep)
		}
		render(b, t)
	}
	b.WriteByte(')')
}
