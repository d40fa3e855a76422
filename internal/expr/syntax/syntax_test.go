package syntax

import (
	"strings"
	"testing"
)

// parseAll parses src as one whole expression.
func parseAll(src string, reserved ...string) (Expr, error) {
	p := NewParser(src, reserved...)
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.End("expression"); err != nil {
		return nil, err
	}
	return e, nil
}

// TestRenderIsCanonical covers every production of the grammar: each
// source renders to its canonical form, and the canonical form parses
// back to itself.
func TestRenderIsCanonical(t *testing.T) {
	cases := []struct{ src, want string }{
		{"a", "a"},
		{"t.a", "t.a"},
		{"sum", "sum"},
		{"count . x", "count.x"},
		{"42", "42"},
		{"-42", "-42"},
		{"- -a", "(0 - (0 - a))"},
		{"'a b'", "'a b'"},
		{"DATE '1994-01-01'", "DATE '1994-01-01'"},
		{"a + 1 * 2 - b / 3", "((a + (1 * 2)) - (b / 3))"},
		{"a = 1 AND b != 2 OR NOT c <= 3", "(((a = 1) AND (b <> 2)) OR NOT (c <= 3))"},
		{"a < 1 AND b > 2 AND c >= 3", "((a < 1) AND (b > 2) AND (c >= 3))"},
		{"a BETWEEN 1 AND 2 AND b NOT BETWEEN c AND d", "((a BETWEEN 1 AND 2) AND (b NOT BETWEEN c AND d))"},
		{"s LIKE 'p%' OR s NOT LIKE '%'", "((s LIKE 'p%') OR (s NOT LIKE '%'))"},
		{"case when a then 1 else 2 end", "CASE WHEN a THEN 1 ELSE 2 END"},
		{"sum(a) + Count(*) + max()", "((SUM(a) + COUNT(*)) + MAX(*))"},
		{"((a))", "a"},
	}
	for _, c := range cases {
		e, err := parseAll(c.src)
		if err != nil {
			t.Errorf("parse %q: %v", c.src, err)
			continue
		}
		if got := Render(e); got != c.want {
			t.Errorf("Render(parse %q) = %q, want %q", c.src, got, c.want)
			continue
		}
		again, err := parseAll(c.want)
		if err != nil || Render(again) != c.want {
			t.Errorf("canonical %q does not re-parse to itself: %v", c.want, err)
		}
	}
}

// TestPositions pins the offset each node carries: its operator's for
// a comparison, arithmetic, BETWEEN and LIKE, its first token's
// otherwise (a chain's is its first term's).
func TestPositions(t *testing.T) {
	e, err := parseAll("a + 1 = t.b AND NOT x LIKE 'p%'")
	if err != nil {
		t.Fatal(err)
	}
	l := e.(Logical)
	cmp := l.Terms[0].(Cmp)
	not := l.Terms[1].(Not)
	for _, c := range []struct {
		n    Expr
		want int
	}{
		{l, 6}, {cmp, 6}, {cmp.L, 2}, {cmp.L.(Arith).L, 0}, {cmp.R, 8},
		{not, 16}, {not.E, 22}, {not.E.(Like).E, 20},
	} {
		if got := c.n.Pos(); got != c.want {
			t.Errorf("%T %s: Pos = %d, want %d", c.n, Render(c.n), got, c.want)
		}
	}
}

// TestErrors covers the grammar's rejections: each names the problem
// at the offset of the token that caused it.
func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
		pos  int
	}{
		{"", "expected an expression, got end of input", 0},
		{"a +", "expected an expression", 3},
		{"a b", `unexpected "b" after expression`, 2},
		{"a, b", `unexpected "," after expression`, 1},
		{"(a", "expected ')', got end of input", 2},
		{"'abc", "unterminated string literal", 0},
		{"a = 'x", "unterminated string literal", 4},
		{"a ~ b", "unexpected character '~'", 2},
		{"a = (b ~", "unexpected character '~'", 7},
		{"99999999999999999999", "integer literal out of range", 0},
		{"-99999999999999999999", "integer literal out of range: -", 1},
		{"DATE 5", "DATE needs a quoted", 5},
		{"DATE '1994-13-01'", "out of range", 5},
		{"DATE '1994-02-30'", "does not exist", 5},
		{"DATE '1994-xx-01'", "malformed date", 5},
		{"DATE '1994'", "malformed date", 5},
		{"a NOT 5", "expected BETWEEN or LIKE after NOT", 6},
		{"a BETWEEN 1 2", "BETWEEN needs AND between its bounds: expected AND", 12},
		{"s LIKE 5", "LIKE needs a quoted pattern", 7},
		{"s LIKE 'a%b'", "only prefix LIKE patterns", 7},
		{"CASE a", "expected WHEN", 5},
		{"CASE WHEN a THEN 1 END", "expected ELSE", 19},
		{"CASE WHEN a THEN 1 ELSE 2", "expected END", 25},
		{"AND", `unexpected keyword "AND"`, 0},
		{"t.and", "expected a column name after '.'", 2},
		{"avg(a)", `unknown function "avg"`, 3},
		{"sum(a", "expected ')' to close SUM", 5},
		{strings.Repeat("(", 300) + "a" + strings.Repeat(")", 300), "nesting exceeds 200 levels", 100},
		{strings.Repeat("-", 300) + "a", "nesting exceeds 200 levels", 199},
	}
	for _, c := range cases {
		_, err := parseAll(c.src)
		se, ok := err.(*Error)
		if !ok {
			t.Errorf("%.30q: err = %v, want a *syntax.Error", c.src, err)
			continue
		}
		if !strings.Contains(se.Msg, c.want) || se.Pos != c.pos {
			t.Errorf("%.30q: error %q at %d, want %q at %d", c.src, se.Msg, se.Pos, c.want, c.pos)
		}
	}
}

// TestReservedWords pins the keyword sets: the expression keywords are
// always reserved, statement keywords only where a grammar passes them.
func TestReservedWords(t *testing.T) {
	if _, err := parseAll("desc + from"); err != nil {
		t.Errorf("statement words as names without a statement grammar: %v", err)
	}
	if _, err := parseAll("desc + 1", "DESC"); err == nil || !strings.Contains(err.Error(), "unexpected keyword") {
		t.Errorf("reserved DESC: err = %v", err)
	}
	p := NewParser("from", "FROM")
	if _, err := p.ParseColRef(); err == nil || !strings.Contains(err.Error(), "expected a column name") {
		t.Errorf("ParseColRef of a keyword: err = %v", err)
	}
	p = NewParser("BETWEEN")
	if p.Name() || !p.isReserved("between") || p.isReserved("sum") {
		t.Error("keyword checks disagree with the keyword list")
	}
	if err := p.ExpectKeyword("between"); err != nil || p.Tok.Kind != TokEOF {
		t.Errorf("ExpectKeyword: err = %v, next %s", err, p.Tok)
	}
	if err := p.ExpectKeyword("AND"); err == nil || !strings.Contains(err.Error(), "expected AND, got end of input") {
		t.Errorf("ExpectKeyword at EOF: err = %v", err)
	}
}

// TestDates pins DATE literal conversion both ways.
func TestDates(t *testing.T) {
	days, err := ParseDate("1970-01-02")
	if err != nil || days != 1 {
		t.Fatalf("ParseDate = %d, %v", days, err)
	}
	for _, s := range []string{"1994-01-01", "2000-02-29", "1700-01-01", "2500-12-31"} {
		d, err := ParseDate(s)
		if err != nil || FormatDate(d) != s {
			t.Errorf("%s: %d, %v -> %s", s, d, err, FormatDate(d))
		}
	}
}

func TestTokenString(t *testing.T) {
	for _, c := range []struct {
		tok  Token
		want string
	}{
		{Token{Kind: TokEOF}, "end of input"},
		{Token{Kind: TokStr, Text: "ab"}, "'ab'"},
		{Token{Kind: TokIdent, Text: "ab"}, `"ab"`},
		{Token{Kind: TokOp, Text: "<="}, `"<="`},
	} {
		if got := c.tok.String(); got != c.want {
			t.Errorf("%v: %q, want %q", c.tok, got, c.want)
		}
	}
}
