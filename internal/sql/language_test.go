package sql

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smartssd/internal/expr"
	"smartssd/internal/schema"
	"smartssd/internal/tpch"
)

// The expression language has two front ends: expr.Parse and
// expr.ParsePredicate for the JSON request fields, and sql.Compile for
// whole statements. The tests in this file pin what each entry point
// does with one fixed set of inputs (TestLanguageGolden) and prove the
// two front ends accept the same language (TestFrontEndsAgree).

// languageSchema is the fixed schema the golden parses expressions
// against: lineitem's columns, plus a CHAR column the FuzzParsePredicate
// corpus uses and two columns named like SQL words that the expression
// grammar leaves unreserved.
func languageSchema() *schema.Schema {
	cols := tpch.LineitemSchema().Columns()
	cols = append(cols,
		schema.Column{Name: "p_type", Kind: schema.Char, Len: 25},
		schema.Column{Name: "desc", Kind: schema.Int32},
		schema.Column{Name: "sum", Kind: schema.Int32},
	)
	return schema.New(cols...)
}

// genSource draws the text of a random well-typed expression of the
// given kind ('n' numeric, 'b' boolean, 'c' CHAR), shaped like the
// expression tests' generator but over lineitem's columns. With odd
// set, a few leaves name columns outside lineitem.
func genSource(rng *rand.Rand, kind byte, depth int, odd bool) string {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	leaf := depth <= 0 || rng.Intn(3) == 0
	switch kind {
	case 'n':
		if leaf {
			if odd && rng.Intn(8) == 0 {
				return pick("desc", "sum")
			}
			return pick("l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate",
				"0", "7", "-3", "2147483647", "DATE '1994-06-15'")
		}
		switch rng.Intn(4) {
		case 0:
			return "-" + genSource(rng, 'n', depth-1, odd)
		case 1:
			return "CASE WHEN " + genSource(rng, 'b', depth-1, odd) + " THEN " +
				genSource(rng, 'n', depth-1, odd) + " ELSE " + genSource(rng, 'n', depth-1, odd) + " END"
		default:
			return "(" + genSource(rng, 'n', depth-1, odd) + pick(" + ", " - ", " * ", " / ") +
				genSource(rng, 'n', depth-1, odd) + ")"
		}
	case 'c':
		if leaf {
			if odd && rng.Intn(8) == 0 {
				return "p_type"
			}
			return pick("l_returnflag", "l_shipmode", "'PROMO'", "''", "'R'")
		}
		return "CASE WHEN " + genSource(rng, 'b', depth-1, odd) + " THEN " +
			genSource(rng, 'c', depth-1, odd) + " ELSE " + genSource(rng, 'c', depth-1, odd) + " END"
	}
	cmp := pick(" = ", " <> ", " != ", " < ", " <= ", " > ", " >= ")
	switch rng.Intn(7) {
	case 0:
		return genSource(rng, 'n', depth-1, odd) + cmp + genSource(rng, 'n', depth-1, odd)
	case 1:
		return genSource(rng, 'c', depth-1, odd) + cmp + genSource(rng, 'c', depth-1, odd)
	case 2:
		return genSource(rng, 'c', depth-1, odd) + pick(" LIKE ", " NOT LIKE ") + pick("'PROMO%'", "'%'", "'R%'")
	case 3:
		return genSource(rng, 'n', depth-1, odd) + pick(" BETWEEN ", " NOT BETWEEN ") +
			genSource(rng, 'n', depth-1, odd) + " AND " + genSource(rng, 'n', depth-1, odd)
	case 4:
		return "NOT (" + genSource(rng, 'b', depth-1, odd) + ")"
	case 5:
		return "(" + genSource(rng, 'b', depth-1, odd) + pick(" AND ", " OR ") + genSource(rng, 'b', depth-1, odd) + ")"
	default:
		return "l_discount > 5 AND l_quantity < 2400"
	}
}

// splitTokens cuts a generated source into rough tokens: parentheses
// apart, quoted literals whole, everything else at spaces.
func splitTokens(src string) []string {
	var toks []string
	for i := 0; i < len(src); {
		switch c := src[i]; {
		case c == ' ':
			i++
		case c == '(' || c == ')':
			toks = append(toks, src[i:i+1])
			i++
		case c == '\'':
			j := strings.IndexByte(src[i+1:], '\'')
			if j < 0 {
				toks = append(toks, src[i:])
				return toks
			}
			toks = append(toks, src[i:i+j+2])
			i += j + 2
		default:
			j := i
			for j < len(src) && src[j] != ' ' && src[j] != '(' && src[j] != ')' {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks
}

// mutate applies one or two token edits to src: drop, duplicate, swap
// with the next token, or replace with a token from pool.
func mutate(rng *rand.Rand, src string, pool []string) string {
	toks := splitTokens(src)
	for n := 1 + rng.Intn(2); n > 0 && len(toks) > 0; n-- {
		i := rng.Intn(len(toks))
		switch rng.Intn(4) {
		case 0:
			toks = append(toks[:i], toks[i+1:]...)
		case 1:
			toks = append(toks[:i+1], toks[i:]...)
		case 2:
			if i+1 < len(toks) {
				toks[i], toks[i+1] = toks[i+1], toks[i]
			}
		default:
			toks[i] = pool[rng.Intn(len(pool))]
		}
	}
	return strings.Join(toks, " ")
}

// goldenPool holds the replacement tokens of the golden's mutations:
// the expression grammar's tokens, the statement grammar's, and a few
// that neither accepts where they land.
var goldenPool = []string{
	"(", ")", ",", ".", ";", "-", "*", "!=", "<>", "=", "AND", "OR", "NOT", "LIKE",
	"BETWEEN", "CASE", "WHEN", "END", "DATE", "'x'", "'", "99999999999999999999",
	"desc", "sum", "SELECT", "FROM", "AS", "SUM(l_quantity)", "COUNT(*)",
	"lineitem.l_quantity", "l_quantity", "l_returnflag",
}

// agreePool is goldenPool without the tokens that turn an expression
// into a different statement rather than a wrong one: a comma adds a
// select item, an aggregate call makes an aggregate query, and a
// qualified name is SQL-only syntax.
var agreePool = []string{
	"(", ")", ".", ";", "-", "*", "!=", "<>", "=", "AND", "OR", "NOT", "LIKE",
	"BETWEEN", "CASE", "WHEN", "END", "DATE", "'x'", "'", "99999999999999999999",
	"desc", "SELECT", "FROM", "l_quantity", "l_returnflag",
}

// corpusInputs reads every checked-in input of the named fuzz target.
func corpusInputs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s/%s: %v", dir, e.Name(), err)
			}
			out = append(out, s)
		}
	}
	return out
}

// languageInputs is the golden's input list: the three parser fuzz
// corpora, then seeded generated sources, valid and token-mutated.
func languageInputs(t *testing.T) []string {
	var in []string
	in = append(in, corpusInputs(t, filepath.Join("..", "expr", "testdata", "fuzz", "FuzzParsePredicate"))...)
	in = append(in, corpusInputs(t, filepath.Join("testdata", "fuzz", "FuzzParseSQL"))...)
	in = append(in, corpusInputs(t, filepath.Join("testdata", "fuzz", "FuzzSQLRoundTrip"))...)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1000; i++ {
		src := genSource(rng, "nbc"[rng.Intn(3)], 1+rng.Intn(3), true)
		in = append(in, src, mutate(rng, src, goldenPool))
	}
	return in
}

// describeCompiled renders everything Compile decided about a statement.
func describeCompiled(c *Compiled) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | filter %s", c.SQL, renderOf(c.Spec.Filter))
	if j := c.Spec.Join; j != nil {
		fmt.Fprintf(&b, " | join %s.%s = %s", j.BuildTable, j.BuildKey, j.ProbeKey)
	}
	for _, o := range c.Spec.Output {
		fmt.Fprintf(&b, " | out %s=%s", o.Name, expr.Render(o.E))
	}
	for _, a := range c.Spec.Aggs {
		fmt.Fprintf(&b, " | agg %s=%s(%s)", a.Name, a.Kind, renderOf(a.E))
	}
	fmt.Fprintf(&b, " | group %v | order %v | limit %d | est %.6f",
		c.Spec.GroupBy, c.Spec.OrderBy, c.Spec.Limit, c.Spec.EstSelectivity)
	return b.String()
}

// languageLines runs one input through every entry point: expr.Parse
// ("parse") and expr.ParsePredicate ("pred") against languageSchema,
// and sql.Compile against tpchCatalog on the input itself ("sql"), as
// the WHERE clause of a COUNT ("where"), and as a select item
// ("select").
func languageLines(s *schema.Schema, cat Catalog, src string) []string {
	exprLine := func(parse func(*schema.Schema, string) (expr.Expr, error)) string {
		e, err := parse(s, src)
		if err != nil {
			return "error"
		}
		return expr.Render(e)
	}
	compileLine := func(stmt string) string {
		c, err := Compile(cat, stmt)
		if err != nil {
			return "error"
		}
		return describeCompiled(c)
	}
	return []string{
		"parse  " + exprLine(expr.Parse),
		"pred   " + exprLine(expr.ParsePredicate),
		"sql    " + compileLine(src),
		"where  " + compileLine("SELECT COUNT(*) AS n FROM lineitem WHERE "+src),
		"select " + compileLine("SELECT "+src+" AS v FROM lineitem"),
	}
}

// TestLanguageGolden pins every entry point of the expression language
// on the inputs above: the tree each builds, rendered canonically, or
// that it rejects the input. Run with -update to rewrite the file; the
// file was recorded before the two front ends shared a grammar, so a
// match proves the shared grammar changed nothing.
func TestLanguageGolden(t *testing.T) {
	s, cat := languageSchema(), tpchCatalog()
	var b strings.Builder
	for _, src := range languageInputs(t) {
		fmt.Fprintf(&b, "in %q\n", src)
		for _, line := range languageLines(s, cat, src) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	goldenCompare(t, "language", b.String())
}

// TestFrontEndsAgree is the one-language property: for random predicate
// sources p, expr.ParsePredicate over lineitem and the statement
// "SELECT COUNT(*) AS n FROM lineitem WHERE p" both accept or both
// reject, and when both accept they build the same filter. The same
// holds for a scalar x between expr.Parse and "SELECT x AS v FROM
// lineitem".
func TestFrontEndsAgree(t *testing.T) {
	li, cat := tpch.LineitemSchema(), tpchCatalog()
	rng := rand.New(rand.NewSource(2929))
	accepted := map[string]int{}
	for i := 0; i < 3000; i++ {
		src := genSource(rng, "nbc"[rng.Intn(3)], 1+rng.Intn(4), false)
		if i%2 == 1 {
			src = mutate(rng, src, agreePool)
		}

		pe, perr := expr.ParsePredicate(li, src)
		pc, pcerr := Compile(cat, "SELECT COUNT(*) AS n FROM lineitem WHERE "+src)
		if (perr == nil) != (pcerr == nil) {
			t.Fatalf("predicate %q: expr.ParsePredicate err=%v, sql.Compile err=%v", src, perr, pcerr)
		}
		if perr == nil {
			accepted["predicate"]++
			if got, want := expr.Render(pc.Spec.Filter), expr.Render(pe); got != want {
				t.Fatalf("predicate %q: sql filter %s, expr %s", src, got, want)
			}
		}

		se, serr := expr.Parse(li, src)
		sc, scerr := Compile(cat, "SELECT "+src+" AS v FROM lineitem")
		if (serr == nil) != (scerr == nil) {
			t.Fatalf("scalar %q: expr.Parse err=%v, sql.Compile err=%v", src, serr, scerr)
		}
		if serr == nil {
			accepted["scalar"]++
			if got, want := expr.Render(sc.Spec.Output[0].E), expr.Render(se); got != want {
				t.Fatalf("scalar %q: sql output %s, expr %s", src, got, want)
			}
		}
	}
	// Both halves must exercise acceptance and rejection.
	for _, k := range []string{"predicate", "scalar"} {
		if n := accepted[k]; n < 300 || n > 2700 {
			t.Errorf("%s: %d of 3000 sources accepted; want both outcomes well represented", k, n)
		}
	}
}
