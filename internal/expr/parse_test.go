package expr

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"smartssd/internal/schema"
)

func parseSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "l_quantity", Kind: schema.Int32},
		schema.Column{Name: "l_extendedprice", Kind: schema.Int32},
		schema.Column{Name: "l_discount", Kind: schema.Int32},
		schema.Column{Name: "l_shipdate", Kind: schema.Date},
		schema.Column{Name: "l_returnflag", Kind: schema.Char, Len: 1},
		schema.Column{Name: "p_type", Kind: schema.Char, Len: 25},
	)
}

func sampleRow() TupleRow {
	return TupleRow(schema.Tuple{
		schema.IntVal(2300),
		schema.IntVal(1000),
		schema.IntVal(6),
		schema.DateVal(1994, 6, 15),
		schema.StrVal("R"),
		schema.StrVal("PROMO BRUSHED STEEL"),
	})
}

func TestParseQ6StylePredicate(t *testing.T) {
	s := parseSchema()
	src := "l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'" +
		" AND l_discount > 5 AND l_discount < 7 AND l_quantity < 2400"
	e, err := ParsePredicate(s, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Eval(sampleRow()).Int; got != 1 {
		t.Fatalf("Q6-style predicate = %d on matching row, want 1", got)
	}
	// The same tree the programmatic constructors would build.
	want := And{Terms: []Expr{
		Cmp{Op: GE, L: ColRef(s, "l_shipdate"), R: DateConst(schema.DateVal(1994, 1, 1).Days())},
		Cmp{Op: LT, L: ColRef(s, "l_shipdate"), R: DateConst(schema.DateVal(1995, 1, 1).Days())},
		Cmp{Op: GT, L: ColRef(s, "l_discount"), R: IntConst(5)},
		Cmp{Op: LT, L: ColRef(s, "l_discount"), R: IntConst(7)},
		Cmp{Op: LT, L: ColRef(s, "l_quantity"), R: IntConst(2400)},
	}}
	if e.String() != want.String() {
		t.Fatalf("parsed tree renders as\n  %s\nwant\n  %s", e, want)
	}
}

func TestParseExpressions(t *testing.T) {
	s := parseSchema()
	row := sampleRow()
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 4", 2},
		{"10 / 0", 0}, // division by zero yields zero, as Arith documents
		{"-5 + 3", -2},
		{"- l_discount", -6},
		{"l_discount = 6", 1},
		{"l_discount <> 6", 0},
		{"l_discount != 6", 0},
		{"NOT l_discount = 6", 0},
		{"l_discount = 6 OR l_discount = 7", 1},
		{"p_type LIKE 'PROMO%'", 1},
		{"p_type LIKE 'ECONOMY%'", 0},
		{"l_returnflag = 'R'", 1},
		{"CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice ELSE 0 END", 1000},
		{"case when 1 = 2 then 3 else 4 end", 4}, // keywords are case-insensitive
		{"l_extendedprice * (100 - l_discount) / 100", 940},
	}
	for _, c := range cases {
		e, err := Parse(s, c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := e.Eval(row).Int; got != c.want {
			t.Errorf("Parse(%q).Eval = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	s := parseSchema()
	cases := []string{
		"",                                // empty input
		"l_discount >",                    // dangling operator
		"nonexistent = 1",                 // unknown column
		"l_discount = 'x'",                // int vs char comparison
		"p_type + 1",                      // arithmetic on char
		"p_type LIKE '%suffix'",           // non-prefix pattern
		"p_type LIKE 'a%b%'",              // multiple wildcards
		"l_quantity LIKE 'x%'",            // LIKE on a non-char column
		"DATE '1994-13-01'",               // month out of range
		"DATE '1994-02-30'",               // nonexistent day
		"DATE 'hello'",                    // malformed date
		"DATE 3",                          // DATE without literal
		"'unterminated",                   // unterminated string
		"1 ~ 2",                           // unknown character
		"(1 + 2",                          // unbalanced paren
		"1 2",                             // trailing token
		"CASE WHEN 1=1 THEN 2",            // CASE missing ELSE/END
		"CASE WHEN 1 THEN 2 ELSE 'x' END", // branch kinds disagree
		"NOT 5 AND 1=1",                   // NOT over non-boolean... (5 is Int64 so boolean-typed; see below)
		"AND",                             // reserved word as expression
		"l_discount = CASE",               // CASE truncated
		strings.Repeat("(", 300) + "1" + strings.Repeat(")", 300), // depth bomb
	}
	for _, src := range cases {
		if src == "NOT 5 AND 1=1" {
			// Int literals are Int64 and therefore pass the boolean check;
			// this line documents the representation rather than testing it.
			continue
		}
		if e, err := Parse(s, src); err == nil {
			t.Errorf("Parse(%q) = %s, want error", src, e)
		}
	}
}

func TestParsePredicateRejectsNonBoolean(t *testing.T) {
	s := parseSchema()
	if _, err := ParsePredicate(s, "l_shipdate"); err == nil {
		t.Fatal("ParsePredicate accepted a bare Date column")
	}
	if _, err := ParsePredicate(s, "p_type"); err == nil {
		t.Fatal("ParsePredicate accepted a bare Char column")
	}
}

// TestParseStringRoundTrip pins the parse → String → parse fixpoint:
// re-parsing a parsed expression's rendering yields the same rendering.
func TestParseStringRoundTrip(t *testing.T) {
	s := parseSchema()
	srcs := []string{
		"l_discount > 5 AND l_discount < 7",
		"(l_quantity < 10 OR l_quantity > 90) AND NOT l_returnflag = 'A'",
		"CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * l_discount ELSE 0 END",
		"l_shipdate >= DATE '1995-09-01'",
	}
	for _, src := range srcs {
		e1, err := Parse(s, src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		e2, err := Parse(s, Render(e1))
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", Render(e1), err)
		}
		if Render(e1) != Render(e2) {
			t.Fatalf("round trip diverged:\n  first  %s\n  second %s", Render(e1), Render(e2))
		}
	}
}

// FuzzParsePredicate holds the parser to its no-panic contract and, for
// inputs that do parse, checks that evaluation is total and that the
// canonical Render form re-parses to the same rendering (so wire-logged
// predicates can always be replayed).
func FuzzParsePredicate(f *testing.F) {
	seeds := []string{
		"l_shipdate >= DATE '1994-01-01' AND l_discount > 5 AND l_discount < 7 AND l_quantity < 2400",
		"p_type LIKE 'PROMO%'",
		"CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * l_discount ELSE 0 END",
		"(l_quantity < 10 OR l_quantity > 90) AND NOT l_returnflag = 'A'",
		"l_extendedprice * (100 - l_discount) / 100 >= 940",
		"1 = 1",
		"-9223372036854775808",
		"((((((((1))))))))",
		"DATE '1994-02-29'",
		"'",
		"l_shipdate",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	sch := parseSchema()
	row := sampleRow()
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(sch, src)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		_ = e.Eval(row) // evaluation must be total on any parsed tree
		_ = e.String()  // the EXPLAIN rendering must be total too
		rendered := Render(e)
		e2, err := Parse(sch, rendered)
		if err != nil {
			t.Fatalf("Parse(%q) ok but Render %q does not re-parse: %v", src, rendered, err)
		}
		if Render(e2) != rendered {
			t.Fatalf("Render not a fixpoint: %q re-parses to %q", rendered, Render(e2))
		}
		v1, v2 := e.Eval(row), e2.Eval(row)
		if v1.Int != v2.Int || string(v1.Bytes) != string(v2.Bytes) {
			t.Fatalf("replayed predicate disagrees: %q = %v, %q = %v", src, v1, rendered, v2)
		}
		_ = e.Ops()
		_ = e.Columns(nil)
		checkKernels(t, e)
	})
}

// kernelRows is a batch over parseSchema's columns with the edge values
// kernels must agree with Eval on: zero divisors, negative and extreme
// integers, and empty, short and space-padded CHAR values.
func kernelRows() (*schema.Batch, []TupleRow) {
	ints := [][]int64{
		{2300, 1000, 6, 8932, 0, -1, 1<<31 - 1, -1 << 31},
		{1000, 0, -7, 0, 5, 100, 2, -3},
		{6, 0, 0, -1, 7, 100, 5, 2},
		{8932, 0, 8800, 9000, -1, 8766, 1<<31 - 1, 0},
	}
	strs := [][][]byte{
		{[]byte("R"), []byte(""), []byte("A"), []byte(" "), []byte("N"), []byte("R"), []byte("Z"), []byte("a")},
		{[]byte("PROMO BRUSHED STEEL"), []byte(""), []byte("PROMO"), []byte("PROM"),
			[]byte("STANDARD POLISHED TIN    "), []byte("promo x"), []byte("PROMO X                  "), []byte("ECONOMY")},
	}
	n := len(ints[0])
	b := schema.NewBatch(6)
	b.SetLen(n)
	rows := make([]TupleRow, n)
	for i := range rows {
		rows[i] = make(TupleRow, 6)
	}
	for c, vec := range ints {
		b.SetInt64Vec(c, vec)
		for i, v := range vec {
			rows[i][c] = schema.IntVal(v)
		}
	}
	for c, vec := range strs {
		b.SetBytesVec(4+c, vec)
		for i, v := range vec {
			rows[i][4+c] = schema.Value{Bytes: v}
		}
	}
	return b, rows
}

// checkKernels holds e's compiled kernels to Eval over kernelRows under
// a full, a partial and an empty selection: every parsed expression is
// in the batch compiler's class, a CHAR expression in a numeric or
// boolean slot evaluates to zero, and Select keeps exactly the rows
// Eval finds non-zero.
func checkKernels(t *testing.T, e Expr) {
	t.Helper()
	k, ok := CompileBatch(e)
	if !ok {
		t.Fatalf("parsed %s does not compile to kernels", e)
	}
	b, rows := kernelRows()
	for _, sel := range [][]int32{{0, 1, 2, 3, 4, 5, 6, 7}, {1, 4, 5, 7}, {}} {
		if e.Kind() == schema.Char {
			got := k.EvalBytes(b, append([]int32(nil), sel...), nil)
			for i, r := range sel {
				if want := e.Eval(rows[r]).Bytes; string(got[i]) != string(want) {
					t.Fatalf("%s on row %d: kernel %q, Eval %q", e, r, got[i], want)
				}
			}
		}
		ints := k.EvalInt64(b, append([]int32(nil), sel...), nil)
		var keep []int32
		for i, r := range sel {
			want := e.Eval(rows[r]).Int
			if ints[i] != want {
				t.Fatalf("%s on row %d: kernel %d, Eval %d", e, r, ints[i], want)
			}
			if want != 0 {
				keep = append(keep, r)
			}
		}
		if got := k.Select(b, append([]int32(nil), sel...)); !slices.Equal(got, keep) {
			t.Fatalf("%s: Select kept %v, Eval %v", e, got, keep)
		}
	}
}

// randomSource draws the text of a random well-typed expression of the
// given kind ('n' numeric, 'b' boolean, 'c' CHAR) over parseSchema.
func randomSource(rng *rand.Rand, kind byte, depth int) string {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	leaf := depth <= 0 || rng.Intn(3) == 0
	switch kind {
	case 'n':
		if leaf {
			return pick("l_quantity", "l_extendedprice", "l_discount", "l_shipdate", "0", "7", "-3",
				"2147483647", "DATE '1994-06-15'")
		}
		switch rng.Intn(4) {
		case 0:
			return "-" + randomSource(rng, 'n', depth-1)
		case 1:
			return "CASE WHEN " + randomSource(rng, 'b', depth-1) + " THEN " +
				randomSource(rng, 'n', depth-1) + " ELSE " + randomSource(rng, 'n', depth-1) + " END"
		default:
			return "(" + randomSource(rng, 'n', depth-1) + pick(" + ", " - ", " * ", " / ") +
				randomSource(rng, 'n', depth-1) + ")"
		}
	case 'c':
		if leaf {
			return pick("l_returnflag", "p_type", "'PROMO'", "''", "'R'")
		}
		return "CASE WHEN " + randomSource(rng, 'b', depth-1) + " THEN " +
			randomSource(rng, 'c', depth-1) + " ELSE " + randomSource(rng, 'c', depth-1) + " END"
	}
	cmp := pick(" = ", " <> ", " < ", " <= ", " > ", " >= ")
	switch rng.Intn(7) {
	case 0:
		return randomSource(rng, 'n', depth-1) + cmp + randomSource(rng, 'n', depth-1)
	case 1:
		return randomSource(rng, 'c', depth-1) + cmp + randomSource(rng, 'c', depth-1)
	case 2:
		return randomSource(rng, 'c', depth-1) + pick(" LIKE ", " NOT LIKE ") + pick("'PROMO%'", "'%'", "'R%'")
	case 3:
		return randomSource(rng, 'n', depth-1) + pick(" BETWEEN ", " NOT BETWEEN ") +
			randomSource(rng, 'n', depth-1) + " AND " + randomSource(rng, 'n', depth-1)
	case 4:
		return "NOT (" + randomSource(rng, 'b', depth-1) + ")"
	case 5:
		return "(" + randomSource(rng, 'b', depth-1) + pick(" AND ", " OR ") + randomSource(rng, 'b', depth-1) + ")"
	default:
		return "l_discount > 5 AND l_quantity < 2400"
	}
}

// TestParsedExpressionsCompileProperty is the batch compiler's coverage
// of the parser's class: every random well-typed expression parses,
// compiles to kernels, and evaluates on every row exactly as Eval does.
func TestParsedExpressionsCompileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	s := parseSchema()
	for i := 0; i < 2000; i++ {
		src := randomSource(rng, "nbc"[rng.Intn(3)], 1+rng.Intn(4))
		e, err := Parse(s, src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		checkKernels(t, e)
	}
}
