package page_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/schema"
)

// TestLazyDecodeMatchesEagerProperty is the property lazy decode and
// the branch-free selection kernels rest on: over random schemas,
// layouts, pages and predicates, kernels run on a page.Columns batch —
// numeric columns decoded only at the rows a kernel asks for — select
// the same rows and compute the same values as the same kernels on a
// batch decoded eagerly by Int64ColumnInto, and both match the scalar
// evaluator row by row. A full read of any column afterwards (Int64Vec,
// Value) matches the eager vector. Several pages go through one
// Columns, so a row left stale from an earlier page cannot hide.
func TestLazyDecodeMatchesEagerProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 300; trial++ {
		s := randomSchema(rng)
		layout := page.Layout(rng.Intn(2))
		pages := randomPages(rng, s, layout)
		nums := numericColumns(s)
		pred := randomPredicate(rng, s, nums, 3)
		val := randomValue(rng, s, nums, 2)
		name := fmt.Sprintf("trial %d: %v %v, WHERE %s, SELECT %s", trial, layout, s, pred, val)

		all := make([]int, s.NumColumns())
		for c := range all {
			all[c] = c
		}
		lazy := page.NewColumns(s, layout, all, &schema.TupleArena{})
		lazyPred, eagerPred := compile(t, pred), compile(t, pred)
		lazyVal, eagerVal := compile(t, val), compile(t, val)
		r := page.ReaderFor(s)
		for pg, buf := range pages {
			if err := r.Bind(buf); err != nil {
				t.Fatalf("%s: page %d: %v", name, pg, err)
			}
			eager := eagerBatch(r)
			sel := lazy.Decode(r)
			ident := slices.Clone(sel)

			var want []int32
			var wantVals []int64
			var tup schema.Tuple
			for i := 0; i < r.Count(); i++ {
				tup = r.Tuple(tup, i)
				if pred.Eval(expr.TupleRow(tup)).Int != 0 {
					want = append(want, int32(i))
					wantVals = append(wantVals, val.Eval(expr.TupleRow(tup)).Int)
				}
			}
			if got := eagerPred.Select(eager, ident); !slices.Equal(got, want) {
				t.Fatalf("%s: page %d: eager kernel selects %v, scalar %v", name, pg, got, want)
			}
			got := lazyPred.Select(lazy.Batch, sel)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: page %d: lazy kernel selects %v, scalar %v", name, pg, got, want)
			}
			if gv, ev := lazyVal.EvalInt64(lazy.Batch, got, nil), eagerVal.EvalInt64(eager, want, nil); !slices.Equal(gv, wantVals) || !slices.Equal(ev, wantVals) {
				t.Fatalf("%s: page %d: lazy values %v, eager %v, scalar %v", name, pg, gv, ev, wantVals)
			}
			// An empty selection decodes nothing and selects nothing.
			if out := lazyPred.Select(lazy.Batch, got[:0]); len(out) != 0 {
				t.Fatalf("%s: page %d: empty selection selected %v", name, pg, out)
			}
			for _, c := range nums {
				if g, w := lazy.Batch.Int64Vec(c), eager.Int64Vec(c); !slices.Equal(g, w) {
					t.Fatalf("%s: page %d: column %d in full: lazy %v, eager %v", name, pg, c, g, w)
				}
			}
			for i := 0; i < r.Count(); i++ {
				for c := 0; c < s.NumColumns(); c++ {
					if g, w := lazy.Batch.Value(c, i), eager.Value(c, i); g.Int != w.Int || string(g.Bytes) != string(w.Bytes) {
						t.Fatalf("%s: page %d: Value(%d, %d) lazy %v, eager %v", name, pg, c, i, g, w)
					}
				}
			}
		}
	}
}

func compile(t *testing.T, e expr.Expr) *expr.BatchExpr {
	t.Helper()
	k, ok := expr.CompileBatch(e)
	if !ok {
		t.Fatalf("%s does not compile", e)
	}
	return k
}

// eagerBatch decodes every column of the bound page r in full.
func eagerBatch(r *page.Reader) *schema.Batch {
	s := r.Schema()
	b := schema.NewBatch(s.NumColumns())
	b.SetLen(r.Count())
	for c := 0; c < s.NumColumns(); c++ {
		if s.Column(c).Kind == schema.Char {
			b.SetBytesVec(c, r.BytesColumnInto(c, nil))
		} else {
			b.SetInt64Vec(c, r.Int64ColumnInto(c, nil))
		}
	}
	return b
}

var kinds = []schema.Kind{schema.Int32, schema.Int64, schema.Date, schema.Char}

func randomSchema(rng *rand.Rand) *schema.Schema {
	cols := make([]schema.Column, 2+rng.Intn(5))
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprint("c", i), Kind: kinds[rng.Intn(len(kinds))]}
		if cols[i].Kind == schema.Char {
			cols[i].Len = 1 + rng.Intn(6)
		}
	}
	// At least one numeric column for the kernels to read.
	cols[0].Kind, cols[0].Len = kinds[rng.Intn(3)], 0
	return schema.New(cols...)
}

func numericColumns(s *schema.Schema) []int {
	var out []int
	for c := 0; c < s.NumColumns(); c++ {
		if s.Column(c).Kind != schema.Char {
			out = append(out, c)
		}
	}
	return out
}

// randomPages builds one to three sealed pages, the first sometimes
// empty, the rest partly or wholly full.
func randomPages(rng *rand.Rand, s *schema.Schema, l page.Layout) [][]byte {
	b := page.NewBuilder(s, l)
	out := make([][]byte, 1+rng.Intn(3))
	for p := range out {
		b.Reset(uint32(p))
		n := rng.Intn(b.Capacity() + 1)
		if p == 0 && rng.Intn(4) == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			t := make(schema.Tuple, s.NumColumns())
			for c := range t {
				t[c] = randomValue1(rng, s.Column(c))
			}
			b.Append(t)
		}
		out[p] = append([]byte(nil), b.Finish()...)
	}
	return out
}

func randomValue1(rng *rand.Rand, c schema.Column) schema.Value {
	switch c.Kind {
	case schema.Char:
		buf := make([]byte, rng.Intn(c.Len+1))
		for i := range buf {
			buf[i] = byte('a' + rng.Intn(3))
		}
		return schema.Value{Bytes: buf}
	case schema.Int64:
		return schema.IntVal(edgeOr(rng, math.MinInt64, math.MaxInt64))
	default:
		return schema.IntVal(edgeOr(rng, math.MinInt32, math.MaxInt32))
	}
}

// edgeOr draws lo or hi now and then, else a small value, so
// comparisons both tie and split.
func edgeOr(rng *rand.Rand, lo, hi int64) int64 {
	switch rng.Intn(10) {
	case 0:
		return lo
	case 1:
		return hi
	default:
		return int64(rng.Intn(21) - 10)
	}
}

func col(s *schema.Schema, c int) expr.Col {
	return expr.Col{Index: c, Name: s.Column(c).Name, K: s.Column(c).Kind}
}

func constant(rng *rand.Rand) expr.Const {
	return expr.IntConst(edgeOr(rng, math.MinInt64, math.MaxInt64))
}

// randomPredicate builds a boolean tree over the numeric columns nums:
// column-versus-constant comparisons (the fused kernels), comparisons of
// arithmetic, conjunctions, disjunctions and negations. Columns repeat,
// so the same column is asked for at several selections.
func randomPredicate(rng *rand.Rand, s *schema.Schema, nums []int, depth int) expr.Expr {
	pick := func() expr.Col { return col(s, nums[rng.Intn(len(nums))]) }
	op := func() expr.CmpOp { return expr.CmpOp(rng.Intn(6)) }
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return expr.Cmp{Op: op(), L: pick(), R: constant(rng)}
		case 1:
			return expr.Cmp{Op: op(), L: pick(), R: pick()}
		default:
			return expr.Cmp{Op: op(), L: randomValue(rng, s, nums, 1), R: constant(rng)}
		}
	}
	switch rng.Intn(5) {
	case 0, 1:
		terms := make([]expr.Expr, 2+rng.Intn(3))
		for i := range terms {
			terms[i] = randomPredicate(rng, s, nums, depth-1)
		}
		return expr.And{Terms: terms}
	case 2:
		return expr.Or{Terms: []expr.Expr{randomPredicate(rng, s, nums, depth-1), randomPredicate(rng, s, nums, depth-1)}}
	case 3:
		return expr.Not{E: randomPredicate(rng, s, nums, depth-1)}
	default:
		return randomPredicate(rng, s, nums, 0)
	}
}

// randomValue builds a numeric expression over nums.
func randomValue(rng *rand.Rand, s *schema.Schema, nums []int, depth int) expr.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(4) == 0 {
			return constant(rng)
		}
		return col(s, nums[rng.Intn(len(nums))])
	}
	return expr.Arith{Op: expr.ArithOp(rng.Intn(4)), L: randomValue(rng, s, nums, depth-1), R: randomValue(rng, s, nums, depth-1)}
}
