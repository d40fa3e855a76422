package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"smartssd/internal/expr"
	"smartssd/internal/schema"
)

func groupsTestSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "flag", Kind: schema.Char, Len: 1},
		schema.Column{Name: "name", Kind: schema.Char, Len: 10},
		schema.Column{Name: "v", Kind: schema.Int32},
	)
}

func groupsTestAggs(s *schema.Schema) []AggSpec {
	v := expr.ColRef(s, "v")
	return []AggSpec{
		{Kind: Sum, E: v, Name: "s"},
		{Kind: Count, Name: "c"},
		{Kind: Min, E: v, Name: "lo"},
		{Kind: Max, E: v, Name: "hi"},
	}
}

func groupsRows(g *Groups) string {
	out := make(schema.Tuple, g.Width())
	var s string
	for i := 0; i < g.Rows(); i++ {
		g.Row(i, out)
		for _, v := range out {
			if v.Bytes != nil {
				s += fmt.Sprintf("%q ", v.Bytes)
			} else {
				s += fmt.Sprintf("%d ", v.Int)
			}
		}
		s += "\n"
	}
	return s
}

// TestGroupsRowAndBatchFoldsAgree folds the same rows one at a time
// and a batch at a time, grouped by a one-word and by a multi-word
// key: both must give the same groups, in first-seen order, with the
// same aggregates.
func TestGroupsRowAndBatchFoldsAgree(t *testing.T) {
	s := groupsTestSchema()
	aggs := groupsTestAggs(s)
	rng := rand.New(rand.NewSource(3))
	const n = 500
	rows := make([]schema.Tuple, n)
	flags, names, vs := make([][]byte, n), make([][]byte, n), make([]int64, n)
	for i := range rows {
		flags[i] = []byte{"AFNR"[rng.Intn(4)]}
		names[i] = []byte(fmt.Sprintf("name%d", rng.Intn(5)))
		vs[i] = rng.Int63n(2001) - 1000
		rows[i] = schema.Tuple{{Bytes: flags[i]}, {Bytes: names[i]}, schema.IntVal(vs[i])}
	}
	b := schema.NewBatch(3)
	b.SetLen(n)
	b.SetBytesVec(0, flags)
	b.SetBytesVec(1, names)
	b.SetInt64Vec(2, vs)
	kernels := make([]*expr.BatchExpr, len(aggs))
	for i, a := range aggs {
		if a.E != nil {
			kernels[i], _ = expr.CompileBatch(a.E)
		}
	}
	for _, groupBy := range [][]int{{0}, {1, 0}, nil} {
		one := NewGroups(aggs, s, groupBy)
		for _, r := range rows {
			row := expr.TupleRow(r)
			one.FoldRow(one.GroupRow(&row), &row)
		}
		batch := NewGroups(aggs, s, groupBy)
		for lo := 0; lo < n; lo += 128 {
			sel := make([]int32, 0, 128)
			for i := lo; i < min(n, lo+128); i++ {
				sel = append(sel, int32(i))
			}
			batch.FoldBatch(b, sel, kernels)
		}
		want, got := groupsRows(one), groupsRows(batch)
		if want != got {
			t.Fatalf("group by %v: row fold\n%s\nbatch fold\n%s", groupBy, want, got)
		}
		// First-seen order: group i's key is the i-th distinct key met.
		var firsts []string
		seen := map[string]bool{}
		for _, r := range rows {
			var k string
			for _, c := range groupBy {
				k += string(r[c].Bytes) + "|"
			}
			if !seen[k] {
				seen[k] = true
				firsts = append(firsts, k)
			}
		}
		out := make(schema.Tuple, one.Width())
		for i, k := range firsts {
			one.Row(i, out)
			var got string
			for c := range groupBy {
				got += string(out[c].Bytes) + "|"
			}
			if got != k {
				t.Fatalf("group by %v: group %d is %q, first seen %q", groupBy, i, got, k)
			}
		}
	}
}

// TestGroupsEmpty pins the empty-input convention: a grouped fold has
// no rows, a scalar one exactly one row of zeros — MIN and MAX too,
// never their fold identities.
func TestGroupsEmpty(t *testing.T) {
	s := groupsTestSchema()
	aggs := groupsTestAggs(s)
	if g := NewGroups(aggs, s, []int{0}); g.Rows() != 0 {
		t.Fatalf("grouped fold over nothing has %d rows", g.Rows())
	}
	g := NewGroups(aggs, s, nil)
	g.FoldBatch(schema.NewBatch(3), nil, nil)
	if got := groupsRows(g); got != "0 0 0 0 \n" {
		t.Fatalf("scalar fold over nothing = %q", got)
	}
}
