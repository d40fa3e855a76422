package plan

import (
	"math"
	"slices"

	"smartssd/internal/expr"
	"smartssd/internal/schema"
)

// Groups folds rows into per-group aggregate accumulators: the GROUP BY
// state shared by the host operators, the in-device programs and the
// merges of partial results. Groups are keyed in a schema.KeyTable by
// their packed group columns and numbered in first-seen order, which is
// the order results come out in. A scalar aggregate is the one-group
// case with an empty key.
//
// Folding is wall-clock work only: callers charge it from cost-model
// constants. Not safe for concurrent use.
type Groups struct {
	aggs   []AggSpec
	layout *schema.KeyLayout
	table  schema.KeyTable // keys the groups; unused without group columns
	n      int             // groups opened
	acc    []int64         // group g's aggregate i at g*len(aggs)+i
	vals   []schema.Value  // group g's key values at g*len(key columns)
	arena  schema.TupleArena
	keys   []uint64 // packing scratch
	gids   []int32
	inputs [][]int64 // FoldBatch's aggregate inputs
}

// NewGroups returns the fold of aggs over rows of schema in, grouped by
// the columns groupBy (none for a scalar aggregate, and then in may be
// nil).
func NewGroups(aggs []AggSpec, in *schema.Schema, groupBy []int) *Groups {
	g := &Groups{}
	g.Reset(aggs, in, groupBy)
	return g
}

// Reset empties g for a new fold, keeping its memory. Rows reported
// before Reset are invalidated.
func (g *Groups) Reset(aggs []AggSpec, in *schema.Schema, groupBy []int) {
	g.aggs = aggs
	g.layout = in.KeyLayout(groupBy)
	if w := g.layout.Words(); w > 0 {
		g.table.Reset(w)
	}
	g.n = 0
	g.acc = g.acc[:0]
	clear(g.vals)
	g.vals = g.vals[:0]
	g.arena.Reset()
}

// PartialAggs reports the aggregates that merge partial results of
// aggs: partial counts add up, so COUNT merges as SUM.
func PartialAggs(aggs []AggSpec) []AggSpec {
	out := make([]AggSpec, len(aggs))
	for i, a := range aggs {
		out[i] = a
		if a.Kind == Count {
			out[i].Kind = Sum
		}
	}
	return out
}

// Width reports the columns of a result row: group keys, then
// aggregates.
func (g *Groups) Width() int { return len(g.layout.Cols()) + len(g.aggs) }

// Rows reports the number of result rows: one per group, and exactly
// one for a scalar aggregate even over no input.
func (g *Groups) Rows() int {
	if g.layout.Words() == 0 && g.n == 0 {
		return 1
	}
	return g.n
}

// Row writes result row i — the group's key values, then its
// aggregates — into out. A scalar aggregate over no input is a row of
// zeros. CHAR values alias g's memory until the next Reset.
func (g *Groups) Row(i int, out schema.Tuple) {
	nk := len(g.layout.Cols())
	if i >= g.n {
		for c := range out {
			out[c] = schema.IntVal(0)
		}
		return
	}
	copy(out, g.vals[i*nk:(i+1)*nk])
	na := len(g.aggs)
	for a, v := range g.acc[i*na : (i+1)*na] {
		out[nk+a] = schema.IntVal(v)
	}
}

// GroupRow reports the group of row r, opening it when new.
func (g *Groups) GroupRow(r expr.Row) int32 {
	if g.layout.Words() == 0 {
		return g.scalar()
	}
	cols := g.layout.Cols()
	key := g.keyScratch(g.layout.Words())
	clear(key)
	for i, c := range cols {
		g.layout.PackValue(key, i, r.Col(c))
	}
	id, added := g.table.Insert(key)
	if added {
		g.open()
		for _, c := range cols {
			g.addValue(r.Col(c))
		}
	}
	return id
}

// groupBatch reports the group of every selected row of b, opening new
// groups in selection order. Every group column must be populated in b.
// The result is valid until the next call.
func (g *Groups) groupBatch(b *schema.Batch, sel []int32) []int32 {
	g.gids = slices.Grow(g.gids[:0], len(sel))[:len(sel)]
	gids := g.gids
	w := g.layout.Words()
	if w == 0 {
		if len(sel) > 0 {
			g.scalar()
		}
		clear(gids)
		return gids
	}
	keys := g.keyScratch(len(sel) * w)
	g.layout.PackBatch(keys, b, sel)
	if w == 1 {
		g.table.InsertBatch1(keys, gids)
	} else {
		for k := range sel {
			gids[k], _ = g.table.Insert(keys[k*w : (k+1)*w])
		}
	}
	// New groups got ids in first-seen order: open each at its first row.
	for k := 0; g.n < g.table.Len(); k++ {
		if gids[k] == int32(g.n) {
			g.open()
			for _, c := range g.layout.Cols() {
				g.addValue(b.Value(c, int(sel[k])))
			}
		}
	}
	return gids
}

// FoldBatch folds the selected rows of b: one group-id vector for the
// selection, then each aggregate column by column, its input evaluated
// by kernels[i] (nil for COUNT).
func (g *Groups) FoldBatch(b *schema.Batch, sel []int32, kernels []*expr.BatchExpr) {
	gids := g.groupBatch(b, sel)
	if len(g.inputs) < len(kernels) {
		g.inputs = make([][]int64, len(kernels))
	}
	for i, k := range kernels {
		if k != nil {
			g.inputs[i] = k.EvalInt64(b, sel, g.inputs[i])
		}
		g.fold(i, gids, g.inputs[i])
	}
}

// fold folds aggregate i's values v (one per entry of gids, ignored
// for COUNT) into the groups gids names.
func (g *Groups) fold(i int, gids []int32, v []int64) {
	na := len(g.aggs)
	acc := g.acc
	switch g.aggs[i].Kind {
	case Count:
		for _, id := range gids {
			acc[int(id)*na+i]++
		}
	case Sum:
		for k, id := range gids {
			acc[int(id)*na+i] += v[k]
		}
	case Min:
		for k, id := range gids {
			if p := &acc[int(id)*na+i]; v[k] < *p {
				*p = v[k]
			}
		}
	case Max:
		for k, id := range gids {
			if p := &acc[int(id)*na+i]; v[k] > *p {
				*p = v[k]
			}
		}
	}
}

// FoldValue folds one value of aggregate i into group id.
func (g *Groups) FoldValue(id int32, i int, v int64) {
	p := &g.acc[int(id)*len(g.aggs)+i]
	switch g.aggs[i].Kind {
	case Count:
		*p++
	case Sum:
		*p += v
	case Min:
		*p = min(*p, v)
	case Max:
		*p = max(*p, v)
	}
}

// scalar reports the one group of a fold without group columns,
// opening it on first use.
func (g *Groups) scalar() int32 {
	if g.n == 0 {
		g.open()
	}
	return 0
}

// open appends a new group's accumulators: MIN and MAX start at the
// identity of their fold, so a group's first row sets them.
func (g *Groups) open() {
	g.n++
	for _, a := range g.aggs {
		var v int64
		switch a.Kind {
		case Min:
			v = math.MaxInt64
		case Max:
			v = math.MinInt64
		}
		g.acc = append(g.acc, v)
	}
}

func (g *Groups) addValue(v schema.Value) {
	if v.Bytes != nil {
		v.Bytes = g.arena.CloneBytes(v.Bytes)
	}
	g.vals = append(g.vals, v)
}

func (g *Groups) keyScratch(n int) []uint64 {
	if cap(g.keys) < n {
		g.keys = make([]uint64, n)
	}
	return g.keys[:n]
}
