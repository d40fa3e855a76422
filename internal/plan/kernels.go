package plan

import (
	"fmt"
	"slices"

	"smartssd/internal/expr"
	"smartssd/internal/schema"
)

// Kernels compiles es for vectorized evaluation through cache (nil
// compiles afresh); a nil expression gets a nil kernel. An expression
// outside the batch compiler's class is an error: both runtimes run
// every query through kernels.
func Kernels(cache map[string]*expr.BatchExpr, es ...expr.Expr) ([]*expr.BatchExpr, error) {
	out := make([]*expr.BatchExpr, len(es))
	for i, e := range es {
		if e == nil {
			continue
		}
		k, ok := expr.CompileCached(cache, e)
		if !ok {
			return nil, fmt.Errorf("plan: %s is outside the batch compiler's class", e)
		}
		out[i] = k
	}
	return out, nil
}

// Columns reports the distinct columns the expressions es read (a nil
// one reads none), in first-reference order, then those of extra not
// already listed.
func Columns(es []expr.Expr, extra ...int) []int {
	var cols []int
	add := func(c int) {
		if !slices.Contains(cols, c) {
			cols = append(cols, c)
		}
	}
	for _, e := range es {
		if e != nil {
			for _, c := range e.Columns(nil) {
				add(c)
			}
		}
	}
	for _, c := range extra {
		add(c)
	}
	return cols
}

// AggExprs reports the input expression of each aggregate (nil for
// COUNT(*)).
func AggExprs(aggs []AggSpec) []expr.Expr {
	es := make([]expr.Expr, len(aggs))
	for i, a := range aggs {
		es[i] = a.E
	}
	return es
}

// OutputExprs reports the expression of each output column.
func OutputExprs(cols []OutputCol) []expr.Expr {
	es := make([]expr.Expr, len(cols))
	for i, c := range cols {
		es[i] = c.E
	}
	return es
}

// Projector evaluates output kernels over a selection of a batch and
// assembles the result rows: the projection step of both runtimes.
type Projector struct {
	kernels []*expr.BatchExpr
	ints    [][]int64
	strs    [][][]byte
}

// NewProjector returns the projection through kernels, one per output
// column.
func NewProjector(kernels []*expr.BatchExpr) *Projector {
	return &Projector{
		kernels: kernels,
		ints:    make([][]int64, len(kernels)),
		strs:    make([][][]byte, len(kernels)),
	}
}

// Eval evaluates every output column for the selected rows of b.
func (p *Projector) Eval(b *schema.Batch, sel []int32) {
	for i, k := range p.kernels {
		if k.Kind() == schema.Char {
			p.strs[i] = k.EvalBytes(b, sel, p.strs[i])
		} else {
			p.ints[i] = k.EvalInt64(b, sel, p.ints[i])
		}
	}
}

// Row writes the k-th selected row of the last Eval into out. CHAR
// values may alias the batch's memory.
func (p *Projector) Row(k int, out schema.Tuple) {
	for i, kn := range p.kernels {
		if kn.Kind() == schema.Char {
			out[i] = schema.Value{Bytes: p.strs[i][k]}
		} else {
			out[i] = schema.Value{Int: p.ints[i][k]}
		}
	}
}
