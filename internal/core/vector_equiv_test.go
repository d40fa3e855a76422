package core

import (
	"fmt"
	"math/rand"
	"testing"

	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/plan"
)

// TestVectorizedScalarEquivalenceProperty is the vectorized executor's
// contract: for random queries in the supported class, the host, device
// and hybrid paths return the Result pinned from the scalar executor —
// rows, virtual elapsed time, energy, host CPU stats, and the full
// per-resource report. Batching is a wall-clock optimization only; the
// simulated timeline must not feel it.
func TestVectorizedScalarEquivalenceProperty(t *testing.T) {
	const trials = 12
	rng := rand.New(rand.NewSource(20130622))
	pins := loadPinned(t, "vectorized_scalar")

	for trial := 0; trial < trials; trial++ {
		name := fmt.Sprintf("trial%02d", trial)
		t.Run(name, func(t *testing.T) {
			layout := page.NSM
			if rng.Intn(2) == 1 {
				layout = page.PAX
			}
			e := newEngine(t)
			nFact := 2000 + rng.Intn(4000)
			nDim := 5 + rng.Intn(60)
			loadRandomTables(t, e, rng, layout, nFact, nDim)
			pins.runPinned(t, name, e, randomSpec(rng, nDim))
		})
	}
}

// TestVectorizedEmptySelectionEquivalence pins the all-rows-filtered
// edge: a predicate no tuple satisfies leaves every selection vector
// empty, and the vectorized paths must still charge the scan exactly
// like the scalar loop did (page and per-tuple cycles are spent whether
// or not anything qualifies).
func TestVectorizedEmptySelectionEquivalence(t *testing.T) {
	fact := randomFactSchema()
	impossible := expr.Cmp{Op: expr.LT, L: expr.ColRef(fact, "v1"), R: expr.IntConst(-1)}
	specs := []struct {
		name string
		spec QuerySpec
	}{
		{"agg", QuerySpec{
			Table:  "fact",
			Filter: impossible,
			Aggs: []plan.AggSpec{
				{Kind: plan.Sum, E: expr.ColRef(fact, "v2"), Name: "s"},
				{Kind: plan.Count, Name: "c"},
			},
			EstSelectivity: 0.01,
		}},
		{"project", QuerySpec{
			Table:  "fact",
			Filter: impossible,
			Output: []plan.OutputCol{
				{Name: "id", E: expr.ColRef(fact, "id")},
			},
			EstSelectivity: 0.01,
		}},
		{"join-agg", QuerySpec{
			Table:  "fact",
			Join:   &JoinClause{BuildTable: "dim", BuildKey: "d_key", ProbeKey: "k"},
			Filter: impossible,
			Aggs: []plan.AggSpec{
				{Kind: plan.Count, Name: "c"},
			},
			EstSelectivity: 0.01,
		}},
	}

	pins := loadPinned(t, "empty_selection")
	for _, layout := range []page.Layout{page.NSM, page.PAX} {
		e := newEngine(t)
		rng := rand.New(rand.NewSource(7))
		loadRandomTables(t, e, rng, layout, 3000, 16)
		for _, sp := range specs {
			name := fmt.Sprintf("%v/%s", layout, sp.name)
			t.Run(name, func(t *testing.T) {
				for _, res := range pins.runPinned(t, name, e, sp.spec) {
					if len(sp.spec.Output) > 0 && len(res.Rows) != 0 {
						t.Fatalf("impossible predicate returned %d rows", len(res.Rows))
					}
				}
			})
		}
	}
}

// TestVectorizedQ6StyleEquivalence runs randomized Q6-shaped predicates
// (conjunctive range bands plus an arithmetic term, SUM/COUNT on top)
// against their pinned results. This is the workload class the
// vectorized executor optimizes hardest — fused compare kernels over a
// selective conjunction — so it gets its own denser property sweep.
func TestVectorizedQ6StyleEquivalence(t *testing.T) {
	const trials = 10
	rng := rand.New(rand.NewSource(1))
	fact := randomFactSchema()

	e := newEngine(t)
	loadRandomTables(t, e, rand.New(rand.NewSource(99)), page.NSM, 6000, 25)
	pins := loadPinned(t, "q6_style")

	for trial := 0; trial < trials; trial++ {
		lo := rng.Int63n(900)
		hi := lo + 1 + rng.Int63n(1000-lo)
		spec := QuerySpec{
			Table: "fact",
			Filter: expr.And{Terms: []expr.Expr{
				expr.Cmp{Op: expr.GE, L: expr.ColRef(fact, "v1"), R: expr.IntConst(lo)},
				expr.Cmp{Op: expr.LT, L: expr.ColRef(fact, "v1"), R: expr.IntConst(hi)},
				expr.Cmp{Op: expr.NE,
					L: expr.Arith{Op: expr.Mul, L: expr.ColRef(fact, "k"), R: expr.IntConst(2)},
					R: expr.IntConst(rng.Int63n(50))},
			}},
			Aggs: []plan.AggSpec{
				{Kind: plan.Sum, E: expr.Arith{Op: expr.Mul, L: expr.ColRef(fact, "v1"), R: expr.ColRef(fact, "v2")}, Name: "rev"},
				{Kind: plan.Count, Name: "c"},
			},
			EstSelectivity: float64(hi-lo) / 1000,
		}
		name := fmt.Sprintf("trial%02d", trial)
		t.Run(name, func(t *testing.T) {
			pins.runPinned(t, name, e, spec)
		})
	}
}
