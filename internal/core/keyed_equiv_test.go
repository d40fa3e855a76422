package core

import (
	"fmt"
	"math/rand"
	"testing"

	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// dupDimSchema is a join build side whose key repeats and whose CHAR
// column is wider than a word.
func dupDimSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "d_key", Kind: schema.Int32},
		schema.Column{Name: "d_val", Kind: schema.Int64},
		schema.Column{Name: "d_name", Kind: schema.Char, Len: 12},
	)
}

// loadDupDim loads nKeys keys, each filed one to three times.
func loadDupDim(t *testing.T, e *Engine, rng *rand.Rand, l page.Layout, nKeys int) {
	t.Helper()
	if _, err := e.CreateTable("dupdim", dupDimSchema(), l, 64, OnSSD); err != nil {
		t.Fatal(err)
	}
	var rows []schema.Tuple
	for k := 0; k < nKeys; k++ {
		for c := 1 + rng.Intn(3); c > 0; c-- {
			rows = append(rows, schema.Tuple{
				schema.IntVal(int64(k)),
				schema.IntVal(rng.Int63n(1000)),
				schema.StrVal(fmt.Sprintf("name-%d", rng.Intn(4))),
			})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if err := e.Load("dupdim", sliceFeeder(rows)); err != nil {
		t.Fatal(err)
	}
}

// randomKeyedSpec draws a query that exercises the keyed hash table:
// joins against duplicate build keys, residual filters over probe
// columns only or over build columns too, joined projections (whose
// row order pins the probe's row-then-chain emit order), and grouped
// aggregates keyed wider than one word.
func randomKeyedSpec(rng *rand.Rand) QuerySpec {
	fact := randomFactSchema()
	np := fact.NumColumns()
	dName := expr.Col{Index: np + 2, Name: "d_name", K: schema.Char}
	dVal := expr.Col{Index: np + 1, Name: "d_val", K: schema.Int64}
	spec := QuerySpec{Table: "fact", EstSelectivity: 0.3}
	join := rng.Intn(3) > 0
	if join {
		spec.Join = &JoinClause{BuildTable: "dupdim", BuildKey: "d_key", ProbeKey: "k"}
	}

	var terms []expr.Expr
	if rng.Intn(3) > 0 {
		terms = append(terms, expr.Cmp{Op: expr.LT, L: expr.ColRef(fact, "v1"), R: expr.IntConst(rng.Int63n(1000))})
	}
	if rng.Intn(3) == 0 {
		terms = append(terms, expr.LikePrefix{E: expr.ColRef(fact, "tag"), Prefix: "PROMO"})
	}
	if join && rng.Intn(2) == 0 {
		terms = append(terms, expr.Cmp{Op: expr.GE, L: dVal, R: expr.IntConst(rng.Int63n(1000))})
	}
	switch len(terms) {
	case 0:
	case 1:
		spec.Filter = terms[0]
	default:
		spec.Filter = expr.And{Terms: terms}
	}

	switch rng.Intn(3) {
	case 0:
		spec.Output = []plan.OutputCol{
			{Name: "id", E: expr.ColRef(fact, "id")},
			{Name: "tag", E: expr.ColRef(fact, "tag")},
		}
		if join {
			spec.Output = append(spec.Output,
				plan.OutputCol{Name: "d_name", E: dName},
				plan.OutputCol{Name: "d_val", E: dVal})
		}
	default:
		// tag and k pack into 12 bytes; d_name and tag into 20.
		spec.GroupBy = []int{fact.MustColumnIndex("tag"), fact.MustColumnIndex("k")}
		if join && rng.Intn(2) == 0 {
			spec.GroupBy = []int{np + 2, fact.MustColumnIndex("tag")}
		}
		if rng.Intn(3) == 0 {
			spec.GroupBy = nil
		}
		spec.Aggs = []plan.AggSpec{
			{Kind: plan.Count, Name: "c"},
			{Kind: plan.Sum, E: expr.ColRef(fact, "v2"), Name: "s"},
			{Kind: plan.Min, E: expr.ColRef(fact, "v1"), Name: "lo"},
			{Kind: plan.Max, E: expr.ColRef(fact, "id"), Name: "hi"},
		}
		if join {
			spec.Aggs = append(spec.Aggs, plan.AggSpec{Kind: plan.Sum, E: dVal, Name: "sd"})
		}
	}
	return spec
}

// TestKeyedDeviceHostEquivalenceProperty is the keyed hash table's
// contract across execution paths: for random joins, groupings and
// projections, the host and the device return the same rows in the
// same order, and on each of them the scalar and vectorized tunings
// agree on everything — rows, elapsed time, and every per-resource
// report. The table is wall-clock machinery; no virtual number may
// feel which loop drove it.
func TestKeyedDeviceHostEquivalenceProperty(t *testing.T) {
	const trials = 16
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < trials; trial++ {
		layout := page.NSM
		if rng.Intn(2) == 1 {
			layout = page.PAX
		}
		e := newEngine(t)
		nKeys := 5 + rng.Intn(40)
		loadRandomTables(t, e, rng, layout, 1500+rng.Intn(3000), nKeys+3)
		loadDupDim(t, e, rng, layout, nKeys)
		spec := randomKeyedSpec(rng)
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			var rows [][]schema.Tuple
			for _, mode := range []Mode{ForceHost, ForceDevice} {
				var want string
				for _, scalar := range []bool{true, false} {
					c, err := e.Clone()
					if err != nil {
						t.Fatal(err)
					}
					c.SetExecTuning(scalar, 0)
					res := mustRun(t, c, spec, mode)
					got := resultFingerprint(res)
					if scalar {
						want = got
						rows = append(rows, res.Rows)
						continue
					}
					if got != want {
						t.Fatalf("mode %v: vectorized diverged from scalar (spec %+v):\n--- scalar ---\n%s--- vectorized ---\n%s",
							mode, spec, want, got)
					}
				}
			}
			requireSameRows(t, rows[0], rows[1])
		})
	}
}
