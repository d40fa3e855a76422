package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"smartssd/internal/bufpool"
	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/ssd"
)

// collectFixture is a probe table and a build table whose join key
// repeats and whose CHAR column is wider than a word, on one device.
type collectFixture struct {
	dev          *ssd.Device
	probe, build *heap.File
}

func probeSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "p_id", Kind: schema.Int64},
		schema.Column{Name: "p_key", Kind: schema.Int32},
		schema.Column{Name: "p_val", Kind: schema.Int32},
		schema.Column{Name: "p_tag", Kind: schema.Char, Len: 8},
	)
}

func buildSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "b_key", Kind: schema.Int32},
		schema.Column{Name: "b_val", Kind: schema.Int64},
		schema.Column{Name: "b_name", Kind: schema.Char, Len: 12},
	)
}

func newCollectFixture(t *testing.T, rng *rand.Rand) *collectFixture {
	t.Helper()
	layout := page.NSM
	if rng.Intn(2) == 1 {
		layout = page.PAX
	}
	fx := &collectFixture{dev: newDev(t)}
	var alloc heap.Allocator
	var err error
	if fx.build, err = heap.Create("B", fx.dev, &alloc, buildSchema(), layout, 16); err != nil {
		t.Fatal(err)
	}
	if fx.probe, err = heap.Create("P", fx.dev, &alloc, probeSchema(), layout, 256); err != nil {
		t.Fatal(err)
	}
	nKeys := 5 + rng.Intn(200)
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
	app := fx.build.NewAppender()
	for _, r := range rows {
		if err := app.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	tags := []string{"alpha", "beta", "PROMO x", "delta"}
	app = fx.probe.NewAppender()
	for i, n := 0, 500+rng.Intn(3000); i < n; i++ {
		err := app.Append(schema.Tuple{
			schema.IntVal(int64(i)),
			schema.IntVal(rng.Int63n(int64(nKeys + 5))),
			schema.IntVal(rng.Int63n(1000)),
			schema.StrVal(tags[rng.Intn(len(tags))]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	return fx
}

// randomCollectPlan draws a plan of every shape Collect runs: scan or
// join, probe-scan filters (some that keep nothing), residual filters
// over build columns, duplicate build keys, projections of build CHAR
// columns, build columns read by several expressions, and grouped or
// scalar aggregates. pool is attached to every
// scan.
func randomCollectPlan(rng *rand.Rand, fx *collectFixture, pool *bufpool.Pool) Operator {
	ps := probeSchema()
	np := ps.NumColumns()
	bVal := expr.Col{Index: np + 1, Name: "b_val", K: schema.Int64}
	bName := expr.Col{Index: np + 2, Name: "b_name", K: schema.Char}
	scan := &TableScan{File: fx.probe, Pool: pool}
	if rng.Intn(4) == 0 {
		scan.From = rng.Int63n(fx.probe.Pages())
		scan.Count = rng.Int63n(fx.probe.Pages() - scan.From + 1)
	}
	switch rng.Intn(4) {
	case 0:
		scan.Filter = expr.Cmp{Op: expr.LT, L: expr.ColRef(ps, "p_val"), R: expr.IntConst(rng.Int63n(1000))}
	case 1:
		scan.Filter = expr.Cmp{Op: expr.LT, L: expr.ColRef(ps, "p_val"), R: expr.IntConst(-1)}
	case 2:
		scan.Filter = expr.LikePrefix{E: expr.ColRef(ps, "p_tag"), Prefix: "PROMO"}
	}
	var input Operator = scan
	join := rng.Intn(3) > 0
	if join {
		input = &HashJoin{Build: &TableScan{File: fx.build, Pool: pool}, Probe: scan, BuildKey: 0, ProbeKey: 1}
		switch rng.Intn(3) {
		case 0:
			input = &Filter{Input: input, Pred: expr.Cmp{Op: expr.GE, L: bVal, R: expr.IntConst(rng.Int63n(1000))}}
		case 1:
			input = &Filter{Input: input, Pred: expr.Or{Terms: []expr.Expr{
				expr.LikePrefix{E: bName, Prefix: "name-1"},
				expr.Cmp{Op: expr.LT, L: expr.ColRef(ps, "p_val"), R: expr.IntConst(rng.Int63n(300))},
			}}}
		}
	}
	if rng.Intn(2) == 0 {
		cols := []OutputCol{
			{Name: "p_id", E: expr.ColRef(ps, "p_id")},
			{Name: "p_tag", E: expr.ColRef(ps, "p_tag")},
		}
		if join {
			cols = append(cols, OutputCol{Name: "b_name", E: bName}, OutputCol{Name: "b_val", E: bVal},
				OutputCol{Name: "b_val2", E: expr.Arith{Op: expr.Mul, L: bVal, R: expr.IntConst(2)}})
		}
		return &Project{Input: input, Cols: cols}
	}
	agg := &Aggregate{Input: input, Aggs: []AggSpec{
		{Kind: Count, Name: "c"},
		{Kind: Sum, E: expr.ColRef(ps, "p_val"), Name: "s"},
		{Kind: Min, E: expr.ColRef(ps, "p_id"), Name: "lo"},
		{Kind: Max, E: expr.ColRef(ps, "p_val"), Name: "hi"},
	}}
	switch rng.Intn(3) {
	case 0:
		agg.GroupBy = []int{ps.MustColumnIndex("p_tag")}
	case 1:
		if join {
			agg.GroupBy = []int{np + 2, ps.MustColumnIndex("p_tag")}
			agg.Aggs = append(agg.Aggs, AggSpec{Kind: Sum, E: bVal, Name: "sb"}, AggSpec{Kind: Max, E: bVal, Name: "mb"})
		}
	}
	return agg
}

// collectOutcome is everything a run shows: rows, completion, Stats and
// the host CPU's accounting.
type collectOutcome struct {
	rows   string
	end    time.Duration
	stats  Stats
	busy   time.Duration
	served int64
	ops    int64
}

// TestCollectMatchesReferenceProperty is Collect's contract: on every
// plan shape it runs, it returns the reference interpreter's rows,
// completion time and Stats, and charges the host CPU the same busy
// time in the same number of requests. Some pooled cases start with the
// build side resident in a two-frame pool that the probe scan evicts,
// and overwrites, while build CHAR values are still being projected.
func TestCollectMatchesReferenceProperty(t *testing.T) {
	const trials = 40
	rng := rand.New(rand.NewSource(28))
	var scratch Scratch
	for trial := 0; trial < trials; trial++ {
		fx := newCollectFixture(t, rng)
		// The pool is absent, cold, warm with both tables, or two frames
		// holding the dirty build side.
		poolMode := rng.Intn(4)
		var pool *bufpool.Pool
		switch poolMode {
		case 1, 2:
			pool = bufpool.New(1024, nil)
		case 3:
			// Evicting a dirty frame hands its buffer back for reuse: the
			// flush scribbles over it, as a later fill would.
			pool = bufpool.New(2, func(_ int64, data []byte) error {
				for i := range data {
					data[i] = '#'
				}
				return nil
			})
		}
		op := randomCollectPlan(rng, fx, pool)
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			run := func(collect func(*Ctx, Operator) ([]schema.Tuple, time.Duration, error)) collectOutcome {
				t.Helper()
				if pool != nil {
					pool.Clear()
				}
				switch poolMode {
				case 2:
					resident(t, fx, pool, false, fx.build, fx.probe)
				case 3:
					resident(t, fx, pool, true, fx.build)
				}
				fx.dev.ResetTiming()
				scratch.Reset()
				ctx := NewCtx(DefaultHost())
				ctx.Scratch = &scratch
				rows, end, err := collect(ctx, op)
				if err != nil {
					t.Fatal(err)
				}
				cpu := ctx.Host.CPU
				return collectOutcome{renderRows(rows), end, ctx.Stats, cpu.BusyTime(), cpu.Served(), cpu.Ops()}
			}
			want, got := run(refCollect), run(Collect)
			if got != want {
				t.Fatalf("plan\n%sreference %+v\ncollect   %+v", ExplainTree(op), want, got)
			}
		})
	}
}

// resident reads every page of files into the pool as a host copy,
// dirty or clean.
func resident(t *testing.T, fx *collectFixture, pool *bufpool.Pool, dirty bool, files ...*heap.File) {
	t.Helper()
	for _, f := range files {
		for lba := f.StartLBA(); lba < f.StartLBA()+f.Pages(); lba++ {
			data, _, err := fx.dev.ReadPage(lba, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.Put(lba, data); err != nil {
				t.Fatal(err)
			}
			if err := pool.Unpin(lba, dirty); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func renderRows(rows []schema.Tuple) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(&b, "%d:%q ", v.Int, v.Bytes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCollectRejectsOtherShapes checks that a plan outside the engine's
// shapes is an error, not a second execution path.
func TestCollectRejectsOtherShapes(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 100)
	scan := &TableScan{File: fx.s}
	pred := expr.Cmp{Op: expr.LT, L: expr.ColRef(testSchemaS(), "s_val"), R: expr.IntConst(5)}
	for _, op := range []Operator{
		scan,
		&HashJoin{Build: &TableScan{File: fx.r}, Probe: scan, BuildKey: 0, ProbeKey: 1},
		selectAll(&Filter{Input: scan, Pred: pred}),
		selectAll(&HashJoin{Build: &TableScan{File: fx.r, Filter: pred}, Probe: scan, BuildKey: 0, ProbeKey: 1}),
	} {
		if _, _, err := Collect(NewCtx(DefaultHost()), op); err == nil {
			t.Errorf("Collect ran\n%s", ExplainTree(op))
		}
	}
}
