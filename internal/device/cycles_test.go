package device

import (
	"fmt"
	"math/rand"
	"testing"

	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/ssd"
	"smartssd/internal/tpch"
)

// table is a heap file plus the tuples loaded into it, for computing a
// program's counts from the data.
type table struct {
	f    *heap.File
	rows []schema.Tuple
}

func loadTable(t *testing.T, dev *ssd.Device, alloc *heap.Allocator, name string, s *schema.Schema, l page.Layout, rows []schema.Tuple) table {
	t.Helper()
	f, err := heap.Create(name, dev, alloc, s, l, int64(len(rows))/int64(page.Capacity(s, l))+2)
	if err != nil {
		t.Fatal(err)
	}
	app := f.NewAppender()
	for _, r := range rows {
		if err := app.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	return table{f: f, rows: rows}
}

// drain collects a generator's tuples, which it may reuse.
func drain(next func() (schema.Tuple, bool)) []schema.Tuple {
	var out []schema.Tuple
	for t, ok := next(); ok; t, ok = next() {
		out = append(out, append(schema.Tuple(nil), t...))
	}
	return out
}

// expectedCounts computes q's totals from the loaded tuples: pages and
// rows from the extents, one filter evaluation per row or per
// (row, build row) pair, and the rows or pairs the filter passes. The
// caller sets the group count from the run's result rows.
func expectedCounts(q Query, probe table, build *table) Counts {
	pages := func(tb table) int64 {
		c := int64(page.Capacity(tb.f.Schema(), tb.f.Layout()))
		return (int64(len(tb.rows)) + c - 1) / c
	}
	pass := func(row schema.Tuple) bool {
		return q.Filter == nil || q.Filter.Eval(expr.TupleRow(row)).Int != 0
	}
	n := Counts{Pages: pages(probe), Rows: int64(len(probe.rows))}
	if build == nil {
		n.Evaluated = n.Rows
		for _, r := range probe.rows {
			if pass(r) {
				n.Survived++
			}
		}
		return n
	}
	n.BuildPages, n.BuildRows = pages(*build), int64(len(build.rows))
	matches := map[int64][]schema.Tuple{}
	for _, b := range build.rows {
		k := b[q.Join.BuildKey].Int
		matches[k] = append(matches[k], b)
	}
	for _, r := range probe.rows {
		for _, b := range matches[r[q.Join.ProbeKey].Int] {
			n.Evaluated++
			if pass(append(append(schema.Tuple{}, r...), b...)) {
				n.Survived++
			}
		}
	}
	return n
}

// checkIdentity runs q on a freshly reset device and requires that the
// device-CPU cycles the run charged equal q.Cycles over the run's own
// totals, and that those totals are the ones the data implies.
func checkIdentity(t *testing.T, name string, rt *Runtime, q Query, probe table, build *table) {
	t.Helper()
	rt.Device().ResetTiming()
	rows, _, got, err := rt.run(q)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var charged int64
	for _, g := range rt.Device().ResourceGroups() {
		if g.Name == "device-cpu" {
			for _, s := range g.Servers {
				charged += s.Served()
			}
		}
	}
	if want := q.Cycles(rt.Cost(), got); charged != want {
		t.Errorf("%s: run charged %d device-CPU cycles, Cycles(%+v) = %d", name, charged, got, want)
	}
	want := expectedCounts(q, probe, build)
	if len(q.Aggs) > 0 {
		want.Groups = int64(len(rows)) // one result row per emitted group
	} else if int64(len(rows)) != want.Survived {
		t.Errorf("%s: projected %d rows, the data passes %d", name, len(rows), want.Survived)
	}
	if got != want {
		t.Errorf("%s: run totals %+v, data implies %+v", name, got, want)
	}
}

// TestCyclesIdentityProperty is the contract between the device program
// and the planner: Query.Cycles, fed a run's actual counts, equals the
// device-CPU cycles that run charged, exactly. It covers the Q1, Q6
// and Q14 programs and seeded random grouped, joined and projected
// queries — with duplicate build keys, filters over build columns and
// empty selections — on NSM and PAX.
func TestCyclesIdentityProperty(t *testing.T) {
	const sf = 0.001
	li, pa := tpch.LineitemSchema(), tpch.PartSchema()
	liRows := drain(tpch.NewLineitemGen(sf, 1).Next)
	paRows := drain(tpch.NewPartGen(sf, 2).Next)
	for _, l := range []page.Layout{page.NSM, page.PAX} {
		t.Run(l.String(), func(t *testing.T) {
			dev := smallDevice(t)
			var alloc heap.Allocator
			lineitem := loadTable(t, dev, &alloc, "lineitem", li, l, liRows)
			part := loadTable(t, dev, &alloc, "part", pa, l, paRows)
			rt := NewRuntime(dev, DefaultCostModel())

			checkIdentity(t, "q6", rt, Query{
				Table:  RefOf(lineitem.f),
				Filter: tpch.Q6Predicate(),
				Aggs:   tpch.Q6Aggregates(),
			}, lineitem, nil)
			checkIdentity(t, "q1", rt, Query{
				Table:   RefOf(lineitem.f),
				Filter:  tpch.Q1Predicate(),
				GroupBy: tpch.Q1GroupBy(),
				Aggs:    tpch.Q1Aggregates(),
			}, lineitem, nil)
			checkIdentity(t, "q14", rt, Query{
				Table: RefOf(lineitem.f),
				Join: &JoinSpec{Build: RefOf(part.f),
					BuildKey: pa.MustColumnIndex("p_partkey"), ProbeKey: li.MustColumnIndex("l_partkey")},
				Filter: tpch.Q14DateRange(),
				Aggs:   tpch.Q14Aggregates(li, pa),
			}, lineitem, &part)

			rng := rand.New(rand.NewSource(int64(l) + 1))
			fact, dim := randomTables(t, dev, &alloc, rng, l)
			for trial := 0; trial < 40; trial++ {
				q, joined := randomQuery(rng, fact, dim)
				var build *table
				if joined {
					build = &dim
				}
				checkIdentity(t, fmt.Sprintf("trial%02d", trial), rt, q, fact, build)
			}
		})
	}
}

func factSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "f_id", Kind: schema.Int64},
		schema.Column{Name: "f_key", Kind: schema.Int32},
		schema.Column{Name: "f_a", Kind: schema.Int32},
		schema.Column{Name: "f_tag", Kind: schema.Char, Len: 4},
	)
}

func dimSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "d_key", Kind: schema.Int32},
		schema.Column{Name: "d_v", Kind: schema.Int32},
		schema.Column{Name: "d_tag", Kind: schema.Char, Len: 4},
	)
}

var tags = []string{"AA", "BB", "CC"}

// randomTables loads a fact table and a dimension whose keys repeat
// (up to three build rows per key) and miss (about a fifth of the
// fact keys have no build row).
func randomTables(t *testing.T, dev *ssd.Device, alloc *heap.Allocator, rng *rand.Rand, l page.Layout) (table, table) {
	t.Helper()
	const keys = 50
	var dimRows []schema.Tuple
	for k := 0; k < keys; k++ {
		if rng.Intn(5) == 0 {
			continue
		}
		for dup := rng.Intn(3); dup >= 0; dup-- {
			dimRows = append(dimRows, schema.Tuple{
				schema.IntVal(int64(k)), schema.IntVal(int64(rng.Intn(100))), schema.StrVal(tags[rng.Intn(len(tags))]),
			})
		}
	}
	factRows := make([]schema.Tuple, 3000+rng.Intn(2000))
	for i := range factRows {
		factRows[i] = schema.Tuple{
			schema.IntVal(int64(i)), schema.IntVal(int64(rng.Intn(keys))),
			schema.IntVal(int64(rng.Intn(100))), schema.StrVal(tags[rng.Intn(len(tags))]),
		}
	}
	return loadTable(t, dev, alloc, fmt.Sprintf("fact%d", l), factSchema(), l, factRows),
		loadTable(t, dev, alloc, fmt.Sprintf("dim%d", l), dimSchema(), l, dimRows)
}

// randomQuery draws a scan of fact, joined to dim half of the time,
// with no filter, a probe-side filter, a build-side (late) filter or an
// empty selection, producing a projection, a scalar aggregate or a
// grouped aggregate.
func randomQuery(rng *rand.Rand, fact, dim table) (Query, bool) {
	fs, ds := factSchema(), dimSchema()
	np := fs.NumColumns()
	col := func(s *schema.Schema, name string, off int) expr.Col {
		c := expr.ColRef(s, name)
		c.Index += off
		return c
	}
	fA, fKey, fTag := col(fs, "f_a", 0), col(fs, "f_key", 0), col(fs, "f_tag", 0)
	q := Query{Table: RefOf(fact.f)}
	joined := rng.Intn(2) == 0
	ints, chars := []expr.Col{fA, fKey, col(fs, "f_id", 0)}, []expr.Col{fTag}
	if joined {
		q.Join = &JoinSpec{Build: RefOf(dim.f), BuildKey: 0, ProbeKey: 1}
		ints = append(ints, col(ds, "d_v", np))
		chars = append(chars, col(ds, "d_tag", np))
	}
	lt := func(c expr.Col, v int64) expr.Expr { return expr.Cmp{Op: expr.LT, L: c, R: expr.IntConst(v)} }
	switch rng.Intn(5) {
	case 1:
		q.Filter = lt(fA, int64(rng.Intn(101)))
	case 2:
		q.Filter = expr.And{Terms: []expr.Expr{
			lt(fKey, int64(rng.Intn(60))),
			expr.Cmp{Op: expr.GE, L: fA, R: expr.IntConst(int64(rng.Intn(50)))},
		}}
	case 3:
		q.Filter = lt(ints[len(ints)-1], int64(rng.Intn(101))) // build column when joined
	case 4:
		q.Filter = lt(fA, 0) // selects nothing
	}
	pick := func(cs []expr.Col) expr.Col { return cs[rng.Intn(len(cs))] }
	switch rng.Intn(3) {
	case 0:
		for i := rng.Intn(3); i >= 0; i-- {
			var e expr.Expr = pick(append(ints, chars...))
			if c := e.(expr.Col); c.K != schema.Char && rng.Intn(2) == 0 {
				e = expr.Arith{Op: expr.Add, L: c, R: expr.IntConst(int64(rng.Intn(10)))}
			}
			q.Output = append(q.Output, plan.OutputCol{Name: fmt.Sprintf("o%d", i), E: e})
		}
	default:
		q.Aggs = []plan.AggSpec{
			{Kind: plan.Count, Name: "cnt"},
			{Kind: plan.Sum, E: expr.Arith{Op: expr.Mul, L: pick(ints), R: expr.IntConst(2)}, Name: "sum"},
			{Kind: plan.Max, E: pick(ints), Name: "max"},
		}
		if rng.Intn(2) == 0 {
			q.GroupBy = append(q.GroupBy, pick(chars).Index)
			if rng.Intn(2) == 0 {
				q.GroupBy = append(q.GroupBy, fKey.Index)
			}
		}
	}
	return q, joined
}
