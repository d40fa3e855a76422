package core

import (
	"bytes"
	"strings"
	"testing"

	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// End-to-end §4.3 lifecycle: update dirties the pool, pushdown is
// vetoed and the host sees the new values, flushing restores coherence
// and the device then sees the same new values.
func TestUpdateCoherenceLifecycle(t *testing.T) {
	e, err := New(Config{SSD: smallSSD(), PoolPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	loadFact(t, e, page.PAX, 20000, OnSSD)
	e.SetCold(false) // keep the pool across operations
	s := widePaddedSchema()

	sumSpec := QuerySpec{
		Table: "fact",
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.ColRef(s, "val"), Name: "sum_val"},
			{Kind: plan.Count, Name: "cnt"},
		},
		EstSelectivity: 1,
	}
	before, err := e.Run(sumSpec, ForceDevice)
	if err != nil {
		t.Fatal(err)
	}

	// UPDATE fact SET val = val + 1000 WHERE val < 10  (2000 rows).
	n, err := e.Update("fact",
		expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "val"), R: expr.IntConst(10)},
		[]SetClause{{Column: "val", E: expr.Arith{Op: expr.Add, L: expr.ColRef(s, "val"), R: expr.IntConst(1000)}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("updated %d rows, want 2000", n)
	}
	wantSum := before.Rows[0][0].Int + 2000*1000

	// Auto must refuse pushdown (stale device pages) and the host must
	// already see the update through the pool.
	res, err := e.Run(sumSpec, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement != RanHost {
		t.Fatalf("auto ran on %v over dirty pages (%s)", res.Placement, res.Decision.Reason)
	}
	if !strings.Contains(res.Decision.Reason, "dirty") {
		t.Fatalf("reason = %q, want dirty veto", res.Decision.Reason)
	}
	if got := res.Rows[0][0].Int; got != wantSum {
		t.Fatalf("host sum after update = %d, want %d", got, wantSum)
	}

	// A forced device run right now would read stale data — prove it.
	stale, err := e.Run(sumSpec, ForceDevice)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Rows[0][0].Int != before.Rows[0][0].Int {
		t.Fatalf("device saw %d before flush, want stale %d", stale.Rows[0][0].Int, before.Rows[0][0].Int)
	}

	// Flush restores coherence; device now agrees.
	if err := e.FlushPool(); err != nil {
		t.Fatal(err)
	}
	after, err := e.Run(sumSpec, ForceDevice)
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows[0][0].Int != wantSum {
		t.Fatalf("device sum after flush = %d, want %d", after.Rows[0][0].Int, wantSum)
	}
	// And the planner may push down again.
	auto, err := e.Run(sumSpec, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(auto.Decision.Reason, "dirty") {
		t.Fatalf("dirty veto survived flush: %s", auto.Decision.Reason)
	}
}

func TestUpdateSetSemanticsUsePreUpdateValues(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.NSM, 1000, OnSSD)
	e.SetCold(false)
	s := widePaddedSchema()
	// SET grp = val, val = grp — a swap, which only works if both RHS
	// expressions see pre-update values.
	n, err := e.Update("fact", nil, []SetClause{
		{Column: "grp", E: expr.ColRef(s, "val")},
		{Column: "val", E: expr.ColRef(s, "grp")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("updated %d rows", n)
	}
	res, err := e.Run(QuerySpec{
		Table: "fact",
		Output: []plan.OutputCol{
			{Name: "id", E: expr.ColRef(s, "id")},
			{Name: "grp", E: expr.ColRef(s, "grp")},
			{Name: "val", E: expr.ColRef(s, "val")},
		},
		EstSelectivity: 1,
	}, ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		i := r[0].Int
		if r[1].Int != i%100 || r[2].Int != i%40 {
			t.Fatalf("row %d not swapped: grp=%d val=%d", i, r[1].Int, r[2].Int)
		}
	}
}

func TestUpdateValidation(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.NSM, 100, OnSSD)
	if _, err := e.Update("nope", nil, []SetClause{{Column: "val", E: expr.IntConst(1)}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := e.Update("fact", nil, nil); err == nil {
		t.Error("empty SET accepted")
	}
	if _, err := e.Update("fact", nil, []SetClause{{Column: "ghost", E: expr.IntConst(1)}}); err == nil {
		t.Error("unknown column accepted")
	}
	loadHDD := func() {
		if _, err := e.CreateTable("hfact", widePaddedSchema(), page.NSM, 64, OnHDD); err != nil {
			t.Fatal(err)
		}
		i := 0
		e.Load("hfact", func() (schema.Tuple, bool) {
			if i >= 10 {
				return nil, false
			}
			tup := schema.Tuple{
				schema.IntVal(int64(i)), schema.IntVal(0), schema.IntVal(0), schema.StrVal("x"),
			}
			i++
			return tup, true
		})
	}
	loadHDD()
	// HDD-resident tables take the same update path (no pool-coherence
	// veto; pages are force-written at commit) and must see the new
	// values immediately on the host read path.
	n, err := e.Update("hfact", nil, []SetClause{{Column: "val", E: expr.IntConst(7)}})
	if err != nil {
		t.Fatalf("HDD table update: %v", err)
	}
	if n != 10 {
		t.Fatalf("HDD table update touched %d rows, want 10", n)
	}
	s := widePaddedSchema()
	res, err := e.Run(QuerySpec{
		Table:          "hfact",
		Filter:         expr.Cmp{Op: expr.EQ, L: expr.ColRef(s, "val"), R: expr.IntConst(7)},
		Aggs:           []plan.AggSpec{{Kind: plan.Count, Name: "cnt"}},
		EstSelectivity: 1,
	}, ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int; got != 10 {
		t.Fatalf("post-update HDD count = %d, want 10", got)
	}
}

func TestUpdateCharColumn(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 500, OnSSD)
	e.SetCold(false)
	s := widePaddedSchema()
	n, err := e.Update("fact",
		expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "id"), R: expr.IntConst(5)},
		[]SetClause{{Column: "pad", E: expr.StrConst("UPDATED")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("updated %d rows, want 5", n)
	}
	res, err := e.Run(QuerySpec{
		Table:          "fact",
		Filter:         expr.LikePrefix{E: expr.ColRef(s, "pad"), Prefix: "UPDATED"},
		Aggs:           []plan.AggSpec{{Kind: plan.Count, Name: "c"}},
		EstSelectivity: 0.01,
	}, ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 5 {
		t.Fatalf("found %d UPDATED rows, want 5", res.Rows[0][0].Int)
	}
}

func TestSaveLoadImageRoundTrip(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 20000, OnSSD)
	loadDim(t, e, 40)
	s := widePaddedSchema()
	spec := QuerySpec{
		Table: "fact",
		Join:  &JoinClause{BuildTable: "dim", BuildKey: "d_key", ProbeKey: "grp"},
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.ColRef(s, "val"), Name: "sv"},
			{Kind: plan.Count, Name: "c"},
		},
		EstSelectivity: 1,
	}
	want, err := e.Run(spec, ForceDevice)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadImage(Config{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Catalog restored.
	tbl, err := e2.Table("fact")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.File.TupleCount() != 20000 {
		t.Fatalf("restored TupleCount = %d", tbl.File.TupleCount())
	}
	// Same answers on both paths of the restored engine.
	for _, mode := range []Mode{ForceHost, ForceDevice} {
		got, err := e2.Run(spec, mode)
		if err != nil {
			t.Fatalf("%v on restored engine: %v", mode, err)
		}
		if got.Rows[0][0].Int != want.Rows[0][0].Int || got.Rows[0][1].Int != want.Rows[0][1].Int {
			t.Fatalf("%v restored answer %v != original %v", mode, got.Rows[0], want.Rows[0])
		}
	}
	// New tables can still be created (allocator frontier restored).
	f2, err := e2.CreateTable("extra", dimSchema(), page.NSM, 8, OnSSD)
	if err != nil {
		t.Fatal(err)
	}
	for _, existing := range []string{"fact", "dim"} {
		old, _ := e2.Table(existing)
		if f2.File.StartLBA() < old.File.StartLBA()+old.File.MaxPages() {
			t.Fatalf("new extent overlaps %s", existing)
		}
	}
}
