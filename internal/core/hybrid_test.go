package core

import (
	"strings"
	"testing"

	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/tpch"
)

func TestHybridAggregateMatchesPureModes(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 30000, OnSSD)
	s := widePaddedSchema()
	spec := QuerySpec{
		Table:  "fact",
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "val"), R: expr.IntConst(30)},
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.ColRef(s, "id"), Name: "s"},
			{Kind: plan.Count, Name: "c"},
			{Kind: plan.Max, E: expr.ColRef(s, "id"), Name: "mx"},
		},
		EstSelectivity: 0.3,
	}
	host, err := e.Run(spec, ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := e.Run(spec, ForceHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Placement != RanHybrid {
		t.Fatalf("placement = %v", hyb.Placement)
	}
	for c := range host.Rows[0] {
		if host.Rows[0][c].Int != hyb.Rows[0][c].Int {
			t.Fatalf("col %d: host %d, hybrid %d", c, host.Rows[0][c].Int, hyb.Rows[0][c].Int)
		}
	}
	if hyb.HybridDeviceFraction <= 0 || hyb.HybridDeviceFraction >= 1 {
		t.Fatalf("split fraction = %v", hyb.HybridDeviceFraction)
	}
	if !strings.Contains(hyb.Decision.Reason, "hybrid split") {
		t.Fatalf("reason = %q", hyb.Decision.Reason)
	}
}

func TestHybridGroupedAggregate(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 20000, OnSSD)
	s := widePaddedSchema()
	spec := QuerySpec{
		Table:   "fact",
		GroupBy: []int{s.MustColumnIndex("grp")},
		Aggs: []plan.AggSpec{
			{Kind: plan.Count, Name: "c"},
			{Kind: plan.Sum, E: expr.ColRef(s, "val"), Name: "sv"},
		},
		OrderBy:        []plan.OrderKey{{Col: 0}},
		EstSelectivity: 1,
	}
	host, err := e.Run(spec, ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := e.Run(spec, ForceHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(host.Rows) != len(hyb.Rows) {
		t.Fatalf("groups: host %d, hybrid %d", len(host.Rows), len(hyb.Rows))
	}
	for i := range host.Rows {
		for c := range host.Rows[i] {
			if host.Rows[i][c].Int != hyb.Rows[i][c].Int {
				t.Fatalf("group %d col %d: host %d, hybrid %d",
					i, c, host.Rows[i][c].Int, hyb.Rows[i][c].Int)
			}
		}
	}
}

func TestHybridProjectionConcatenates(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 10000, OnSSD)
	s := widePaddedSchema()
	spec := QuerySpec{
		Table:  "fact",
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "val"), R: expr.IntConst(5)},
		Output: []plan.OutputCol{
			{Name: "id", E: expr.ColRef(s, "id")},
		},
		OrderBy:        []plan.OrderKey{{Col: 0}},
		EstSelectivity: 0.05,
	}
	host, err := e.Run(spec, ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := e.Run(spec, ForceHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(host.Rows) != len(hyb.Rows) {
		t.Fatalf("rows: host %d, hybrid %d", len(host.Rows), len(hyb.Rows))
	}
	for i := range host.Rows {
		if host.Rows[i][0].Int != hyb.Rows[i][0].Int {
			t.Fatalf("row %d: host %d, hybrid %d", i, host.Rows[i][0].Int, hyb.Rows[i][0].Int)
		}
	}
}

// The headline of hybrid execution: for the CPU-saturated Q6, splitting
// the scan beats BOTH pure modes — the two compute paths add up until
// the shared DMA bus caps them.
func TestHybridBeatsBothPureModesOnQ6(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const sf = 0.02
	li := tpch.LineitemSchema()
	if _, err := e.CreateTable("lineitem", li, page.PAX, tpch.NumLineitem(sf)/51+2, OnSSD); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("lineitem", tpch.NewLineitemGen(sf, 1).Next); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{
		Table:          "lineitem",
		Filter:         tpch.Q6Predicate(),
		Aggs:           tpch.Q6Aggregates(),
		EstSelectivity: 0.006,
	}
	host, err := e.Run(spec, ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := e.Run(spec, ForceDevice)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := e.Run(spec, ForceHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Rows[0][0].Int != host.Rows[0][0].Int || hyb.Rows[0][0].Int != dev.Rows[0][0].Int {
		t.Fatal("answers diverge across modes")
	}
	if hyb.Elapsed >= dev.Elapsed || hyb.Elapsed >= host.Elapsed {
		t.Fatalf("hybrid %v not below device %v and host %v", hyb.Elapsed, dev.Elapsed, host.Elapsed)
	}
	speedup := float64(host.Elapsed) / float64(hyb.Elapsed)
	// Analytic expectation: about 1/(1/1.7 ... ) = combined rate of the
	// 1.67x device path and the 1x host path, i.e. about 2.6-2.7x, below
	// the 2.84x DMA ceiling.
	if speedup < 2.2 || speedup > 2.9 {
		t.Fatalf("hybrid Q6 speedup = %.2fx, want about 2.6x", speedup)
	}
}

// TestColdExplainIgnoresPoolHistory checks that EXPLAIN on a cold
// engine prices the empty pool its next Run starts from, not the pages
// an earlier host run left cached.
func TestColdExplainIgnoresPoolHistory(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const sf = 0.01
	if _, err := e.CreateTable("lineitem", tpch.LineitemSchema(), page.PAX, tpch.NumLineitem(sf)/51+2, OnSSD); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("lineitem", tpch.NewLineitemGen(sf, 1).Next); err != nil {
		t.Fatal(err)
	}
	q6 := QuerySpec{Table: "lineitem", Filter: tpch.Q6Predicate(), Aggs: tpch.Q6Aggregates(), EstSelectivity: 0.006}
	fresh, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Explain(q6)
	if err != nil {
		t.Fatal(err)
	}
	scan := QuerySpec{Table: "lineitem", Aggs: []plan.AggSpec{{Kind: plan.Count, Name: "c"}}}
	if _, err := e.Run(scan, ForceHost); err != nil {
		t.Fatal(err)
	}
	got, err := e.Explain(q6)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("EXPLAIN after a host scan:\n%s\nfresh clone:\n%s", got, want)
	}
	res, err := e.Run(q6, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if line := "decision: " + res.Decision.String() + "\n"; !strings.Contains(got, line) {
		t.Fatalf("EXPLAIN\n%sdoes not show the run's %s", got, line)
	}
}

func TestHybridRejectsHDDTable(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.NSM, 1000, OnHDD)
	spec := selectiveSpec()
	if _, err := e.Run(spec, ForceHybrid); err == nil {
		t.Fatal("hybrid on HDD table accepted")
	}
}

func TestHybridJoin(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 20000, OnSSD)
	loadDim(t, e, 40)
	fact := widePaddedSchema()
	np := fact.NumColumns()
	spec := QuerySpec{
		Table: "fact",
		Join:  &JoinClause{BuildTable: "dim", BuildKey: "d_key", ProbeKey: "grp"},
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.Col{Index: np + 1, Name: "d_payload", K: schema.Int32}, Name: "s"},
			{Kind: plan.Count, Name: "c"},
		},
		EstSelectivity: 1,
	}
	host, err := e.Run(spec, ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := e.Run(spec, ForceHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if host.Rows[0][0].Int != hyb.Rows[0][0].Int || host.Rows[0][1].Int != hyb.Rows[0][1].Int {
		t.Fatalf("join agg: host %v, hybrid %v", host.Rows[0], hyb.Rows[0])
	}
}

func TestHybridAutoSelectsSplitForQ6(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const sf = 0.01
	li := tpch.LineitemSchema()
	if _, err := e.CreateTable("lineitem", li, page.PAX, tpch.NumLineitem(sf)/51+2, OnSSD); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("lineitem", tpch.NewLineitemGen(sf, 1).Next); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{
		Table:          "lineitem",
		Filter:         tpch.Q6Predicate(),
		Aggs:           tpch.Q6Aggregates(),
		EstSelectivity: 0.006,
	}
	// Default Auto stays binary (paper behaviour): pure pushdown.
	binary, err := e.Run(spec, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if binary.Placement != RanDevice {
		t.Fatalf("binary auto placement = %v", binary.Placement)
	}
	// With hybrid planning on, Auto takes the split and beats it.
	e.SetHybridAuto(true)
	tri, err := e.Run(spec, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if tri.Placement != RanHybrid {
		t.Fatalf("tri-modal auto placement = %v (%s)", tri.Placement, tri.Decision.Reason)
	}
	if tri.Elapsed >= binary.Elapsed {
		t.Fatalf("auto hybrid %v not faster than pure pushdown %v", tri.Elapsed, binary.Elapsed)
	}
	if tri.Rows[0][0].Int != binary.Rows[0][0].Int {
		t.Fatal("answers diverge")
	}
	if tri.Decision.HybridCost <= 0 || tri.Decision.HybridCost >= tri.Decision.DeviceCost {
		t.Fatalf("decision costs not recorded sensibly: %+v", tri.Decision)
	}
}

func TestHybridAutoStillRespectsVetoes(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 20000, OnSSD)
	e.SetHybridAuto(true)
	e.SetCold(false)
	tbl, _ := e.Table("fact")
	lba := tbl.File.StartLBA()
	data, _, err := e.SSD().ReadPage(lba, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Pool().Put(lba, data)
	e.Pool().Unpin(lba, true) // dirty
	res, err := e.Run(selectiveSpec(), Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement != RanHost {
		t.Fatalf("hybrid auto ignored the dirty veto: %v", res.Placement)
	}
}
