package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/nand"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/sim"
	"smartssd/internal/ssd"
	"smartssd/internal/tpch"
)

func smallSSD() ssd.Params {
	p := ssd.DefaultParams()
	p.Geometry = nand.Geometry{
		Channels: 8, ChipsPerChannel: 2, BlocksPerChip: 16, PagesPerBlock: 32, PageSize: 8192,
	}
	return p
}

// A device with no embedded CPU lanes is a configuration error from
// either constructor, not a panic.
func TestConstructorsRejectNonPositiveLanes(t *testing.T) {
	p := smallSSD()
	p.DeviceCPUCores = -3
	if _, err := New(Config{SSD: p}); err == nil || !strings.Contains(err.Error(), "device CPU cores") {
		t.Errorf("New: %v, want a device CPU cores error", err)
	}
	if _, err := NewCluster(2, p, device.DefaultCostModel()); err == nil || !strings.Contains(err.Error(), "device CPU cores") {
		t.Errorf("NewCluster: %v, want a device CPU cores error", err)
	}
}

func widePaddedSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Kind: schema.Int64},
		schema.Column{Name: "grp", Kind: schema.Int32},
		schema.Column{Name: "val", Kind: schema.Int32},
		schema.Column{Name: "pad", Kind: schema.Char, Len: 140},
	)
}

func dimSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "d_key", Kind: schema.Int32},
		schema.Column{Name: "d_payload", Kind: schema.Int32},
	)
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{SSD: smallSSD()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func loadFact(t *testing.T, e *Engine, layout page.Layout, n int, target Target) {
	t.Helper()
	if _, err := e.CreateTable("fact", widePaddedSchema(), layout, 4000, target); err != nil {
		t.Fatal(err)
	}
	i := 0
	err := e.Load("fact", func() (schema.Tuple, bool) {
		if i >= n {
			return nil, false
		}
		tup := schema.Tuple{
			schema.IntVal(int64(i)),
			schema.IntVal(int64(i % 40)),
			schema.IntVal(int64(i % 100)),
			schema.StrVal("pad"),
		}
		i++
		return tup, true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func loadDim(t *testing.T, e *Engine, n int) {
	t.Helper()
	if _, err := e.CreateTable("dim", dimSchema(), page.NSM, 16, OnSSD); err != nil {
		t.Fatal(err)
	}
	i := 0
	err := e.Load("dim", func() (schema.Tuple, bool) {
		if i >= n {
			return nil, false
		}
		tup := schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(int64(i * 3))}
		i++
		return tup, true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func selectiveSpec() QuerySpec {
	s := widePaddedSchema()
	return QuerySpec{
		Table:  "fact",
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "val"), R: expr.IntConst(3)},
		Output: []plan.OutputCol{
			{Name: "id", E: expr.ColRef(s, "id")},
			{Name: "val", E: expr.ColRef(s, "val")},
		},
		EstSelectivity: 0.03,
	}
}

func TestHostAndDeviceAgreeOnSelection(t *testing.T) {
	for _, layout := range []page.Layout{page.NSM, page.PAX} {
		t.Run(layout.String(), func(t *testing.T) {
			e := newEngine(t)
			loadFact(t, e, layout, 30000, OnSSD)
			spec := selectiveSpec()

			host, err := e.Run(spec, ForceHost)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := e.Run(spec, ForceDevice)
			if err != nil {
				t.Fatal(err)
			}
			if host.Placement != RanHost || dev.Placement != RanDevice {
				t.Fatalf("placements: %v, %v", host.Placement, dev.Placement)
			}
			if len(host.Rows) != len(dev.Rows) {
				t.Fatalf("host %d rows, device %d rows", len(host.Rows), len(dev.Rows))
			}
			for i := range host.Rows {
				if host.Rows[i][0].Int != dev.Rows[i][0].Int || host.Rows[i][1].Int != dev.Rows[i][1].Int {
					t.Fatalf("row %d differs: %v vs %v", i, host.Rows[i], dev.Rows[i])
				}
			}
			// The selective scan must be faster pushed down.
			if dev.Elapsed >= host.Elapsed {
				t.Fatalf("device %v not faster than host %v", dev.Elapsed, host.Elapsed)
			}
		})
	}
}

func TestHostAndDeviceAgreeOnJoinAggregate(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 20000, OnSSD)
	loadDim(t, e, 40)
	fact := widePaddedSchema()
	np := fact.NumColumns()
	spec := QuerySpec{
		Table:  "fact",
		Join:   &JoinClause{BuildTable: "dim", BuildKey: "d_key", ProbeKey: "grp"},
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(fact, "val"), R: expr.IntConst(50)},
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.Col{Index: np + 1, Name: "d_payload", K: schema.Int32}, Name: "sum_payload"},
			{Kind: plan.Count, Name: "cnt"},
		},
		EstSelectivity: 0.5,
	}
	host, err := e.Run(spec, ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := e.Run(spec, ForceDevice)
	if err != nil {
		t.Fatal(err)
	}
	// Independent ground truth.
	var wantSum, wantCnt int64
	for i := 0; i < 20000; i++ {
		if i%100 < 50 {
			wantSum += int64((i % 40) * 3)
			wantCnt++
		}
	}
	for name, r := range map[string]*Result{"host": host, "device": dev} {
		if len(r.Rows) != 1 {
			t.Fatalf("%s returned %d rows", name, len(r.Rows))
		}
		if r.Rows[0][0].Int != wantSum || r.Rows[0][1].Int != wantCnt {
			t.Fatalf("%s agg = %v, want sum=%d cnt=%d", name, r.Rows[0], wantSum, wantCnt)
		}
	}
}

func TestAutoModePushesSelectiveScanDown(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 30000, OnSSD)
	res, err := e.Run(selectiveSpec(), Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement != RanDevice {
		t.Fatalf("auto chose %v (%s), want device", res.Placement, res.Decision.Reason)
	}
	if !res.Decision.Pushdown {
		t.Fatal("decision not recorded")
	}
}

// TestAutoModeRunsQ1OnTheHost checks that the planner prices the
// grouping charge the device program books per surviving row. TPC-H
// Q1's grouped full scan saturates the embedded CPU and is measurably
// faster on the host, so Auto must place it there and take exactly the
// forced host run's time.
func TestAutoModeRunsQ1OnTheHost(t *testing.T) {
	for _, sf := range []float64{0.01, 0.02} {
		e, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		li := tpch.LineitemSchema()
		loadGenerated(t, e, "lineitem", li, page.PAX, tpch.NumLineitem(sf), tpch.NewLineitemGen(sf, 1).Next)
		spec := QuerySpec{
			Table:          "lineitem",
			Filter:         tpch.Q1Predicate(),
			GroupBy:        tpch.Q1GroupBy(),
			Aggs:           tpch.Q1Aggregates(),
			EstSelectivity: 0.98,
		}
		auto := mustRun(t, e, spec, Auto)
		host := mustRun(t, e, spec, ForceHost)
		if auto.Placement != RanHost {
			t.Errorf("SF %g: auto ran Q1 on %v (%s), want host", sf, auto.Placement, auto.Decision)
		}
		if auto.Elapsed != host.Elapsed {
			t.Errorf("SF %g: auto took %v, forced host %v", sf, auto.Elapsed, host.Elapsed)
		}
	}
}

func TestDirtyBufferPoolVetoesPushdown(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 30000, OnSSD)
	tbl, _ := e.Table("fact")
	// Warm engine so the dirty page survives into Run.
	e.SetCold(false)
	lba := tbl.File.StartLBA() + 1
	data, _, err := e.SSD().ReadPage(lba, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Pool().Put(lba, data); err != nil {
		t.Fatal(err)
	}
	e.Pool().Unpin(lba, true) // dirty: device copy is stale
	res, err := e.Run(selectiveSpec(), Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement != RanDevice && !strings.Contains(res.Decision.Reason, "dirty") {
		t.Fatalf("reason = %q, want dirty-page veto", res.Decision.Reason)
	}
	if res.Placement == RanDevice {
		t.Fatal("pushdown ran over stale device pages")
	}
}

func TestWarmCacheFavoursHost(t *testing.T) {
	e, err := New(Config{SSD: smallSSD(), PoolPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	loadFact(t, e, page.PAX, 30000, OnSSD)
	e.SetCold(false)
	// First run warms the pool through the host path.
	if _, err := e.Run(selectiveSpec(), ForceHost); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(selectiveSpec(), Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement != RanHost {
		t.Fatalf("auto chose %v with a warm cache (%s)", res.Placement, res.Decision.Reason)
	}
	if !strings.Contains(res.Decision.Reason, "cached") {
		t.Fatalf("reason = %q, want cache-based veto", res.Decision.Reason)
	}
}

func TestHDDTableRunsHostOnly(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.NSM, 5000, OnHDD)
	spec := selectiveSpec()
	res, err := e.Run(spec, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement != RanHost {
		t.Fatal("HDD table did not run on host")
	}
	if res.Bottleneck != "hdd-media" {
		t.Fatalf("bottleneck = %q", res.Bottleneck)
	}
	if _, err := e.Run(spec, ForceDevice); err == nil {
		t.Fatal("ForceDevice on HDD table succeeded")
	}
}

func TestEnergyAccountingPopulated(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 30000, OnSSD)
	host, _ := e.Run(selectiveSpec(), ForceHost)
	dev, _ := e.Run(selectiveSpec(), ForceDevice)
	if host.Energy.SystemJ <= 0 || dev.Energy.SystemJ <= 0 {
		t.Fatal("energy not accounted")
	}
	// Faster run, lower energy: the paper's core energy result.
	if dev.Energy.SystemJ >= host.Energy.SystemJ {
		t.Fatalf("device energy %.1fJ not below host %.1fJ", dev.Energy.SystemJ, host.Energy.SystemJ)
	}
	if host.Bottleneck != "host-link" {
		t.Fatalf("host run bottleneck = %q, want host-link", host.Bottleneck)
	}
}

func TestExplain(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 10000, OnSSD)
	out, err := e.Explain(selectiveSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"host plan:", "device plan:", "decision:", "TableScan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestCatalogErrors(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Run(QuerySpec{Table: "nope"}, Auto); !errors.Is(err, ErrNoTable) {
		t.Fatalf("unknown table err = %v", err)
	}
	loadFact(t, e, page.NSM, 100, OnSSD)
	if _, err := e.CreateTable("fact", widePaddedSchema(), page.NSM, 8, OnSSD); err == nil {
		t.Fatal("duplicate CreateTable succeeded")
	}
	e2, err := New(Config{SSD: smallSSD(), DisableHDD: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.CreateTable("x", dimSchema(), page.NSM, 8, OnHDD); err == nil {
		t.Fatal("CreateTable on disabled HDD succeeded")
	}
}

func TestClusterMatchesSingleEngineAggregate(t *testing.T) {
	const n = 30000
	gen := func() func() (schema.Tuple, bool) {
		i := 0
		return func() (schema.Tuple, bool) {
			if i >= n {
				return nil, false
			}
			tup := schema.Tuple{
				schema.IntVal(int64(i)),
				schema.IntVal(int64(i % 40)),
				schema.IntVal(int64(i % 100)),
				schema.StrVal("pad"),
			}
			i++
			return tup, true
		}
	}
	s := widePaddedSchema()
	aggs := []plan.AggSpec{
		{Kind: plan.Sum, E: expr.ColRef(s, "id"), Name: "sum_id"},
		{Kind: plan.Count, Name: "cnt"},
	}
	filter := expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "val"), R: expr.IntConst(30)}

	// Single engine.
	e := newEngine(t)
	loadFact(t, e, page.PAX, n, OnSSD)
	single, err := e.Run(QuerySpec{Table: "fact", Filter: filter, Aggs: aggs, EstSelectivity: 0.3}, ForceDevice)
	if err != nil {
		t.Fatal(err)
	}

	// Four-device cluster.
	cl, err := NewCluster(4, smallSSD(), device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("fact", s, page.PAX, 1024); err != nil {
		t.Fatal(err)
	}
	if err := cl.Load("fact", gen()); err != nil {
		t.Fatal(err)
	}
	multi, err := cl.Run(QuerySpec{Table: "fact", Filter: filter, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Rows) != 1 {
		t.Fatalf("cluster agg rows = %d", len(multi.Rows))
	}
	if multi.Rows[0][0].Int != single.Rows[0][0].Int || multi.Rows[0][1].Int != single.Rows[0][1].Int {
		t.Fatalf("cluster agg %v != single %v", multi.Rows[0], single.Rows[0])
	}
	// Four parallel devices should be substantially faster than one.
	if multi.Elapsed >= single.Elapsed*3/4 {
		t.Fatalf("cluster elapsed %v not much below single %v", multi.Elapsed, single.Elapsed)
	}
	if len(multi.PerDevice) != 4 {
		t.Fatalf("PerDevice = %v", multi.PerDevice)
	}
}

func TestClusterJoinWithReplicatedBuild(t *testing.T) {
	const n = 10000
	s := widePaddedSchema()
	cl, err := NewCluster(2, smallSSD(), device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("fact", s, page.PAX, 1024); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("dim", dimSchema(), page.NSM, 16); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = cl.Load("fact", func() (schema.Tuple, bool) {
		if i >= n {
			return nil, false
		}
		tup := schema.Tuple{
			schema.IntVal(int64(i)), schema.IntVal(int64(i % 40)),
			schema.IntVal(int64(i % 100)), schema.StrVal("p"),
		}
		i++
		return tup, true
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Replicate("dim", func() func() (schema.Tuple, bool) {
		j := 0
		return func() (schema.Tuple, bool) {
			if j >= 40 {
				return nil, false
			}
			tup := schema.Tuple{schema.IntVal(int64(j)), schema.IntVal(int64(j * 3))}
			j++
			return tup, true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	np := s.NumColumns()
	res, err := cl.Run(QuerySpec{
		Table: "fact",
		Join:  &JoinClause{BuildTable: "dim", BuildKey: "d_key", ProbeKey: "grp"},
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.Col{Index: np + 1, Name: "d_payload", K: schema.Int32}, Name: "s"},
			{Kind: plan.Count, Name: "c"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantSum int64
	for i := 0; i < n; i++ {
		wantSum += int64((i % 40) * 3)
	}
	if res.Rows[0][0].Int != wantSum || res.Rows[0][1].Int != int64(n) {
		t.Fatalf("cluster join agg = %v, want sum=%d cnt=%d", res.Rows[0], wantSum, n)
	}
}

func TestStageUtilizationProfile(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 30000, OnSSD)
	dev, err := e.Run(selectiveSpec(), ForceDevice)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]float64{}
	for _, st := range dev.Stages {
		if st.Utilization < 0 || st.Utilization > 1 {
			t.Fatalf("stage %s utilization %.2f out of [0,1]", st.Name, st.Utilization)
		}
		stages[st.Name] = st.Utilization
	}
	// A pushdown run keeps the device CPU near-saturated, the DMA bus
	// partially busy, and the host link nearly idle (results only).
	if stages["device-cpu"] < 0.8 {
		t.Errorf("device-cpu utilization = %.2f, want near 1 (CPU-bound run)", stages["device-cpu"])
	}
	if stages["host-link"] > 0.2 {
		t.Errorf("host-link utilization = %.2f, want near 0 for pushdown", stages["host-link"])
	}
	if stages["dma-bus"] <= 0 || stages["dma-bus"] >= 1 {
		t.Errorf("dma-bus utilization = %.2f, want intermediate", stages["dma-bus"])
	}

	host, err := e.Run(selectiveSpec(), ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	hstages := map[string]float64{}
	for _, st := range host.Stages {
		hstages[st.Name] = st.Utilization
	}
	if hstages["host-link"] < 0.9 {
		t.Errorf("host run link utilization = %.2f, want near 1 (link-bound)", hstages["host-link"])
	}
	if hstages["device-cpu"] != 0 {
		t.Errorf("host run device-cpu utilization = %.2f, want 0", hstages["device-cpu"])
	}

	hddE := newEngine(t)
	loadFact(t, hddE, page.NSM, 60000, OnHDD) // large enough that transfer, not the initial seek, dominates
	hres, err := hddE.Run(selectiveSpec(), ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	if len(hres.Stages) != 2 || hres.Stages[0].Name != "hdd-media" {
		t.Fatalf("HDD stages = %+v", hres.Stages)
	}
	if hres.Stages[0].Utilization < 0.9 {
		t.Errorf("hdd-media utilization = %.2f, want near 1", hres.Stages[0].Utilization)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 5000, OnSSD)
	s := widePaddedSchema()
	spec := QuerySpec{
		Table:  "fact",
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "val"), R: expr.IntConst(10)},
		Output: []plan.OutputCol{
			{Name: "id", E: expr.ColRef(s, "id")},
			{Name: "val", E: expr.ColRef(s, "val")},
		},
		OrderBy:        []plan.OrderKey{{Col: 1, Desc: true}, {Col: 0}},
		Limit:          25,
		EstSelectivity: 0.1,
	}
	for _, mode := range []Mode{ForceHost, ForceDevice} {
		res, err := e.Run(spec, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res.Rows) != 25 {
			t.Fatalf("%v: limit gave %d rows", mode, len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			a, b := res.Rows[i-1], res.Rows[i]
			if a[1].Int < b[1].Int {
				t.Fatalf("%v: val not descending at %d", mode, i)
			}
			if a[1].Int == b[1].Int && a[0].Int > b[0].Int {
				t.Fatalf("%v: id tiebreak not ascending at %d", mode, i)
			}
		}
		// Top-25 by val desc: all val == 9 (500 candidates with val 9).
		if res.Rows[0][1].Int != 9 || res.Rows[24][1].Int != 9 {
			t.Fatalf("%v: top rows have vals %d..%d, want 9", mode, res.Rows[0][1].Int, res.Rows[24][1].Int)
		}
	}
}

func TestOrderByChargesHostTime(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 20000, OnSSD)
	s := widePaddedSchema()
	base := QuerySpec{
		Table: "fact",
		Output: []plan.OutputCol{
			{Name: "id", E: expr.ColRef(s, "id")},
		},
		EstSelectivity: 1,
	}
	plain, err := e.Run(base, ForceDevice)
	if err != nil {
		t.Fatal(err)
	}
	sorted := base
	sorted.OrderBy = []plan.OrderKey{{Col: 0, Desc: true}}
	withSort, err := e.Run(sorted, ForceDevice)
	if err != nil {
		t.Fatal(err)
	}
	if withSort.Elapsed <= plain.Elapsed {
		t.Fatalf("sorted run %v not slower than plain %v", withSort.Elapsed, plain.Elapsed)
	}
	if withSort.Rows[0][0].Int != 19999 {
		t.Fatalf("descending sort top = %d", withSort.Rows[0][0].Int)
	}
}

func TestOrderByValidation(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.NSM, 100, OnSSD)
	s := widePaddedSchema()
	spec := QuerySpec{
		Table:          "fact",
		Output:         []plan.OutputCol{{Name: "id", E: expr.ColRef(s, "id")}},
		OrderBy:        []plan.OrderKey{{Col: 5}},
		EstSelectivity: 1,
	}
	if _, err := e.Run(spec, ForceHost); err == nil {
		t.Fatal("out-of-range ORDER BY column accepted")
	}
}

func TestTracerRecordsPipeline(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 5000, OnSSD)
	type span struct {
		ready, done time.Duration
	}
	seen := map[string][]span{}
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Done < ev.Ready {
			t.Fatalf("%s: done %v before ready %v", ev.Server, ev.Done, ev.Ready)
		}
		if ev.Start < ev.Ready || ev.Done < ev.Start {
			t.Fatalf("%s: start %v outside [%v, %v]", ev.Server, ev.Start, ev.Ready, ev.Done)
		}
		if ev.Units <= 0 {
			t.Fatalf("%s: non-positive units %d", ev.Server, ev.Units)
		}
		if ev.Busy <= 0 || ev.Busy > ev.Done-ev.Start {
			t.Fatalf("%s: busy %v outside (0, %v]", ev.Server, ev.Busy, ev.Done-ev.Start)
		}
		seen[ev.Server] = append(seen[ev.Server], span{ev.Ready, ev.Done})
	})
	if _, err := e.Run(selectiveSpec(), ForceDevice); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dma-bus", "device-cpu", "flash-ch0", "host-link"} {
		if len(seen[want]) == 0 {
			t.Errorf("no trace records for %s", want)
		}
	}
	// Removing the tracer stops recording.
	before := len(seen["dma-bus"])
	e.SetTracer(nil)
	if _, err := e.Run(selectiveSpec(), ForceDevice); err != nil {
		t.Fatal(err)
	}
	if len(seen["dma-bus"]) != before {
		t.Error("tracer kept recording after removal")
	}
}
