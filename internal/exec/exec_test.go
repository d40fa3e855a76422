package exec

import (
	"testing"
	"time"

	"smartssd/internal/bufpool"
	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/nand"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/sim"
	"smartssd/internal/ssd"
)

func testSchemaR() *schema.Schema {
	return schema.New(
		schema.Column{Name: "r_id", Kind: schema.Int64},
		schema.Column{Name: "r_val", Kind: schema.Int32},
	)
}

func testSchemaS() *schema.Schema {
	return schema.New(
		schema.Column{Name: "s_id", Kind: schema.Int64},
		schema.Column{Name: "s_fk", Kind: schema.Int64},
		schema.Column{Name: "s_val", Kind: schema.Int32},
		schema.Column{Name: "s_tag", Kind: schema.Char, Len: 6},
	)
}

func newDev(t testing.TB) *ssd.Device {
	t.Helper()
	p := ssd.DefaultParams()
	p.Geometry = nand.Geometry{
		Channels: 8, ChipsPerChannel: 2, BlocksPerChip: 16, PagesPerBlock: 32, PageSize: 8192,
	}
	d, err := ssd.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fixture loads R (nR rows) and S (nS rows, s_fk = i % nR) on one device.
type fixture struct {
	dev  *ssd.Device
	r, s *heap.File
	nR   int
	nS   int
}

func newFixture(t testing.TB, layout page.Layout, nR, nS int) *fixture {
	t.Helper()
	dev := newDev(t)
	var alloc heap.Allocator
	r, err := heap.Create("R", dev, &alloc, testSchemaR(), layout, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := heap.Create("S", dev, &alloc, testSchemaS(), layout, 256)
	if err != nil {
		t.Fatal(err)
	}
	app := r.NewAppender()
	for i := 0; i < nR; i++ {
		if err := app.Append(schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	app = s.NewAppender()
	for i := 0; i < nS; i++ {
		tag := "even  "
		if i%2 == 1 {
			tag = "odd   "
		}
		err := app.Append(schema.Tuple{
			schema.IntVal(int64(i)),
			schema.IntVal(int64(i % nR)),
			schema.IntVal(int64(i % 100)),
			schema.StrVal(tag),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	dev.ResetTiming()
	return &fixture{dev: dev, r: r, s: s, nR: nR, nS: nS}
}

// selectAll projects every column of op.
func selectAll(op Operator) *Project {
	s := op.Schema()
	cols := make([]OutputCol, s.NumColumns())
	for i := range cols {
		c := s.Column(i)
		cols[i] = OutputCol{Name: c.Name, E: expr.Col{Index: i, Name: c.Name, K: c.Kind}}
	}
	return &Project{Input: op, Cols: cols}
}

func TestTableScanCorrectnessAndTiming(t *testing.T) {
	for _, layout := range []page.Layout{page.NSM, page.PAX} {
		t.Run(layout.String(), func(t *testing.T) {
			fx := newFixture(t, layout, 50, 50000)
			ctx := NewCtx(DefaultHost())
			rows, end, err := Collect(ctx, selectAll(&TableScan{File: fx.s}))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != fx.nS {
				t.Fatalf("scanned %d rows, want %d", len(rows), fx.nS)
			}
			for i, r := range rows {
				if r[0].Int != int64(i) {
					t.Fatalf("row %d out of order: %d", i, r[0].Int)
				}
			}
			// Timing: a cold sequential host scan is link-bound near
			// 550 MB/s, plus a sub-millisecond pipeline-fill latency.
			bytes := fx.s.Bytes()
			wantMin := time.Duration(float64(bytes) / (560 * sim.MB) * float64(time.Second))
			wantMax := time.Duration(float64(bytes)/(550*sim.MB)*float64(time.Second)) + time.Millisecond
			if end < wantMin || end > wantMax {
				t.Fatalf("scan end = %v, want in [%v, %v] (link-bound)", end, wantMin, wantMax)
			}
			if ctx.Stats.PagesRead != fx.s.Pages() {
				t.Fatalf("PagesRead = %d, want %d", ctx.Stats.PagesRead, fx.s.Pages())
			}
		})
	}
}

func TestScanWithInlinePredicate(t *testing.T) {
	fx := newFixture(t, page.NSM, 50, 3000)
	ctx := NewCtx(DefaultHost())
	pred := expr.Cmp{Op: expr.LT, L: expr.ColRef(testSchemaS(), "s_val"), R: expr.IntConst(10)}
	rows, _, err := Collect(ctx, selectAll(&TableScan{File: fx.s, Filter: pred}))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < fx.nS; i++ {
		if i%100 < 10 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("filtered scan: %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r[2].Int >= 10 {
			t.Fatalf("row with s_val=%d passed filter", r[2].Int)
		}
	}
}

// TestFilterOperatorMatchesInlineFilter checks that a Filter over a
// join keeps the rows a probe-scan filter keeps.
func TestFilterOperatorMatchesInlineFilter(t *testing.T) {
	fx := newFixture(t, page.PAX, 50, 3000)
	pred := expr.Cmp{Op: expr.GE, L: expr.ColRef(testSchemaS(), "s_val"), R: expr.IntConst(95)}
	join := func(probe *TableScan) *HashJoin {
		return &HashJoin{Build: &TableScan{File: fx.r}, Probe: probe, BuildKey: 0, ProbeKey: 1}
	}

	ctx1 := NewCtx(DefaultHost())
	inline, _, err := Collect(ctx1, selectAll(join(&TableScan{File: fx.s, Filter: pred})))
	if err != nil {
		t.Fatal(err)
	}
	fx.dev.ResetTiming()
	ctx2 := NewCtx(DefaultHost())
	composed, _, err := Collect(ctx2, selectAll(&Filter{Input: join(&TableScan{File: fx.s}), Pred: pred}))
	if err != nil {
		t.Fatal(err)
	}
	if len(inline) != len(composed) {
		t.Fatalf("inline %d rows, composed %d", len(inline), len(composed))
	}
	for i := range inline {
		if inline[i][0].Int != composed[i][0].Int {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestProject(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 500)
	s := testSchemaS()
	ctx := NewCtx(DefaultHost())
	p := &Project{
		Input: &TableScan{File: fx.s},
		Cols: []OutputCol{
			{Name: "double_val", E: expr.Arith{Op: expr.Mul, L: expr.ColRef(s, "s_val"), R: expr.IntConst(2)}},
			{Name: "tag", E: expr.ColRef(s, "s_tag")},
		},
	}
	if p.Schema().NumColumns() != 2 {
		t.Fatalf("projected schema = %v", p.Schema())
	}
	if p.Schema().Column(1).Len != 6 {
		t.Fatalf("projected CHAR width = %d, want 6", p.Schema().Column(1).Len)
	}
	rows, _, err := Collect(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r[0].Int != int64(i%100)*2 {
			t.Fatalf("row %d double_val = %d", i, r[0].Int)
		}
	}
}

func TestHashJoinCorrectness(t *testing.T) {
	fx := newFixture(t, page.NSM, 40, 2000)
	ctx := NewCtx(DefaultHost())
	join := &HashJoin{
		Build:    &TableScan{File: fx.r},
		Probe:    &TableScan{File: fx.s},
		BuildKey: 0, // r_id
		ProbeKey: 1, // s_fk
	}
	rows, _, err := Collect(ctx, selectAll(join))
	if err != nil {
		t.Fatal(err)
	}
	// Every S row matches exactly one R row (FK -> PK).
	if len(rows) != fx.nS {
		t.Fatalf("join produced %d rows, want %d", len(rows), fx.nS)
	}
	// Output: probe cols (s_id, s_fk, s_val, s_tag) then build cols
	// (r_id, r_val). Check the join condition and r_val derivation.
	for _, r := range rows {
		if r[1].Int != r[4].Int {
			t.Fatalf("join key mismatch: s_fk=%d r_id=%d", r[1].Int, r[4].Int)
		}
		if r[5].Int != r[4].Int*10 {
			t.Fatalf("r_val=%d for r_id=%d", r[5].Int, r[4].Int)
		}
	}
	if ctx.Stats.HashBuilds != int64(fx.nR) {
		t.Fatalf("HashBuilds = %d, want %d", ctx.Stats.HashBuilds, fx.nR)
	}
	if ctx.Stats.HashProbes != int64(fx.nS) {
		t.Fatalf("HashProbes = %d, want %d", ctx.Stats.HashProbes, fx.nS)
	}
}

func TestHashJoinWithSelection(t *testing.T) {
	fx := newFixture(t, page.PAX, 40, 2000)
	s := testSchemaS()
	ctx := NewCtx(DefaultHost())
	sel := expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "s_val"), R: expr.IntConst(5)}
	join := &HashJoin{
		Build:    &TableScan{File: fx.r},
		Probe:    &TableScan{File: fx.s, Filter: sel},
		BuildKey: 0,
		ProbeKey: 1,
	}
	rows, _, err := Collect(ctx, selectAll(join))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < fx.nS; i++ {
		if i%100 < 5 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("selective join: %d rows, want %d", len(rows), want)
	}
}

func TestScalarAggregate(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 1234)
	s := testSchemaS()
	ctx := NewCtx(DefaultHost())
	agg := &Aggregate{
		Input: &TableScan{File: fx.s},
		Aggs: []AggSpec{
			{Kind: Sum, E: expr.ColRef(s, "s_val"), Name: "sum_val"},
			{Kind: Count, Name: "cnt"},
			{Kind: Min, E: expr.ColRef(s, "s_id"), Name: "min_id"},
			{Kind: Max, E: expr.ColRef(s, "s_id"), Name: "max_id"},
		},
	}
	rows, _, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("scalar agg emitted %d rows", len(rows))
	}
	var wantSum int64
	for i := 0; i < fx.nS; i++ {
		wantSum += int64(i % 100)
	}
	got := rows[0]
	if got[0].Int != wantSum {
		t.Errorf("sum = %d, want %d", got[0].Int, wantSum)
	}
	if got[1].Int != int64(fx.nS) {
		t.Errorf("count = %d, want %d", got[1].Int, fx.nS)
	}
	if got[2].Int != 0 || got[3].Int != int64(fx.nS-1) {
		t.Errorf("min/max = %d/%d", got[2].Int, got[3].Int)
	}
}

func TestGroupedAggregate(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 1000)
	s := testSchemaS()
	ctx := NewCtx(DefaultHost())
	agg := &Aggregate{
		Input:   &TableScan{File: fx.s},
		GroupBy: []int{3}, // s_tag: "even"/"odd"
		Aggs: []AggSpec{
			{Kind: Count, Name: "cnt"},
			{Kind: Sum, E: expr.ColRef(s, "s_id"), Name: "sum_id"},
		},
	}
	rows, _, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("grouped agg emitted %d groups, want 2", len(rows))
	}
	byTag := map[string][]int64{}
	for _, r := range rows {
		byTag[schema.FormatValue(schema.Char, r[0])] = []int64{r[1].Int, r[2].Int}
	}
	if byTag["even"][0] != 500 || byTag["odd"][0] != 500 {
		t.Fatalf("group counts = %v", byTag)
	}
	var evenSum, oddSum int64
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			evenSum += int64(i)
		} else {
			oddSum += int64(i)
		}
	}
	if byTag["even"][1] != evenSum || byTag["odd"][1] != oddSum {
		t.Fatalf("group sums = %v, want %d/%d", byTag, evenSum, oddSum)
	}
}

func TestScalarAggregateOverEmptyInput(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 500)
	s := testSchemaS()
	ctx := NewCtx(DefaultHost())
	never := expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "s_val"), R: expr.IntConst(-1)}
	agg := &Aggregate{
		Input: &TableScan{File: fx.s, Filter: never},
		Aggs:  []AggSpec{{Kind: Sum, E: expr.ColRef(s, "s_val"), Name: "x"}, {Kind: Count, Name: "c"}},
	}
	rows, _, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int != 0 || rows[0][1].Int != 0 {
		t.Fatalf("empty-input scalar agg = %v", rows)
	}
}

func TestBufferPoolScanServesHitsWithoutIO(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 2000)
	pool := bufpool.New(int(fx.s.Pages())+8, nil)
	// First scan: cold, warms the pool.
	ctx := NewCtx(DefaultHost())
	rows1, _, err := Collect(ctx, selectAll(&TableScan{File: fx.s, Pool: pool}))
	if err != nil {
		t.Fatal(err)
	}
	ioAfterCold := fx.dev.Activity().FlashPagesRead
	if ioAfterCold == 0 {
		t.Fatal("cold scan did no I/O")
	}
	// Second scan: fully cached, must do zero device I/O.
	rows2, _, err := Collect(NewCtx(DefaultHost()), selectAll(&TableScan{File: fx.s, Pool: pool}))
	if err != nil {
		t.Fatal(err)
	}
	if got := fx.dev.Activity().FlashPagesRead; got != ioAfterCold {
		t.Fatalf("warm scan did %d extra page reads", got-ioAfterCold)
	}
	if len(rows1) != len(rows2) {
		t.Fatalf("warm scan rows %d != cold %d", len(rows2), len(rows1))
	}
	for i := range rows1 {
		if rows1[i][0].Int != rows2[i][0].Int {
			t.Fatalf("row %d differs between cold and warm scans", i)
		}
	}
}

func TestExplainTree(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 100)
	s := testSchemaS()
	plan := &Aggregate{
		Input: &HashJoin{
			Build:    &TableScan{File: fx.r},
			Probe:    &TableScan{File: fx.s, Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "s_val"), R: expr.IntConst(5)}},
			BuildKey: 0,
			ProbeKey: 1,
		},
		Aggs: []AggSpec{{Kind: Count, Name: "n"}},
	}
	out := ExplainTree(plan)
	for _, want := range []string{"Aggregate(COUNT(*))", "HashJoin", "TableScan(R", "TableScan(S", "filter"} {
		if !contains(out, want) {
			t.Errorf("ExplainTree missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

// TestEmitStopPropagates checks that the reference interpreter stops
// at a consumer's error and reports it.
func TestEmitStopPropagates(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 1000)
	scan := &TableScan{File: fx.s}
	n := 0
	_, err := refRun(NewCtx(DefaultHost()), scan, func(schema.Tuple, time.Duration) error {
		n++
		if n == 10 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("err = %v, want errStop", err)
	}
	if n != 10 {
		t.Fatalf("emitted %d rows after stop", n)
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	// Build side with duplicate keys: every probe row must match all of
	// them (standard inner-join multiplicity).
	dev := newDev(t)
	var alloc heap.Allocator
	dup := schema.New(
		schema.Column{Name: "d_key", Kind: schema.Int64},
		schema.Column{Name: "d_tag", Kind: schema.Int32},
	)
	b, err := heap.Create("dup", dev, &alloc, dup, page.NSM, 8)
	if err != nil {
		t.Fatal(err)
	}
	app := b.NewAppender()
	// Key 1 appears three times, key 2 once.
	for _, kv := range [][2]int64{{1, 10}, {1, 11}, {1, 12}, {2, 20}} {
		app.Append(schema.Tuple{schema.IntVal(kv[0]), schema.IntVal(kv[1])})
	}
	app.Close()
	probe, err := heap.Create("probe", dev, &alloc, dup, page.NSM, 8)
	if err != nil {
		t.Fatal(err)
	}
	app = probe.NewAppender()
	for _, kv := range [][2]int64{{1, 100}, {2, 200}, {3, 300}} {
		app.Append(schema.Tuple{schema.IntVal(kv[0]), schema.IntVal(kv[1])})
	}
	app.Close()
	dev.ResetTiming()

	join := &HashJoin{
		Build:    &TableScan{File: b},
		Probe:    &TableScan{File: probe},
		BuildKey: 0,
		ProbeKey: 0,
	}
	rows, _, err := Collect(NewCtx(DefaultHost()), selectAll(join))
	if err != nil {
		t.Fatal(err)
	}
	// probe key 1 -> 3 matches, key 2 -> 1, key 3 -> 0.
	if len(rows) != 4 {
		t.Fatalf("join rows = %d, want 4", len(rows))
	}
	tags := map[int64]bool{}
	for _, r := range rows {
		if r[0].Int != r[2].Int {
			t.Fatalf("key mismatch in %v", r)
		}
		tags[r[3].Int] = true
	}
	for _, want := range []int64{10, 11, 12, 20} {
		if !tags[want] {
			t.Fatalf("missing build tag %d in %v", want, tags)
		}
	}
	// Join output schema disambiguates duplicate names.
	if join.Schema().ColumnIndex("d_key_r") < 0 {
		t.Fatalf("duplicate column not suffixed: %v", join.Schema())
	}
}

func TestGroupedAggregateOverJoin(t *testing.T) {
	fx := newFixture(t, page.NSM, 8, 1000)
	ctx := NewCtx(DefaultHost())
	join := &HashJoin{
		Build:    &TableScan{File: fx.r},
		Probe:    &TableScan{File: fx.s},
		BuildKey: 0,
		ProbeKey: 1,
	}
	// Group by r_id (combined col 4), count per group.
	agg := &Aggregate{
		Input:   join,
		GroupBy: []int{4},
		Aggs:    []AggSpec{{Kind: Count, Name: "c"}},
	}
	rows, _, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != fx.nR {
		t.Fatalf("groups = %d, want %d", len(rows), fx.nR)
	}
	var total int64
	for _, r := range rows {
		total += r[1].Int
	}
	if total != int64(fx.nS) {
		t.Fatalf("group counts sum to %d, want %d", total, fx.nS)
	}
}

func TestGroupedOutputOrderIsFirstSeen(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 500)
	agg := &Aggregate{
		Input:   &TableScan{File: fx.s},
		GroupBy: []int{1}, // s_fk cycles 0..9
		Aggs:    []AggSpec{{Kind: Count, Name: "c"}},
	}
	rows, _, err := Collect(NewCtx(DefaultHost()), agg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r[0].Int != int64(i) {
			t.Fatalf("group order not first-seen: position %d has key %d", i, r[0].Int)
		}
	}
}

// benchOperator runs op once per iteration on a warm engine-style
// context — one scratch reused across runs, cold simulated timing —
// through Collect and through the reference interpreter.
func benchOperator(b *testing.B, fx *fixture, op Operator) {
	for _, tun := range []struct {
		name    string
		collect func(*Ctx, Operator) ([]schema.Tuple, time.Duration, error)
	}{{"reference", refCollect}, {"collect", Collect}} {
		b.Run(tun.name, func(b *testing.B) {
			host := DefaultHost()
			scratch := &Scratch{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				host.Reset()
				fx.dev.ResetTiming()
				scratch.Reset()
				ctx := NewCtx(host)
				ctx.Scratch = scratch
				if _, _, err := tun.collect(ctx, op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashJoin times a joined projection: a 1000-row build side,
// a 20000-row probe scan with a residual filter keeping half of it.
func BenchmarkHashJoin(b *testing.B) {
	fx := newFixture(b, page.PAX, 1000, 20000)
	s := testSchemaS()
	np := s.NumColumns()
	benchOperator(b, fx, &Project{
		Input: &HashJoin{
			Build:    &TableScan{File: fx.r},
			Probe:    &TableScan{File: fx.s, Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "s_val"), R: expr.IntConst(50)}},
			BuildKey: 0,
			ProbeKey: 1,
		},
		Cols: []OutputCol{
			{Name: "s_id", E: expr.ColRef(s, "s_id")},
			{Name: "r_val", E: expr.Col{Index: np + 1, Name: "r_val", K: schema.Int32}},
		},
	})
}

// BenchmarkGroupedAggregate times GROUP BY a CHAR column and an
// integer one over a filtered 20000-row scan.
func BenchmarkGroupedAggregate(b *testing.B) {
	fx := newFixture(b, page.PAX, 10, 20000)
	s := testSchemaS()
	benchOperator(b, fx, &Aggregate{
		Input:   &TableScan{File: fx.s, Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "s_val"), R: expr.IntConst(90)}},
		GroupBy: []int{3, 1}, // s_tag, s_fk
		Aggs: []AggSpec{
			{Kind: Count, Name: "cnt"},
			{Kind: Sum, E: expr.ColRef(s, "s_id"), Name: "sum_id"},
			{Kind: Min, E: expr.ColRef(s, "s_val"), Name: "min_val"},
		},
	})
}
