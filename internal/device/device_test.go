package device

import (
	"errors"
	"strings"
	"testing"
	"time"

	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/nand"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/sim"
	"smartssd/internal/ssd"
)

func schemaR() *schema.Schema {
	return schema.New(
		schema.Column{Name: "r_id", Kind: schema.Int64},
		schema.Column{Name: "r_val", Kind: schema.Int32},
	)
}

func schemaS() *schema.Schema {
	return schema.New(
		schema.Column{Name: "s_id", Kind: schema.Int64},
		schema.Column{Name: "s_fk", Kind: schema.Int64},
		schema.Column{Name: "s_val", Kind: schema.Int32},
	)
}

type fixture struct {
	dev  *ssd.Device
	rt   *Runtime
	r, s *heap.File
	nR   int
	nS   int
}

// smallDevice is a 64 MB device, enough for every fixture here.
func smallDevice(t *testing.T) *ssd.Device {
	t.Helper()
	p := ssd.DefaultParams()
	p.Geometry = nand.Geometry{
		Channels: 8, ChipsPerChannel: 2, BlocksPerChip: 16, PagesPerBlock: 32, PageSize: 8192,
	}
	dev, err := ssd.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func newFixture(t *testing.T, layout page.Layout, nR, nS int) *fixture {
	t.Helper()
	dev := smallDevice(t)
	var alloc heap.Allocator
	r, err := heap.Create("R", dev, &alloc, schemaR(), layout, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := heap.Create("S", dev, &alloc, schemaS(), layout, 512)
	if err != nil {
		t.Fatal(err)
	}
	app := r.NewAppender()
	for i := 0; i < nR; i++ {
		app.Append(schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(int64(i * 10))})
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	app = s.NewAppender()
	for i := 0; i < nS; i++ {
		app.Append(schema.Tuple{
			schema.IntVal(int64(i)),
			schema.IntVal(int64(i % nR)),
			schema.IntVal(int64(i % 100)),
		})
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	dev.ResetTiming()
	return &fixture{dev: dev, rt: NewRuntime(dev, DefaultCostModel()), r: r, s: s, nR: nR, nS: nS}
}

func TestDeviceScanProjection(t *testing.T) {
	for _, layout := range []page.Layout{page.NSM, page.PAX} {
		t.Run(layout.String(), func(t *testing.T) {
			fx := newFixture(t, layout, 10, 5000)
			s := schemaS()
			q := Query{
				Table:  RefOf(fx.s),
				Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "s_val"), R: expr.IntConst(10)},
				Output: []plan.OutputCol{
					{Name: "s_id", E: expr.ColRef(s, "s_id")},
					{Name: "s_val", E: expr.ColRef(s, "s_val")},
				},
			}
			rows, end, err := fx.rt.RunQuery(q)
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
				t.Fatalf("device scan returned %d rows, want %d", len(rows), want)
			}
			for _, r := range rows {
				if r[1].Int >= 10 {
					t.Fatalf("row failed filter: %v", r)
				}
				if r[0].Int%100 != r[1].Int%100 {
					t.Fatalf("columns inconsistent: %v", r)
				}
			}
			if end <= 0 {
				t.Fatal("no virtual time elapsed")
			}
		})
	}
}

func TestDeviceScalarAggregateMatchesDirectComputation(t *testing.T) {
	fx := newFixture(t, page.PAX, 10, 7777)
	s := schemaS()
	q := Query{
		Table:  RefOf(fx.s),
		Filter: expr.Cmp{Op: expr.GE, L: expr.ColRef(s, "s_val"), R: expr.IntConst(50)},
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.ColRef(s, "s_id"), Name: "sum_id"},
			{Kind: plan.Count, Name: "cnt"},
			{Kind: plan.Max, E: expr.ColRef(s, "s_val"), Name: "max_val"},
		},
	}
	rows, _, err := fx.rt.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("scalar agg returned %d rows", len(rows))
	}
	var wantSum, wantCnt, wantMax int64
	for i := 0; i < fx.nS; i++ {
		if i%100 >= 50 {
			wantSum += int64(i)
			wantCnt++
			if int64(i%100) > wantMax {
				wantMax = int64(i % 100)
			}
		}
	}
	got := rows[0]
	if got[0].Int != wantSum || got[1].Int != wantCnt || got[2].Int != wantMax {
		t.Fatalf("agg = %v, want sum=%d cnt=%d max=%d", got, wantSum, wantCnt, wantMax)
	}
}

func TestDeviceJoinMatchesExpectation(t *testing.T) {
	fx := newFixture(t, page.PAX, 25, 5000)
	s := schemaS()
	q := Query{
		Table:  RefOf(fx.s),
		Join:   &JoinSpec{Build: RefOf(fx.r), BuildKey: 0, ProbeKey: 1},
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "s_val"), R: expr.IntConst(2)},
		Output: []plan.OutputCol{
			{Name: "s_id", E: expr.Col{Index: 0, Name: "s_id", K: schema.Int64}},
			// r_val lives at combined index 3 (probe) + 1 = 4.
			{Name: "r_val", E: expr.Col{Index: 4, Name: "r_val", K: schema.Int32}},
		},
	}
	rows, _, err := fx.rt.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < fx.nS; i++ {
		if i%100 < 2 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("device join returned %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		sID := r[0].Int
		wantRVal := (sID % int64(fx.nR)) * 10
		if r[1].Int != wantRVal {
			t.Fatalf("s_id=%d joined r_val=%d, want %d", sID, r[1].Int, wantRVal)
		}
	}
}

func TestProtocolLifecycle(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 1000)
	s := schemaS()
	q := Query{
		Table:  RefOf(fx.s),
		Output: []plan.OutputCol{{Name: "s_id", E: expr.ColRef(s, "s_id")}},
	}
	id, err := fx.rt.Open(q)
	if err != nil {
		t.Fatal(err)
	}
	if fx.rt.OpenSessions() != 1 {
		t.Fatalf("OpenSessions = %d", fx.rt.OpenSessions())
	}
	var total int
	var lastAt time.Duration
	for {
		res, err := fx.rt.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		total += len(res.Rows)
		if res.At < lastAt {
			t.Fatal("chunk arrival times not monotone")
		}
		lastAt = res.At
		if res.Done {
			break
		}
	}
	if total != fx.nS {
		t.Fatalf("GET drained %d rows, want %d", total, fx.nS)
	}
	if err := fx.rt.Close(id); err != nil {
		t.Fatal(err)
	}
	if fx.rt.OpenSessions() != 0 {
		t.Fatal("session leaked after CLOSE")
	}
	if fx.rt.GrantedBytes() != 0 {
		t.Fatalf("GrantedBytes = %d after CLOSE", fx.rt.GrantedBytes())
	}
	// A closed id is distinguishable from one that never existed.
	if _, err := fx.rt.Get(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close err = %v", err)
	}
	if err := fx.rt.Close(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close err = %v", err)
	}
	if _, err := fx.rt.Get(id + 999); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Get of never-opened id err = %v", err)
	}
	if err := fx.rt.Close(id + 999); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Close of never-opened id err = %v", err)
	}
}

func TestMultipleChunksForLargeResults(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 60000)
	s := schemaS()
	q := Query{
		Table: RefOf(fx.s),
		Output: []plan.OutputCol{
			{Name: "s_id", E: expr.ColRef(s, "s_id")},
			{Name: "s_fk", E: expr.ColRef(s, "s_fk")},
		},
	}
	id, err := fx.rt.Open(q)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.rt.Close(id)
	chunks := 0
	total := 0
	for {
		res, err := fx.rt.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) > 0 {
			chunks++
		}
		total += len(res.Rows)
		if res.Done {
			break
		}
	}
	// 60000 rows x 16 bytes ~= 940 KB: at least 3 chunks of 256 KB.
	if chunks < 3 {
		t.Fatalf("large result shipped in %d chunks, want several", chunks)
	}
	if total != fx.nS {
		t.Fatalf("drained %d rows, want %d", total, fx.nS)
	}
}

func TestOpenValidatesQuery(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 100)
	if _, err := fx.rt.Open(Query{Table: RefOf(fx.s)}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("no-output query err = %v", err)
	}
	s := schemaS()
	both := Query{
		Table:  RefOf(fx.s),
		Output: []plan.OutputCol{{Name: "x", E: expr.ColRef(s, "s_id")}},
		Aggs:   []plan.AggSpec{{Kind: plan.Count, Name: "c"}},
	}
	if _, err := fx.rt.Open(both); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("projection+aggregation err = %v", err)
	}
	badJoin := Query{
		Table:  RefOf(fx.s),
		Join:   &JoinSpec{Build: RefOf(fx.r), BuildKey: 99, ProbeKey: 1},
		Output: []plan.OutputCol{{Name: "x", E: expr.ColRef(s, "s_id")}},
	}
	if _, err := fx.rt.Open(badJoin); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("bad join key err = %v", err)
	}
	uncompiled := Query{
		Table:  RefOf(fx.s),
		Output: []plan.OutputCol{{Name: "x", E: opaqueExpr{expr.ColRef(s, "s_id")}}},
	}
	if _, err := fx.rt.Open(uncompiled); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("expression outside the batch compiler's class: err = %v", err)
	}
}

// opaqueExpr is an expression the batch compiler does not know.
type opaqueExpr struct{ expr.Col }

func TestMemoryGrantRejected(t *testing.T) {
	// A device with tiny DRAM cannot host the build hash table.
	p := ssd.DefaultParams()
	p.Geometry = nand.Geometry{
		Channels: 8, ChipsPerChannel: 2, BlocksPerChip: 16, PagesPerBlock: 32, PageSize: 8192,
	}
	p.DeviceDRAMBytes = 600 * 1024 // barely above double-buffer floor
	dev, err := ssd.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var alloc heap.Allocator
	r, _ := heap.Create("R", dev, &alloc, schemaR(), page.NSM, 64)
	s, _ := heap.Create("S", dev, &alloc, schemaS(), page.NSM, 64)
	app := r.NewAppender()
	for i := 0; i < 30000; i++ {
		app.Append(schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(0)})
	}
	app.Close()
	app = s.NewAppender()
	app.Append(schema.Tuple{schema.IntVal(0), schema.IntVal(0), schema.IntVal(0)})
	app.Close()
	rt := NewRuntime(dev, DefaultCostModel())
	q := Query{
		Table:  RefOf(s),
		Join:   &JoinSpec{Build: RefOf(r), BuildKey: 0, ProbeKey: 1},
		Output: []plan.OutputCol{{Name: "x", E: expr.Col{Index: 0, K: schema.Int64}}},
	}
	if _, err := rt.Open(q); !errors.Is(err, ErrMemoryGrant) {
		t.Fatalf("oversized build err = %v", err)
	}
}

// A selective device scan over paper-realistic tuple widths (~200 bytes,
// a few dozen tuples per page) must beat the host path: it reads at
// internal bandwidth and ships only matching rows. (Narrow tuples pack
// hundreds of rows per page and genuinely saturate the embedded CPU —
// the effect the paper's §5 "CPU quickly became a bottleneck" describes —
// so this test uses a padded schema.)
func TestSelectiveDeviceScanBeatsHostBandwidth(t *testing.T) {
	wide := schema.New(
		schema.Column{Name: "w_id", Kind: schema.Int64},
		schema.Column{Name: "w_val", Kind: schema.Int32},
		schema.Column{Name: "w_pad", Kind: schema.Char, Len: 180},
	)
	p := ssd.DefaultParams()
	p.Geometry = nand.Geometry{
		Channels: 8, ChipsPerChannel: 2, BlocksPerChip: 16, PagesPerBlock: 32, PageSize: 8192,
	}
	dev, err := ssd.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var alloc heap.Allocator
	f, err := heap.Create("W", dev, &alloc, wide, page.PAX, 3000)
	if err != nil {
		t.Fatal(err)
	}
	app := f.NewAppender()
	const n = 100000
	for i := 0; i < n; i++ {
		app.Append(schema.Tuple{
			schema.IntVal(int64(i)), schema.IntVal(int64(i % 100)), schema.StrVal("pad"),
		})
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	dev.ResetTiming()
	rt := NewRuntime(dev, DefaultCostModel())
	q := Query{
		Table:  RefOf(f),
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(wide, "w_val"), R: expr.IntConst(1)},
		Output: []plan.OutputCol{{Name: "w_id", E: expr.ColRef(wide, "w_id")}},
	}
	rows, end, err := rt.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n/100 {
		t.Fatalf("selection returned %d rows, want %d", len(rows), n/100)
	}
	hostTime := time.Duration(float64(f.Bytes()) / (550 * sim.MB) * float64(time.Second))
	if end >= hostTime {
		t.Fatalf("device scan %v not faster than host link-bound %v", end, hostTime)
	}
	act := dev.Activity()
	if act.LinkBytesOut > f.Bytes()/10 {
		t.Fatalf("device shipped %d bytes for a 1%% selection of %d", act.LinkBytesOut, f.Bytes())
	}
	if act.FlashBytesRead < f.Bytes() {
		t.Fatalf("device read %d flash bytes, table is %d", act.FlashBytesRead, f.Bytes())
	}
}

func TestExplain(t *testing.T) {
	fx := newFixture(t, page.PAX, 10, 100)
	s := schemaS()
	q := Query{
		Table:  RefOf(fx.s),
		Join:   &JoinSpec{Build: RefOf(fx.r), BuildKey: 0, ProbeKey: 1},
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "s_val"), R: expr.IntConst(5)},
		Aggs:   []plan.AggSpec{{Kind: plan.Count, Name: "n"}},
	}
	out := q.Explain()
	for _, want := range []string{"scan S", "hash probe", "build R", "filter", "COUNT(*)", "GET"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestAggregateOverEmptyInputStillOneRow(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 100)
	s := schemaS()
	q := Query{
		Table:  RefOf(fx.s),
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "s_val"), R: expr.IntConst(-5)},
		Aggs:   []plan.AggSpec{{Kind: plan.Sum, E: expr.ColRef(s, "s_id"), Name: "x"}},
	}
	rows, _, err := fx.rt.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int != 0 {
		t.Fatalf("empty-input agg = %v", rows)
	}
}

func TestDeviceGroupedAggregateMatchesScalarPartition(t *testing.T) {
	fx := newFixture(t, page.PAX, 10, 6000)
	s := schemaS()
	// Grouped by s_fk (10 groups): each group's count must match a
	// scalar count with the equivalent filter.
	q := Query{
		Table:   RefOf(fx.s),
		GroupBy: []int{1},
		Aggs: []plan.AggSpec{
			{Kind: plan.Count, Name: "c"},
			{Kind: plan.Sum, E: expr.ColRef(s, "s_val"), Name: "sv"},
		},
	}
	rows, _, err := fx.rt.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("groups = %d, want 10", len(rows))
	}
	var total int64
	for _, r := range rows {
		g := r[0].Int
		scalar := Query{
			Table:  RefOf(fx.s),
			Filter: expr.Cmp{Op: expr.EQ, L: expr.ColRef(s, "s_fk"), R: expr.IntConst(g)},
			Aggs: []plan.AggSpec{
				{Kind: plan.Count, Name: "c"},
				{Kind: plan.Sum, E: expr.ColRef(s, "s_val"), Name: "sv"},
			},
		}
		want, _, err := fx.rt.RunQuery(scalar)
		if err != nil {
			t.Fatal(err)
		}
		if r[1].Int != want[0][0].Int || r[2].Int != want[0][1].Int {
			t.Fatalf("group %d = (%d,%d), scalar says (%d,%d)",
				g, r[1].Int, r[2].Int, want[0][0].Int, want[0][1].Int)
		}
		total += r[1].Int
	}
	if total != int64(fx.nS) {
		t.Fatalf("group counts sum to %d, want %d", total, fx.nS)
	}
}

func TestGroupByValidation(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 100)
	s := schemaS()
	// GROUP BY without aggregates.
	if _, err := fx.rt.Open(Query{
		Table:   RefOf(fx.s),
		GroupBy: []int{0},
		Output:  []plan.OutputCol{{Name: "x", E: expr.ColRef(s, "s_id")}},
	}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("GROUP BY without aggs err = %v", err)
	}
	// Out-of-range group column.
	if _, err := fx.rt.Open(Query{
		Table:   RefOf(fx.s),
		GroupBy: []int{99},
		Aggs:    []plan.AggSpec{{Kind: plan.Count, Name: "c"}},
	}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("out-of-range group col err = %v", err)
	}
}

func TestGetAfterDoneStaysDone(t *testing.T) {
	fx := newFixture(t, page.NSM, 10, 50)
	s := schemaS()
	id, err := fx.rt.Open(Query{
		Table:  RefOf(fx.s),
		Output: []plan.OutputCol{{Name: "x", E: expr.ColRef(s, "s_id")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fx.rt.Close(id)
	var drained int
	for {
		res, err := fx.rt.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		drained += len(res.Rows)
		if res.Done {
			break
		}
	}
	// Further GETs report done with no rows, repeatedly.
	for i := 0; i < 3; i++ {
		res, err := fx.rt.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done || len(res.Rows) != 0 {
			t.Fatalf("post-drain Get #%d = %+v", i, res)
		}
	}
	if drained != 50 {
		t.Fatalf("drained %d rows", drained)
	}
}

func TestDeviceNSMAndPAXAgree(t *testing.T) {
	fxN := newFixture(t, page.NSM, 15, 4000)
	fxP := newFixture(t, page.PAX, 15, 4000)
	s := schemaS()
	build := func(fx *fixture) Query {
		return Query{
			Table:  RefOf(fx.s),
			Join:   &JoinSpec{Build: RefOf(fx.r), BuildKey: 0, ProbeKey: 1},
			Filter: expr.Cmp{Op: expr.GE, L: expr.ColRef(s, "s_val"), R: expr.IntConst(97)},
			Aggs: []plan.AggSpec{
				{Kind: plan.Count, Name: "c"},
				{Kind: plan.Sum, E: expr.Col{Index: 4, Name: "r_val", K: schema.Int32}, Name: "s"},
			},
		}
	}
	rn, _, err := fxN.rt.RunQuery(build(fxN))
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := fxP.rt.RunQuery(build(fxP))
	if err != nil {
		t.Fatal(err)
	}
	if rn[0][0].Int != rp[0][0].Int || rn[0][1].Int != rp[0][1].Int {
		t.Fatalf("NSM %v != PAX %v", rn[0], rp[0])
	}
	// But NSM costs more device time for the same work.
	fxN.dev.ResetTiming()
	fxP.dev.ResetTiming()
	_, tn, _ := fxN.rt.RunQuery(build(fxN))
	_, tp, _ := fxP.rt.RunQuery(build(fxP))
	if tn <= tp {
		t.Fatalf("NSM %v not slower than PAX %v in the device", tn, tp)
	}
}
