// Tests of the public facade, written as an external consumer would use
// it (package smartssd_test) so that the exported surface alone is
// proven sufficient to drive the full system.
package smartssd_test

import (
	"testing"

	"smartssd"
	"smartssd/workload"
)

func buildOrders(t *testing.T) (*smartssd.System, *smartssd.Schema) {
	t.Helper()
	sys, err := smartssd.New(smartssd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	orders := smartssd.NewSchema(
		smartssd.Column{Name: "o_id", Kind: smartssd.Int64},
		smartssd.Column{Name: "o_total", Kind: smartssd.Int64},
		smartssd.Column{Name: "o_status", Kind: smartssd.Int32},
		smartssd.Column{Name: "o_date", Kind: smartssd.Date},
		smartssd.Column{Name: "o_note", Kind: smartssd.Char, Len: 100},
	)
	if _, err := sys.CreateTable("orders", orders, smartssd.PAX, 2048, smartssd.OnSSD); err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	day0 := smartssd.DaysOf(2013, 6, 1)
	i := int64(0)
	err = sys.Load("orders", func() (smartssd.Tuple, bool) {
		if i >= n {
			return nil, false
		}
		tup := smartssd.Tuple{
			smartssd.IntVal(i),
			smartssd.IntVal(100 + i%900),
			smartssd.IntVal(i % 50),
			smartssd.IntVal(day0 + i%365),
			smartssd.StrVal("note"),
		}
		i++
		return tup, true
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, orders
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys, orders := buildOrders(t)
	q := smartssd.QuerySpec{
		Table: "orders",
		Filter: smartssd.And(
			smartssd.EQ(smartssd.ColOf(orders, "o_status"), smartssd.Int(7)),
			smartssd.GE(smartssd.ColOf(orders, "o_date"), smartssd.DateOf(smartssd.DaysOf(2013, 6, 1))),
		),
		Aggs: []smartssd.AggSpec{
			{Kind: smartssd.Sum, E: smartssd.ColOf(orders, "o_total"), Name: "sum_total"},
			{Kind: smartssd.Count, Name: "cnt"},
			{Kind: smartssd.Max, E: smartssd.ColOf(orders, "o_id"), Name: "max_id"},
		},
		EstSelectivity: 0.02,
	}
	host, err := sys.Run(q, smartssd.ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := sys.Run(q, smartssd.ForceDevice)
	if err != nil {
		t.Fatal(err)
	}
	if host.Rows[0][0].Int != dev.Rows[0][0].Int ||
		host.Rows[0][1].Int != dev.Rows[0][1].Int ||
		host.Rows[0][2].Int != dev.Rows[0][2].Int {
		t.Fatalf("host %v != device %v", host.Rows[0], dev.Rows[0])
	}
	// Ground truth: statuses cycle 0..49, so 2% match status 7.
	if got := host.Rows[0][1].Int; got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	auto, err := sys.Run(q, smartssd.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Placement != smartssd.RanDevice {
		t.Fatalf("auto placement = %v (%s)", auto.Placement, auto.Decision.Reason)
	}
	if auto.Energy.SystemkJ() <= 0 || auto.Elapsed <= 0 {
		t.Fatal("metrics not populated")
	}
}

func TestPublicExpressionBuilders(t *testing.T) {
	s := smartssd.NewSchema(
		smartssd.Column{Name: "a", Kind: smartssd.Int64},
		smartssd.Column{Name: "txt", Kind: smartssd.Char, Len: 10},
	)
	row := smartssd.Tuple{smartssd.IntVal(6), smartssd.StrVal("PROMO X")}
	eval := func(e smartssd.Expr) int64 {
		return e.Eval(tupleRow(row)).Int
	}
	if eval(smartssd.Add(smartssd.ColOf(s, "a"), smartssd.Int(4))) != 10 {
		t.Error("Add")
	}
	if eval(smartssd.Mul(smartssd.Sub(smartssd.Int(10), smartssd.ColOf(s, "a")), smartssd.Int(3))) != 12 {
		t.Error("Sub/Mul")
	}
	if eval(smartssd.Div(smartssd.Int(7), smartssd.Int(2))) != 3 {
		t.Error("Div")
	}
	if eval(smartssd.Like(smartssd.ColOf(s, "txt"), "PROMO")) != 1 {
		t.Error("Like")
	}
	if eval(smartssd.Case(smartssd.LT(smartssd.ColOf(s, "a"), smartssd.Int(10)), smartssd.Int(1), smartssd.Int(2))) != 1 {
		t.Error("Case")
	}
	if eval(smartssd.Or(smartssd.EQ(smartssd.Int(1), smartssd.Int(2)), smartssd.NE(smartssd.Int(1), smartssd.Int(2)))) != 1 {
		t.Error("Or/NE")
	}
	if eval(smartssd.Not(smartssd.LE(smartssd.Int(1), smartssd.Int(2)))) != 0 {
		t.Error("Not/LE")
	}
	if eval(smartssd.GT(smartssd.Int(3), smartssd.Int(2))) != 1 {
		t.Error("GT")
	}
	if eval(smartssd.EQ(smartssd.ColOf(s, "txt"), smartssd.Str("PROMO X"))) != 1 {
		t.Error("Str/EQ")
	}
}

// tupleRow adapts a Tuple for direct expression evaluation in tests.
type tupleRowT smartssd.Tuple

func (r tupleRowT) Col(i int) smartssd.Value { return r[i] }

func tupleRow(t smartssd.Tuple) tupleRowT { return tupleRowT(t) }

func TestWorkloadPackageThroughPublicAPI(t *testing.T) {
	sys, err := smartssd.New(smartssd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	li := workload.LineitemSchema()
	const sf = 0.005
	pages := workload.NumLineitem(sf)/51 + 2
	if _, err := sys.CreateTable("lineitem", li, smartssd.PAX, pages, smartssd.OnSSD); err != nil {
		t.Fatal(err)
	}
	if err := sys.Load("lineitem", workload.LineitemGen(sf, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(smartssd.QuerySpec{
		Table:          "lineitem",
		Filter:         workload.Q6Predicate(),
		Aggs:           workload.Q6Aggregates(),
		EstSelectivity: workload.Q6EstSelectivity,
	}, smartssd.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int <= 0 {
		t.Fatalf("Q6 via public API = %v", res.Rows)
	}
}

func TestMeasureBandwidthPublic(t *testing.T) {
	sys, err := smartssd.New(smartssd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	internal, host, err := smartssd.MeasureBandwidth(sys.SSD())
	if err != nil {
		t.Fatal(err)
	}
	if ratio := internal / host; ratio < 2.6 || ratio > 3.0 {
		t.Fatalf("bandwidth ratio = %.2f, want about 2.8", ratio)
	}
}

func TestBandwidthTrendPublic(t *testing.T) {
	tr := smartssd.BandwidthTrend()
	if len(tr) == 0 || tr[0].Year != 2007 {
		t.Fatalf("trend = %v", tr)
	}
}

func TestClusterPublic(t *testing.T) {
	cl, err := smartssd.NewCluster(3, smartssd.DefaultSSDParams())
	if err != nil {
		t.Fatal(err)
	}
	if cl.Devices() != 3 {
		t.Fatalf("Devices = %d", cl.Devices())
	}
	s := smartssd.NewSchema(
		smartssd.Column{Name: "k", Kind: smartssd.Int64},
		smartssd.Column{Name: "v", Kind: smartssd.Int32},
		smartssd.Column{Name: "pad", Kind: smartssd.Char, Len: 120},
	)
	if err := cl.CreateTable("t", s, smartssd.PAX, 512); err != nil {
		t.Fatal(err)
	}
	const n = 9000
	i := int64(0)
	err = cl.Load("t", func() (smartssd.Tuple, bool) {
		if i >= n {
			return nil, false
		}
		tup := smartssd.Tuple{smartssd.IntVal(i), smartssd.IntVal(i % 10), smartssd.StrVal("x")}
		i++
		return tup, true
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(smartssd.QuerySpec{
		Table:  "t",
		Filter: smartssd.LT(smartssd.ColOf(s, "v"), smartssd.Int(5)),
		Aggs:   []smartssd.AggSpec{{Kind: smartssd.Count, Name: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != n/2 {
		t.Fatalf("cluster count = %d, want %d", res.Rows[0][0].Int, n/2)
	}
}
