package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// lineitemSchema is the TPC-H lineitem slice the serving layer exposes;
// the property test runs randomly generated Q6-style predicates over it.
func lineitemSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "l_quantity", Kind: schema.Int32},
		schema.Column{Name: "l_extendedprice", Kind: schema.Int32},
		schema.Column{Name: "l_discount", Kind: schema.Int32},
		schema.Column{Name: "l_shipdate", Kind: schema.Date},
	)
}

// genLineitems materializes rows once so the single engine and the
// cluster load byte-identical data.
func genLineitems(rng *rand.Rand, n int) []schema.Tuple {
	rows := make([]schema.Tuple, n)
	for i := range rows {
		rows[i] = schema.Tuple{
			schema.IntVal(int64(1 + rng.Intn(50))),
			schema.IntVal(int64(900 + rng.Intn(100000))),
			schema.IntVal(int64(rng.Intn(11))),
			schema.DateVal(1992+rng.Intn(7), time.Month(1+rng.Intn(12)), 1+rng.Intn(28)),
		}
	}
	return rows
}

func sliceFeeder(rows []schema.Tuple) func() (schema.Tuple, bool) {
	i := 0
	return func() (schema.Tuple, bool) {
		if i >= len(rows) {
			return nil, false
		}
		t := rows[i]
		i++
		return t, true
	}
}

// TestClusterPropertyMatchesSingleEngine is the seeded property test:
// for random shard counts n in [1,8], replication k in [1,n], and random
// Q6-style predicates (arriving as text through expr.ParsePredicate,
// the same path the query service uses), the cluster's merged
// Sum/Count/Min/Max aggregate equals a single engine's device run bit
// for bit — including when the predicate matches nothing on some or
// all partitions, which half the trials force with a price cut near
// the top of the range. Routing every partition to a random replica
// must not change the answer either, since replicas hold identical
// data.
func TestClusterPropertyMatchesSingleEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	s := lineitemSchema()
	emptied := 0 // trials where some partitions matched nothing and some did
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(8)
		k := 1 + rng.Intn(n)
		rows := genLineitems(rng, 2000+rng.Intn(4000))

		yr := 1992 + rng.Intn(6)
		lo := rng.Intn(9)
		hi := lo + 1 + rng.Intn(10-lo)
		src := fmt.Sprintf(
			"l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01'"+
				" AND l_discount >= %d AND l_discount <= %d AND l_quantity < %d",
			yr, yr+1, lo, hi, 10+rng.Intn(41))
		if trial%2 == 1 {
			src = fmt.Sprintf("l_extendedprice >= %d AND l_discount <= %d", 100900-rng.Intn(400), hi)
		}
		filter, err := expr.ParsePredicate(s, src)
		if err != nil {
			t.Fatalf("trial %d: ParsePredicate(%q): %v", trial, src, err)
		}
		revenue, err := expr.Parse(s, "l_extendedprice * l_discount")
		if err != nil {
			t.Fatal(err)
		}
		price := expr.ColRef(s, "l_extendedprice")
		aggs := []plan.AggSpec{
			{Kind: plan.Sum, E: revenue, Name: "revenue"},
			{Kind: plan.Count, Name: "cnt"},
			{Kind: plan.Min, E: price, Name: "lo"},
			{Kind: plan.Max, E: revenue, Name: "hi"},
		}
		if matched := matchedPartitions(rows, filter, n); matched > 0 && matched < n {
			emptied++
		}

		e, err := New(Config{SSD: smallSSD()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CreateTable("lineitem", s, page.PAX, 512, OnSSD); err != nil {
			t.Fatal(err)
		}
		if err := e.Load("lineitem", sliceFeeder(rows)); err != nil {
			t.Fatal(err)
		}
		single, err := e.Run(QuerySpec{
			Table: "lineitem", Filter: filter, Aggs: aggs, EstSelectivity: 0.1,
		}, ForceDevice)
		if err != nil {
			t.Fatal(err)
		}

		cl, err := NewCluster(n, smallSSD(), device.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		cl.SetReplication(k)
		if err := cl.CreateTable("lineitem", s, page.PAX, 512); err != nil {
			t.Fatal(err)
		}
		if err := cl.Load("lineitem", sliceFeeder(rows)); err != nil {
			t.Fatal(err)
		}
		multi, err := cl.Run(ClusterQuery{Table: "lineitem", Filter: filter, Aggs: aggs})
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d): %v", trial, n, k, err)
		}
		if len(multi.Rows) != 1 || len(single.Rows) != 1 {
			t.Fatalf("trial %d: rows cluster=%d single=%d", trial, len(multi.Rows), len(single.Rows))
		}
		for c := range aggs {
			if multi.Rows[0][c].Int != single.Rows[0][c].Int {
				t.Fatalf("trial %d (n=%d k=%d, %q): agg %d cluster=%d single=%d",
					trial, n, k, src, c, multi.Rows[0][c].Int, single.Rows[0][c].Int)
			}
		}

		routed, err := cl.RunRouted(ClusterQuery{Table: "lineitem", Filter: filter, Aggs: aggs},
			func(part int, cands []int) int { return cands[rng.Intn(len(cands))] })
		if err != nil {
			t.Fatalf("trial %d routed: %v", trial, err)
		}
		for c := range aggs {
			if routed.Rows[0][c].Int != single.Rows[0][c].Int {
				t.Fatalf("trial %d: routed agg %d = %d, single = %d",
					trial, c, routed.Rows[0][c].Int, single.Rows[0][c].Int)
			}
		}
		if routed.Failovers != 0 {
			t.Fatalf("trial %d: routing counted %d failovers", trial, routed.Failovers)
		}
	}
	if emptied == 0 {
		t.Fatal("no trial left some partitions empty and others not")
	}
}

// matchedPartitions reports how many of the n round-robin partitions
// of rows hold a row matching filter.
func matchedPartitions(rows []schema.Tuple, filter expr.Expr, n int) int {
	hit := make([]bool, n)
	for i, r := range rows {
		row := expr.TupleRow(r)
		if filter.Eval(&row).Int != 0 {
			hit[i%n] = true
		}
	}
	matched := 0
	for _, h := range hit {
		if h {
			matched++
		}
	}
	return matched
}

// TestEmptySharesContributeNoMinMax is the regression test for scalar
// MIN/MAX over a split scan: a cluster partition or hybrid side that
// matches no rows still ships its scalar row of zeros, and that row
// must not fold into the merge. Four rows in the table pass the
// filter, and they leave shares empty on both paths.
func TestEmptySharesContributeNoMinMax(t *testing.T) {
	s := lineitemSchema()
	rows := genLineitems(rand.New(rand.NewSource(1)), 4000)
	filter, err := expr.ParsePredicate(s, "l_extendedprice >= 100820")
	if err != nil {
		t.Fatal(err)
	}
	price := expr.ColRef(s, "l_extendedprice")
	aggs := []plan.AggSpec{
		{Kind: plan.Min, E: price, Name: "lo"},
		{Kind: plan.Max, E: price, Name: "hi"},
		{Kind: plan.Count, Name: "cnt"},
	}
	spec := QuerySpec{Table: "lineitem", Filter: filter, Aggs: aggs, EstSelectivity: 0.01}
	e, err := New(Config{SSD: smallSSD()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("lineitem", s, page.PAX, 512, OnSSD); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("lineitem", sliceFeeder(rows)); err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(4, smallSSD(), device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("lineitem", s, page.PAX, 512); err != nil {
		t.Fatal(err)
	}
	if err := cl.Load("lineitem", sliceFeeder(rows)); err != nil {
		t.Fatal(err)
	}

	want := []int64{math.MaxInt64, math.MinInt64, 0}
	for _, r := range rows {
		if p := r[1].Int; p >= 100820 {
			want[0], want[1], want[2] = min(want[0], p), max(want[1], p), want[2]+1
		}
	}
	if want[0] != 100828 || matchedPartitions(rows, filter, 4) == 4 {
		t.Fatalf("fixture drifted: MIN %d over %d rows", want[0], want[2])
	}
	check := func(name string, got []schema.Tuple) {
		t.Helper()
		if len(got) != 1 {
			t.Fatalf("%s: %d rows", name, len(got))
		}
		for c, w := range want {
			if got[0][c].Int != w {
				t.Fatalf("%s: %s = %d, want %d", name, aggs[c].Name, got[0][c].Int, w)
			}
		}
	}
	for _, mode := range []Mode{ForceDevice, ForceHost, ForceHybrid} {
		res, err := e.Run(spec, mode)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprint(mode), res.Rows)
	}
	res, err := cl.Run(ClusterQuery{Table: "lineitem", Filter: filter, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	check("cluster", res.Rows)

	// Nothing matches anywhere: the merge is the single engine's row of
	// zeros.
	none, err := expr.ParsePredicate(s, "l_extendedprice < 0")
	if err != nil {
		t.Fatal(err)
	}
	want = []int64{0, 0, 0}
	res, err = cl.Run(ClusterQuery{Table: "lineitem", Filter: none, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	check("cluster, no match", res.Rows)
	spec.Filter = none
	hyb, err := e.Run(spec, ForceHybrid)
	if err != nil {
		t.Fatal(err)
	}
	check("hybrid, no match", hyb.Rows)
}

// concurrencyFixture is a clean (fault-free) cluster for the race tests.
func concurrencyFixture(t *testing.T, n, k int) (*Cluster, ClusterQuery) {
	t.Helper()
	s := lineitemSchema()
	cl, err := NewCluster(n, smallSSD(), device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cl.SetReplication(k)
	if err := cl.CreateTable("lineitem", s, page.PAX, 512); err != nil {
		t.Fatal(err)
	}
	rows := genLineitems(rand.New(rand.NewSource(7)), 12000)
	if err := cl.Load("lineitem", sliceFeeder(rows)); err != nil {
		t.Fatal(err)
	}
	filter, err := expr.ParsePredicate(s,
		"l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount >= 5 AND l_discount <= 7")
	if err != nil {
		t.Fatal(err)
	}
	return cl, ClusterQuery{
		Table:  "lineitem",
		Filter: filter,
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.ColRef(s, "l_extendedprice"), Name: "sum_price"},
			{Kind: plan.Count, Name: "cnt"},
		},
	}
}

// TestClusterConcurrentRunsAreSafe is the regression test for the
// cluster concurrency contract. Before Cluster grew its mutex,
// concurrent Run calls interleaved on the shared sim clocks and this
// test failed under -race; with the mutex, every concurrent caller must
// get the same merged rows as a serial run, and concurrent ResetTiming
// calls must not corrupt anything.
func TestClusterConcurrentRunsAreSafe(t *testing.T) {
	cl, q := concurrencyFixture(t, 4, 2)
	ref, err := cl.Run(q)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const runsEach = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				if g%3 == 0 {
					cl.ResetTiming()
				}
				res, err := cl.Run(q)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d run %d: %w", g, r, err)
					return
				}
				for c := range q.Aggs {
					if res.Rows[0][c].Int != ref.Rows[0][c].Int {
						errs <- fmt.Errorf("goroutine %d run %d: agg %d = %d, want %d",
							g, r, c, res.Rows[0][c].Int, ref.Rows[0][c].Int)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClusterResetTimingRestoresElapsed pins the cold-session
// methodology the serving layer depends on: device timelines accumulate
// across runs, and ResetTiming restores a fresh cluster's timing so each
// session's Elapsed measures that session alone.
func TestClusterResetTimingRestoresElapsed(t *testing.T) {
	cl, q := concurrencyFixture(t, 3, 1)
	first, err := cl.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Elapsed <= first.Elapsed {
		t.Fatalf("back-to-back run elapsed %v not after first %v (timelines should accumulate)",
			second.Elapsed, first.Elapsed)
	}
	cl.ResetTiming()
	third, err := cl.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if third.Elapsed != first.Elapsed {
		t.Fatalf("post-reset elapsed %v != fresh elapsed %v", third.Elapsed, first.Elapsed)
	}
}

// TestClusterRunRoutedExecutedAccounting checks the routing surface:
// the chosen replica executes (visible in Executed), an out-of-ladder
// route falls back to the primary, and routing is not failover.
func TestClusterRunRoutedExecutedAccounting(t *testing.T) {
	cl, q := concurrencyFixture(t, 4, 3)
	res, err := cl.RunRouted(q, func(part int, cands []int) int {
		if len(cands) != 3 {
			t.Errorf("partition %d: %d candidates, want 3", part, len(cands))
		}
		return cands[len(cands)-1] // always the last chained replica
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cl.Devices(); i++ {
		want := (i + 2) % cl.Devices()
		if res.Executed[i] != want {
			t.Errorf("Executed[%d] = %d, want %d", i, res.Executed[i], want)
		}
	}
	if res.Failovers != 0 || res.Attempts != cl.Devices() {
		t.Fatalf("Failovers=%d Attempts=%d, want 0 and %d", res.Failovers, res.Attempts, cl.Devices())
	}

	ident, err := cl.RunRouted(q, func(part int, cands []int) int { return 99 })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cl.Devices(); i++ {
		if ident.Executed[i] != i {
			t.Errorf("invalid route: Executed[%d] = %d, want primary %d", i, ident.Executed[i], i)
		}
	}
}
