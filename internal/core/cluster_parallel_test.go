package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// driverPair builds two clusters holding identical data: a clean one,
// whose big runs take the device-parallel driver, and one whose devices
// carry an armed injector that never fires, which pins it to the
// in-order driver.
func driverPair(t *testing.T, n, k, rows int) (par, seq *Cluster) {
	t.Helper()
	s, dim := widePaddedSchema(), dimSchema()
	pad := schema.StrVal("p")
	fact := make([]schema.Tuple, rows)
	rng := rand.New(rand.NewSource(int64(rows)))
	for i := range fact {
		fact[i] = schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(int64(rng.Intn(40))),
			schema.IntVal(int64(rng.Intn(1000))), pad}
	}
	build := func(armed bool) *Cluster {
		p := smallSSD()
		p.Fault.Armed = armed
		cl, err := NewCluster(n, p, device.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		cl.SetReplication(k)
		if err := cl.CreateTable("fact", s, page.PAX, 512); err != nil {
			t.Fatal(err)
		}
		if err := cl.Load("fact", sliceFeeder(fact)); err != nil {
			t.Fatal(err)
		}
		if err := cl.CreateTable("dim", dim, page.PAX, 8); err != nil {
			t.Fatal(err)
		}
		err = cl.Replicate("dim", func() func() (schema.Tuple, bool) {
			i := 0
			return func() (schema.Tuple, bool) {
				if i >= 32 { // grp 32..39 finds no partner
					return nil, false
				}
				i++
				return schema.Tuple{schema.IntVal(int64(i - 1)), schema.IntVal(int64(7 * i))}, true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	return build(false), build(true)
}

// TestClusterParallelDriverMatchesInOrder is the property the
// device-parallel RunRouted rests on: for random device counts,
// replication factors, table sizes on both sides of the fan-out gate,
// query shapes and route functions (identity, least-loaded, and one
// that piles neighbouring partitions onto one device so groups hold
// more than one partition), the concurrent driver and the in-order
// driver return the same ClusterResult field for field and leave every
// device with the same resource report, protocol phases and FTL
// counters. Run it under -race: the concurrent driver's claim is that
// no two goroutines ever touch one device.
func TestClusterParallelDriverMatchesInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := widePaddedSchema()
	perPage := page.Capacity(s, page.PAX)
	sum := func(col string) plan.AggSpec {
		return plan.AggSpec{Kind: plan.Sum, E: expr.ColRef(s, col), Name: "sum_" + col}
	}
	fanned, inOrder := 0, 0
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(8)
		k := 1 + rng.Intn(min(n, 3))
		pagesPerDevice := parallelMinPages / 4
		if trial%2 == 0 {
			pagesPerDevice = parallelMinPages + 8
		}
		par, seq := driverPair(t, n, k, n*pagesPerDevice*perPage)

		filter, err := expr.ParsePredicate(s, "val < 300 AND grp >= 3")
		if err != nil {
			t.Fatal(err)
		}
		point, err := expr.ParsePredicate(s, "val = 7")
		if err != nil {
			t.Fatal(err)
		}
		queries := []ClusterQuery{
			{Table: "fact", Filter: filter, Aggs: []plan.AggSpec{sum("val"), {Kind: plan.Count, Name: "cnt"}}},
			{Table: "fact", Aggs: []plan.AggSpec{sum("val"), {Kind: plan.Max, E: expr.ColRef(s, "id"), Name: "hi"}},
				GroupBy: []int{s.MustColumnIndex("grp")}},
			{Table: "fact", Filter: point,
				Output: []plan.OutputCol{{Name: "id", E: expr.ColRef(s, "id")}, {Name: "pad", E: expr.ColRef(s, "pad")}}},
			{Table: "fact", Join: &JoinClause{BuildTable: "dim", BuildKey: "d_key", ProbeKey: "grp"},
				Filter: filter, Aggs: []plan.AggSpec{sum("val"),
					{Kind: plan.Sum, E: expr.Col{Index: s.NumColumns() + 1, Name: "d_payload", K: schema.Int32}, Name: "sum_payload"}}},
		}
		// Route functions come in pairs with separate state, one per
		// cluster, so both sides see the same sequence of choices.
		routes := func() []RouteFunc {
			loads := make([]int, n)
			return []RouteFunc{
				nil,
				func(_ int, cands []int) int {
					best := cands[0]
					for _, c := range cands[1:] {
						if loads[c] < loads[best] {
							best = c
						}
					}
					loads[best]++
					return best
				},
				func(part int, cands []int) int { return cands[(part+1)%2%len(cands)] },
			}
		}
		parRoutes, seqRoutes := routes(), routes()

		for qi, q := range queries {
			var pages int64
			for i, f := range par.tables[q.Table] {
				pages += f.Pages()
				if q.Join != nil {
					pages += par.tables[q.Join.BuildTable][i].Pages()
				}
			}
			if seq.fansOut(pages) {
				t.Fatalf("trial %d: a cluster with armed injectors fans out", trial)
			}
			if par.fansOut(pages) {
				fanned++
			} else {
				inOrder++
			}
			for ri := range parRoutes {
				if rng.Intn(3) == 0 {
					par.ResetTiming()
					seq.ResetTiming()
				}
				got, err := par.RunRouted(q, parRoutes[ri])
				if err != nil {
					t.Fatalf("trial %d (n=%d k=%d) query %d route %d: %v", trial, n, k, qi, ri, err)
				}
				want, err := seq.RunRouted(q, seqRoutes[ri])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (n=%d k=%d) query %d route %d: results differ\nconcurrent %+v\nin order   %+v",
						trial, n, k, qi, ri, got, want)
				}
				for d := 0; d < n; d++ {
					if g, w := par.Device(d).Report(got.Elapsed), seq.Device(d).Report(want.Elapsed); !reflect.DeepEqual(g, w) {
						t.Fatalf("trial %d query %d route %d device %d: reports differ\n%+v\n%+v", trial, qi, ri, d, g, w)
					}
					if g, w := par.runtimes[d].PhaseStats(), seq.runtimes[d].PhaseStats(); g != w {
						t.Fatalf("trial %d query %d route %d device %d: phases differ\n%+v\n%+v", trial, qi, ri, d, g, w)
					}
					if g, w := par.Device(d).FTLStats(), seq.Device(d).FTLStats(); g != w {
						t.Fatalf("trial %d query %d route %d device %d: FTL stats differ\n%+v\n%+v", trial, qi, ri, d, g, w)
					}
				}
			}
		}
	}
	if fanned == 0 || inOrder == 0 {
		t.Fatalf("both sides of the fan-out gate must be covered: %d fanned out, %d in order", fanned, inOrder)
	}
}

// TestClusterCatalogReadsDoNotWaitForARun parks a run inside its route
// callback — it holds the run lock there — and reads the catalog from
// another goroutine: every read, EXPLAIN included, must return while
// the run is parked.
func TestClusterCatalogReadsDoNotWaitForARun(t *testing.T) {
	cl, q := concurrencyFixture(t, 3, 2)
	parked, release := make(chan struct{}), make(chan struct{})
	runDone := make(chan error, 1)
	go func() {
		_, err := cl.RunRouted(q, func(part int, cands []int) int {
			if part == 0 {
				close(parked)
				<-release
			}
			return cands[0]
		})
		runDone <- err
	}()
	<-parked
	if _, err := cl.Schema("lineitem"); err != nil {
		t.Error(err)
	}
	if names := cl.TableNames(); len(names) != 1 || names[0] != "lineitem" {
		t.Errorf("TableNames = %v", names)
	}
	if st, ok := cl.TableStats("lineitem"); !ok || !st[0].Known {
		t.Errorf("TableStats = %v, %v", st, ok)
	}
	if k := cl.Replication(); k != 2 {
		t.Errorf("Replication = %d, want 2", k)
	}
	if plan, err := cl.Explain(q); err != nil || !strings.Contains(plan, "3 partitions of lineitem") {
		t.Errorf("Explain = %q, %v", plan, err)
	}
	close(release)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}
