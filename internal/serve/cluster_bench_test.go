package serve

import (
	"testing"

	"smartssd/internal/core"
	"smartssd/internal/device"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/ssd"
	"smartssd/workload"
)

// daemonCluster loads the cluster smartssdd serves at its benchmark
// settings: -sf 0.02 -seed 1 -devices 4 -replication 2.
func daemonCluster(b *testing.B) *core.Cluster {
	b.Helper()
	const sf, seed = 0.02, 1
	cl, err := core.NewCluster(4, ssd.DefaultParams(), device.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	cl.SetReplication(2)
	if err := cl.CreateTable("lineitem", workload.LineitemSchema(), page.PAX, workload.NumLineitem(sf)/51+2); err != nil {
		b.Fatal(err)
	}
	if err := cl.Load("lineitem", workload.LineitemGen(sf, seed)); err != nil {
		b.Fatal(err)
	}
	if err := cl.CreateTable("part", workload.PartSchema(), page.PAX, workload.NumPart(sf)/40+2); err != nil {
		b.Fatal(err)
	}
	if err := cl.Replicate("part", func() func() (schema.Tuple, bool) {
		return workload.PartGen(sf, seed+1)
	}); err != nil {
		b.Fatal(err)
	}
	return cl
}

// BenchmarkClusterClasses times one cold cluster session of each class
// the repository benchmark's cluster_rw workload mixes (five q6, one
// q1, one q14 and one update in every eight ops), below the HTTP and
// session layers: ResetTiming plus RunRouted or Update. The ladder's
// core.run_cluster_ms is the mean over that mix; this is the per-class
// split.
func BenchmarkClusterClasses(b *testing.B) {
	cl := daemonCluster(b)
	classes := []struct{ name, body string }{
		{"q6", `{"table":"lineitem","target":"cluster","predicate":"l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount > 5 AND l_discount < 7 AND l_quantity < 2400","aggs":[{"kind":"sum","expr":"l_extendedprice * l_discount","name":"revenue"}]}`},
		{"q1", `{"target":"cluster","sql":"SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price, SUM(l_extendedprice * (100 - l_discount) / 100) AS sum_disc_price, COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= DATE '1998-09-01' GROUP BY l_returnflag, l_linestatus"}`},
		{"q14", `{"target":"cluster","sql":"SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (100 - l_discount) / 100 ELSE 0 END) AS promo_revenue, SUM(l_extendedprice * (100 - l_discount) / 100) AS total_revenue FROM lineitem, part WHERE l_partkey = p_partkey AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'"}`},
		{"update", `{"table":"lineitem","target":"cluster","predicate":"l_orderkey >= 801 AND l_orderkey < 809","update":[{"column":"l_suppkey","expr":"l_suppkey + 1"}]}`},
	}
	updates := 0
	for _, c := range classes {
		q, err := DecodeRequest(ClusterSchemas{C: cl}, []byte(c.body))
		if err != nil {
			b.Fatalf("%s: %v", c.name, err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl.ResetTiming()
				if len(q.Sets) > 0 {
					// The same 32 rows every time: a commit of one log page,
					// as in the workload. Nothing checkpoints the 1024-page
					// coordinator log, so recovery empties it off the clock.
					if updates++; updates%512 == 0 {
						b.StopTimer()
						if _, err := cl.Recover(); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					if n, _, err := cl.Update(q.Req.Table, q.Filter, q.Sets); err != nil || n != 32 {
						b.Fatalf("update: %d rows, %v", n, err)
					}
					continue
				}
				if _, err := cl.RunRouted(q.Spec, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
