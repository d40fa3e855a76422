// Wall-clock scaling of the experiment suite across workers, and the
// allocation gate on the executor hot path: allocs per query on the
// per-tuple paths the arena work targets.
package smartssd

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"smartssd/internal/core"
	"smartssd/internal/experiments"
	"smartssd/internal/tpch"
)

// suiteAll regenerates every `-exp all` artifact on a prepared suite
// and returns a digest length (consumed so the work isn't dead).
func suiteAll(b *testing.B, s *experiments.Suite) int {
	b.Helper()
	total := 0
	f3, err := s.Fig3()
	if err != nil {
		b.Fatal(err)
	}
	total += len(f3.Render())
	f5, err := s.Fig5(nil)
	if err != nil {
		b.Fatal(err)
	}
	total += len(f5.Render())
	f7, err := s.Fig7()
	if err != nil {
		b.Fatal(err)
	}
	total += len(f7.Render())
	t3, err := s.Table3()
	if err != nil {
		b.Fatal(err)
	}
	total += len(t3.Render())
	return total
}

// BenchmarkSuiteWallClock measures the figure/table suite in the
// steady state a long-lived service reaches: each sub-benchmark
// prepares an experiments.Suite — loading the base engines, cloning
// one engine per worker, and running one unmeasured warm-up pass so
// arenas, buffer-pool frame maps, and simulator calendars hit their
// resettable high-water shapes — and then times passes that reuse
// those warm workers via Engine.ResetForRun. That makes the numbers
// comparable across worker counts: par_1 and par_N run identical
// per-pass work, so the wall-clock ratio isolates the harness and the
// B/op column exposes any per-worker state the reuse path regrows
// instead of resetting.
//
// Widths: 1 worker (the pre-harness serial path), 2 workers (always
// run, so even the smallest CI box exercises the reuse path), and
// GOMAXPROCS workers (floored at 4). Rendered artifacts are
// byte-identical at every width and on every pass. Each sub-benchmark
// reports the box's core count as a `cores` metric so the CI gate can
// tell a real speedup regression from a benchmark run on too few cores.
func BenchmarkSuiteWallClock(b *testing.B) {
	// NumCPU, not GOMAXPROCS(0): under `go test -cpu 1` (or a capped
	// GOMAXPROCS) the latter reports 1 even on a wide box, which would
	// make the CI suite-speedup gate wrongly skip.
	cores := runtime.NumCPU()
	wide := cores
	if wide < 4 {
		wide = 4
		fmt.Fprintf(os.Stderr,
			"# bench: only %d core(s) available; par_%d still runs, but its speedup over par_1 is not meaningful below 4 cores\n",
			cores, wide)
	}
	for _, par := range []int{1, 2, wide} {
		b.Run(fmt.Sprintf("par_%d", par), func(b *testing.B) {
			o := benchOptions()
			o.Parallelism = par
			s := experiments.NewSuite(o)
			defer s.Close()
			// Two warm-up passes: the first loads the bases and first-fills
			// every per-worker pool; the second lets pools that right-size
			// on Reset converge to their steady shape before timing starts.
			warm := suiteAll(b, s)
			if again := suiteAll(b, s); again != warm {
				b.Fatalf("second warm-up pass rendered %d bytes, first %d", again, warm)
			}
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = suiteAll(b, s)
			}
			if n != warm {
				b.Fatalf("steady-state pass rendered %d bytes, warm-up pass %d", n, warm)
			}
			b.ReportMetric(float64(n), "bytes_rendered")
			b.ReportMetric(float64(cores), "cores")
		})
	}
}

// benchQ6Engine builds a loaded engine with TPC-H LINEITEM and PART.
func benchQ6Engine(tb testing.TB) *core.Engine {
	tb.Helper()
	o := benchOptions()
	e, err := core.New(core.Config{SSD: o.SSD})
	if err != nil {
		tb.Fatal(err)
	}
	li := tpch.LineitemSchema()
	if _, err := e.CreateTable("lineitem", li, 1 /* PAX */, tpch.NumLineitem(o.SF)/51+2, core.OnSSD); err != nil {
		tb.Fatal(err)
	}
	if err := e.Load("lineitem", tpch.NewLineitemGen(o.SF, o.Seed).Next); err != nil {
		tb.Fatal(err)
	}
	pa := tpch.PartSchema()
	if _, err := e.CreateTable("part", pa, 1, tpch.NumPart(o.SF)/23+2, core.OnSSD); err != nil {
		tb.Fatal(err)
	}
	if err := e.Load("part", tpch.NewPartGen(o.SF, o.Seed+1).Next); err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestHotPathAllocs bounds the allocations of one warm query run on
// the three paths the arena work targets: the host scan and scalar
// aggregate (host Q6), the in-device program (device Q6) and the host
// hash join's build side (host Q14). Each bound is 1.2x the count
// measured when the gate was last tightened (59, 90 and 117; two more
// each under -race), so a per-page or per-row allocation fails it. It
// is not parallel: AllocsPerRun counts every goroutine's allocations.
func TestHotPathAllocs(t *testing.T) {
	e := benchQ6Engine(t)
	q6 := core.QuerySpec{
		Table:          "lineitem",
		Filter:         tpch.Q6Predicate(),
		Aggs:           tpch.Q6Aggregates(),
		EstSelectivity: 0.006,
	}
	q14 := core.QuerySpec{
		Table:          "lineitem",
		Join:           &core.JoinClause{BuildTable: "part", BuildKey: "p_partkey", ProbeKey: "l_partkey"},
		Filter:         tpch.Q14DateRange(),
		Aggs:           tpch.Q14Aggregates(tpch.LineitemSchema(), tpch.PartSchema()),
		EstSelectivity: 0.012,
	}
	for _, c := range []struct {
		name  string
		spec  core.QuerySpec
		mode  core.Mode
		bound float64
	}{
		{"host_q6", q6, core.ForceHost, 71},
		{"device_q6", q6, core.ForceDevice, 108},
		{"host_q14", q14, core.ForceHost, 140},
	} {
		run := func() {
			if _, err := e.Run(c.spec, c.mode); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		// One warm run first: arenas, batch vectors and kernel caches
		// reach their steady reusable shapes, so the count measures the
		// reuse path rather than first-run growth.
		run()
		if got := testing.AllocsPerRun(5, run); got > c.bound {
			t.Errorf("%s: %.0f allocs per run, bound %.0f", c.name, got, c.bound)
		} else {
			t.Logf("%s: %.0f allocs per run (bound %.0f)", c.name, got, c.bound)
		}
	}
}
