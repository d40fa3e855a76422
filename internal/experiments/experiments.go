// Package experiments regenerates every table and figure in the
// paper's evaluation section (§4) on the simulated system:
//
//	Figure 1 — host-interface vs. SSD-internal bandwidth trend
//	Table 2  — maximum sequential read bandwidth (256 KB I/Os)
//	Figure 3 — TPC-H Q6 elapsed time (SSD vs Smart SSD NSM/PAX)
//	Figure 5 — selection-with-join elapsed vs. selectivity
//	Figure 7 — TPC-H Q14 elapsed time
//	Table 3  — energy for Q6 (HDD / SSD / Smart SSD NSM / PAX)
//
// Data volumes scale with Options (virtual time is scale-invariant:
// speedup ratios depend on per-byte and per-tuple costs, not on table
// size), so the full suite runs on a laptop in seconds while preserving
// the paper's SF100 shapes. Each experiment returns a typed report with
// a Render method that prints the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/page"
	"smartssd/internal/runner"
	"smartssd/internal/schema"
	"smartssd/internal/sim"
	"smartssd/internal/ssd"
	"smartssd/internal/synth"
	"smartssd/internal/tpch"
)

// Options scales the experiment datasets.
type Options struct {
	// SF is the TPC-H scale factor (paper: 100). Default 0.05, about
	// 300k LINEITEM rows / 47 MB.
	SF float64
	// SynthR is the Synthetic64_R row count (paper: 1M, with |S| =
	// 400x|R|). Default 2000 (S = 800k rows, about 206 MB).
	SynthR int64
	// SynthRatio overrides |S|/|R| (default the paper's 400).
	SynthRatio int64
	// Seed makes data generation deterministic. Default 1.
	Seed int64
	// FaultSeed keys the fault injector's streams in the faults
	// experiment. Default: Seed.
	FaultSeed int64
	// SSD overrides the simulated device (zero: a 4 GB-class device
	// with the paper's controller parameters).
	SSD ssd.Params
	// Tracer, when non-nil, is installed on every engine and probe
	// device the experiments build, so a whole suite's timeline can be
	// captured. Tracing never perturbs virtual time; rendered artifacts
	// are byte-identical with or without it.
	Tracer sim.TraceFunc
	// Parallelism is the worker count for fanning an experiment's
	// independent sweep points across engine clones (package runner).
	// 0 means GOMAXPROCS; 1 forces the serial path on a single engine.
	// Reports are byte-identical at every setting. A non-nil Tracer
	// forces serial execution so the trace stream stays a single,
	// ordered timeline.
	Parallelism int
	// FreshClones disables per-worker engine reuse: instead of cloning
	// once per worker and calling Engine.ResetForRun between sweep
	// points (the default), every sweep point gets its own pre-built
	// clone. Slower and allocation-heavy; it exists as the reference
	// mode the reuse path is proven byte-identical against.
	FreshClones bool
}

func (o *Options) fill() {
	if o.SF == 0 {
		o.SF = 0.05
	}
	if o.SynthR == 0 {
		o.SynthR = 2000
	}
	if o.SynthRatio == 0 {
		o.SynthRatio = synth.SRatio
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = o.Seed
	}
}

// workers reports the effective fan-out width for this options value.
func (o Options) workers() int {
	if o.Tracer != nil {
		return 1
	}
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// Suite holds the evaluation's loaded base engines and their
// per-worker clones, built lazily on first use and reused across
// experiments and across repeated passes. A long-lived service reaches
// exactly this shape: engines are loaded and workers cloned once, and
// every subsequent query rewinds a warm engine with Engine.ResetForRun
// instead of rebuilding state. Reports from a Suite are byte-identical
// to the one-shot functions (Fig3, Fig5, ...) on every pass — the
// reuse-equivalence the runner tests prove per sweep point extends to
// whole suite passes. Not safe for concurrent use.
type Suite struct {
	o       Options
	tpch    *suiteBase // loadTPCH without HDD: Fig3, Fig7
	tpchHDD *suiteBase // loadTPCH with HDD: Table3
	synth   *suiteBase // loadSynthetic: Fig5
}

// NewSuite prepares a suite over o. Engines are not built until an
// experiment needs them. Callers that fan out across workers should
// Close the suite when done with it to release the crew goroutines.
func NewSuite(o Options) *Suite {
	o.fill()
	return &Suite{o: o}
}

// Close releases the worker goroutines of every base the suite built.
// The suite must be idle; it must not be used again.
func (s *Suite) Close() {
	s.tpch.close()
	s.tpchHDD.close()
	s.synth.close()
}

// suiteBase is one loaded base engine plus the worker clones and crew
// grown off it. engines[0] is the base; ensure appends clones and
// parks crew workers on demand and keeps both for later sweeps, so a
// reused base pays for each worker — its engine clone, its goroutine,
// its channels — exactly once, and steady-state sweep passes allocate
// nothing in the harness.
type suiteBase struct {
	engines []*core.Engine
	crew    *runner.Crew
}

func newSuiteBase(e *core.Engine) *suiteBase {
	return &suiteBase{engines: []*core.Engine{e}}
}

func (sb *suiteBase) ensure(w int) error {
	for len(sb.engines) < w {
		c, err := sb.engines[0].Clone()
		if err != nil {
			return fmt.Errorf("experiments: clone engine: %w", err)
		}
		sb.engines = append(sb.engines, c)
	}
	if w > 1 && (sb.crew == nil || sb.crew.Workers() < w) {
		if sb.crew != nil {
			sb.crew.Close()
		}
		sb.crew = runner.NewCrew(w)
	}
	return nil
}

// close releases the crew's goroutines, if any were started.
func (sb *suiteBase) close() {
	if sb != nil && sb.crew != nil {
		sb.crew.Close()
		sb.crew = nil
	}
}

// tpchBase returns (building if needed) the TPC-H base for this suite.
func (s *Suite) tpchBase(withHDD bool) (*suiteBase, error) {
	slot := &s.tpch
	if withHDD {
		slot = &s.tpchHDD
	}
	if *slot == nil {
		e, err := engineFor(s.o)
		if err != nil {
			return nil, err
		}
		if err := loadTPCH(e, s.o, withHDD); err != nil {
			return nil, err
		}
		*slot = newSuiteBase(e)
	}
	return *slot, nil
}

// synthBase returns (building if needed) the synthetic-join base.
func (s *Suite) synthBase() (*suiteBase, error) {
	if s.synth == nil {
		e, err := engineFor(s.o)
		if err != nil {
			return nil, err
		}
		if err := loadSynthetic(e, s.o); err != nil {
			return nil, err
		}
		s.synth = newSuiteBase(e)
	}
	return s.synth, nil
}

// sweepBase runs n independent jobs of one experiment across o's
// workers on sb's engines. Worker 0 runs on the base; every additional
// worker gets its own clone, grown once per base and reused by later
// sweeps on the same suiteBase. Each worker reuses its one engine
// across all its sweep points, rewinding with Engine.ResetForRun
// before every job — byte-identical to a fresh clone per point,
// without recloning FTL tables or regrowing executor arenas. Results
// return in submission order (package runner), so callers assemble
// reports exactly as the serial loop would have. With one worker —
// Parallelism 1, or any Tracer installed — jobs run inline on the base
// in submission order: the pre-harness serial path, unchanged.
//
// With o.FreshClones, every sweep point instead runs on its own
// pre-built clone: the reference mode the reuse path is proven
// against.
func sweepBase[T any](o Options, sb *suiteBase, n int, job func(e *core.Engine, i int) (T, error)) ([]T, error) {
	w := o.workers()
	if w > n {
		w = n
	}
	base := sb.engines[0]
	if o.FreshClones {
		clones := make([]*core.Engine, n)
		for i := range clones {
			c, err := base.Clone()
			if err != nil {
				return nil, fmt.Errorf("experiments: clone engine: %w", err)
			}
			clones[i] = c
		}
		return runner.Run(w, n, func(_, i int) (T, error) {
			return job(clones[i], i)
		})
	}
	if err := sb.ensure(w); err != nil {
		return nil, err
	}
	engines := sb.engines
	// One collection closure serves the serial and the crew path, so a
	// pass allocates the same harness state at every worker count. The
	// error contract matches runner.Run: the smallest failing point
	// index wins, and a worker abandons only jobs past that index.
	results := make([]T, n)
	var (
		mu     sync.Mutex
		errs   []error
		minErr = n
	)
	run := func(worker, i int) bool {
		mu.Lock()
		past := i > minErr
		mu.Unlock()
		if past {
			return false
		}
		r, err := func() (T, error) {
			var zero T
			if err := engines[worker].ResetForRun(); err != nil {
				return zero, fmt.Errorf("experiments: reset engine for point %d: %w", i, err)
			}
			return job(engines[worker], i)
		}()
		if err != nil {
			mu.Lock()
			if errs == nil {
				errs = make([]error, n)
			}
			errs[i] = err
			if i < minErr {
				minErr = i
			}
			mu.Unlock()
			return true
		}
		results[i] = r
		return true
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if !run(0, i) {
				break
			}
		}
	} else {
		sb.crew.Sweep(n, run)
	}
	if minErr < n {
		return nil, errs[minErr]
	}
	return results, nil
}

// sweep runs n independent jobs across o's workers on clones of base,
// discarding the clones and crew afterwards. One-shot experiments use
// it; suite passes go through sweepBase so worker state persists.
func sweep[T any](o Options, base *core.Engine, n int, job func(e *core.Engine, i int) (T, error)) ([]T, error) {
	sb := newSuiteBase(base)
	defer sb.close()
	return sweepBase(o, sb, n, job)
}

// fanOut runs n independent jobs that build their own engines (rate
// sweeps, interface sweeps) across o's workers, results in submission
// order.
func fanOut[T any](o Options, n int, job func(i int) (T, error)) ([]T, error) {
	w := o.workers()
	return runner.Run(w, n, func(_, i int) (T, error) {
		return job(i)
	})
}

// pagesFor sizes a heap extent for n tuples of schema s with slack.
func pagesFor(s *schema.Schema, l page.Layout, n int64) int64 {
	cap64 := int64(page.Capacity(s, l))
	return n/cap64 + 2
}

// engineFor builds a core engine with the experiment's device.
func engineFor(o Options) (*core.Engine, error) {
	e, err := core.New(core.Config{SSD: o.SSD})
	if err != nil {
		return nil, err
	}
	if o.Tracer != nil {
		e.SetTracer(o.Tracer)
	}
	return e, nil
}

// loadTPCH creates and loads LINEITEM and PART in both layouts on the
// SSD, plus an NSM LINEITEM copy on the HDD when withHDD is set.
// Table names: lineitem_nsm, lineitem_pax, part_nsm, part_pax,
// lineitem_hdd.
func loadTPCH(e *core.Engine, o Options, withHDD bool) error {
	li := tpch.LineitemSchema()
	pa := tpch.PartSchema()
	nLI := tpch.NumLineitem(o.SF)
	nPA := tpch.NumPart(o.SF)
	type spec struct {
		name   string
		s      *schema.Schema
		layout page.Layout
		target core.Target
		gen    func() (schema.Tuple, bool)
		rows   int64
	}
	specs := []spec{
		{"lineitem_nsm", li, page.NSM, core.OnSSD, tpch.NewLineitemGen(o.SF, o.Seed).Next, nLI},
		{"lineitem_pax", li, page.PAX, core.OnSSD, tpch.NewLineitemGen(o.SF, o.Seed).Next, nLI},
		{"part_nsm", pa, page.NSM, core.OnSSD, tpch.NewPartGen(o.SF, o.Seed+1).Next, nPA},
		{"part_pax", pa, page.PAX, core.OnSSD, tpch.NewPartGen(o.SF, o.Seed+1).Next, nPA},
	}
	if withHDD {
		specs = append(specs,
			spec{"lineitem_hdd", li, page.NSM, core.OnHDD, tpch.NewLineitemGen(o.SF, o.Seed).Next, nLI})
	}
	for _, sp := range specs {
		if _, err := e.CreateTable(sp.name, sp.s, sp.layout, pagesFor(sp.s, sp.layout, sp.rows), sp.target); err != nil {
			return fmt.Errorf("experiments: create %s: %w", sp.name, err)
		}
		if err := e.Load(sp.name, sp.gen); err != nil {
			return fmt.Errorf("experiments: load %s: %w", sp.name, err)
		}
	}
	return nil
}

// loadSynthetic creates and loads Synthetic64 R and S in both layouts.
// Table names: synth_r_nsm, synth_s_nsm, synth_r_pax, synth_s_pax.
func loadSynthetic(e *core.Engine, o Options) error {
	rs := synth.Schema("r")
	ss := synth.Schema("s")
	nR := o.SynthR
	nS := o.SynthR * o.SynthRatio
	for _, layout := range []page.Layout{page.NSM, page.PAX} {
		suffix := strings.ToLower(layout.String())
		rName := "synth_r_" + suffix
		sName := "synth_s_" + suffix
		if _, err := e.CreateTable(rName, rs, layout, pagesFor(rs, layout, nR), core.OnSSD); err != nil {
			return err
		}
		if err := e.Load(rName, synth.NewRGen(nR, o.Seed).Next); err != nil {
			return err
		}
		if _, err := e.CreateTable(sName, ss, layout, pagesFor(ss, layout, nS), core.OnSSD); err != nil {
			return err
		}
		if err := e.Load(sName, synth.NewSGen(nS, nR, o.Seed+1).Next); err != nil {
			return err
		}
	}
	return nil
}

// Run describes one measured configuration within an experiment.
type Run struct {
	Name       string
	Elapsed    time.Duration
	Speedup    float64 // versus the experiment's baseline configuration
	SystemkJ   float64
	IOkJ       float64
	Bottleneck string
	Rows       int64 // result rows, as a correctness cross-check
	Answer     int64 // first aggregate value, when applicable
}

func renderRuns(title, baseline string, runs []Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-22s %12s %9s %12s %s\n", "configuration", "elapsed", "speedup", "bottleneck", "")
	for _, r := range runs {
		fmt.Fprintf(&b, "%-22s %12s %8.2fx %12s\n", r.Name, fmtDur(r.Elapsed), r.Speedup, r.Bottleneck)
	}
	fmt.Fprintf(&b, "(speedup relative to %s)\n", baseline)
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
