package main

import (
	"fmt"
	"time"

	"smartssd/internal/experiments"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/sim"
	"smartssd/workload"
)

// bestOf reports the fastest of n executions of f.
func bestOf(n int, f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < n; i++ {
		start := now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := now().Sub(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// q6Columns are the columns Q6's predicate decodes, the page layer's
// standard load.
func q6Columns(s *schema.Schema) []int {
	return []int{s.MustColumnIndex("l_shipdate"), s.MustColumnIndex("l_discount"), s.MustColumnIndex("l_quantity")}
}

// lineitemPages builds lineitem at sf as sealed page images in layout.
func lineitemPages(sf float64, layout page.Layout) [][]byte {
	s := workload.LineitemSchema()
	bld := page.NewBuilder(s, layout)
	next := workload.LineitemGen(sf, daemonDataSeed)
	var pages [][]byte
	flush := func() {
		pages = append(pages, append([]byte(nil), bld.Finish()...))
		bld.Reset(uint32(len(pages)))
	}
	for {
		t, ok := next()
		if !ok {
			break
		}
		if !bld.Append(t) {
			flush()
			bld.Append(t)
		}
	}
	if bld.Count() > 0 {
		flush()
	}
	return pages
}

// layerMicros measures the layers no single session isolates: set-up
// costs (generator, load, clone), the page decoders on both layouts,
// and the simulator's charging primitive.
func layerMicros(m *metricSet, b *backends) error {
	// tpch: drain the lineitem generator alone.
	rows := workload.NumLineitem(b.sf)
	gen, err := bestOf(3, func() error {
		next := workload.LineitemGen(b.sf, daemonDataSeed)
		for {
			if _, ok := next(); !ok {
				return nil
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("tpch.gen_rows_per_s", float64(rows)/gen.Seconds())

	// core: load a fresh engine; clone the loaded one.
	load, err := bestOf(2, func() error {
		_, err := loadEngine(b.sf, daemonDataSeed)
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.load_rows_per_s", float64(rows+workload.NumPart(b.sf))/load.Seconds())
	clone, err := bestOf(ladderReps, func() error {
		_, err := b.engine.Clone()
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.clone_ms", ms(clone))

	// page: bind alone, then bind + bulk decode of Q6's columns, on
	// PAX (what the daemon stores) and on an NSM copy of the same rows.
	s := workload.LineitemSchema()
	cols := q6Columns(s)
	for _, lay := range []struct {
		layout page.Layout
		metric string
	}{{page.PAX, "page.decode_ns_per_row_pax"}, {page.NSM, "page.decode_ns_per_row_nsm"}} {
		pages := lineitemPages(b.sf, lay.layout)
		var ints []int64
		d, err := bestOf(ladderReps, func() error { return decodeColumns(s, pages, cols, ints, nil) })
		if err != nil {
			return err
		}
		m.set(lay.metric, float64(d.Nanoseconds())/float64(rows))
		if lay.layout == page.PAX {
			bind, err := bestOf(ladderReps, func() error { return decodeColumns(s, pages, nil, nil, nil) })
			if err != nil {
				return err
			}
			m.set("page.bind_ns_per_page", float64(bind.Nanoseconds())/float64(len(pages)))
		}
	}

	// sim: one million Serve calls down a three-stage chain, the shape
	// of a page's trip through channel, bus and link.
	const calls = 1_000_000
	stages := []*sim.Server{
		sim.NewServer("a", sim.MBps(200)), sim.NewServer("b", sim.MBps(1560)), sim.NewServer("c", sim.MBps(550)),
	}
	serve, err := bestOf(3, func() error {
		for _, st := range stages {
			st.Reset()
		}
		var ready time.Duration
		for i := 0; i < calls/len(stages); i++ {
			at := ready
			for _, st := range stages {
				at = st.Serve(at, page.PageSize)
			}
			ready += time.Microsecond
		}
		return nil
	})
	if err != nil {
		return err
	}
	perCall := float64(serve.Nanoseconds()) / float64(calls/len(stages)*len(stages))
	m.set("sim.serve_ns", perCall)
	m.set("sim.est_ms_per_op", perCall*m.values["sim.calls_per_op"].Value/1e6)
	return nil
}

// traceFiguresBatch is the traced run of figures_batch: in-process,
// with a span around each Suite call, at parallelism 1 and C.
func traceFiguresBatch(cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{Workload: figuresBatch, Correct: true, WindowOps: figuresWinPasses}
	m := newMetricSet(perLayerMetrics)
	tr := newTracer(64)
	t2, err := experiments.Table2(experiments.Options{})
	if err != nil {
		return nil, err
	}

	const passes = 3
	// best[p] is the fastest pass at parallelism p, stage by stage.
	best := make(map[int]*pass)
	wall := make(map[int]time.Duration)
	for _, par := range []int{1, cfg.clients} {
		if best[par] != nil {
			continue // C == 1: one configuration
		}
		suite := experiments.NewSuite(figuresOptions(par))
		for i := 0; i <= passes; i++ {
			var p *pass
			d := tr.time(fmt.Sprintf("experiments.pass/p%d", par), "", i, par, func() {
				p, err = runPass(suite, t2.Ratio, func(name string, f func() error) error {
					var ferr error
					tr.time(name, fmt.Sprintf("experiments.pass/p%d", par), i, par, func() { ferr = f() })
					return ferr
				})
			})
			if err != nil {
				suite.Close()
				return nil, err
			}
			res.Attempted++
			if first := best[1]; first != nil && p.Hash != first.Hash {
				res.Failed++
				res.fail("parallelism %d pass %d rendered different artifacts", par, i)
			}
			// Pass 0 loads the suite's engines: set-up, not a sample.
			if i == 0 {
				if best[par] == nil {
					best[par] = p
				}
				continue
			}
			if i == 1 || d < wall[par] {
				wall[par] = d
			}
			for name, ns := range p.StageNS {
				if i == 1 || ns < best[par].StageNS[name] {
					best[par].StageNS[name] = ns
				}
			}
			best[par].AllocBytes = p.AllocBytes
		}
		suite.Close()
	}

	at := best[cfg.clients]
	for _, name := range sortedKeys(at.StageNS) {
		m.set(name+"_ms", float64(at.StageNS[name])/1e6)
	}
	for _, name := range sortedKeys(at.Ratios) {
		m.set(name, at.Ratios[name])
	}
	m.set("experiments.pass_alloc_mb", float64(at.AllocBytes)/(1<<20))
	m.set("runner.par_speedup", wall[1].Seconds()/wall[cfg.clients].Seconds())
	m.set("trace.spans_per_op", float64(len(tr.spans))/float64(res.Attempted))
	m.set("trace.overhead_us_per_op",
		float64(spanOverhead().Nanoseconds())/1e3*float64(len(tr.spans))/float64(res.Attempted))
	if err := tr.write(figuresBatch); err != nil {
		return nil, err
	}
	res.PerLayer = m.complete()
	return res, nil
}
