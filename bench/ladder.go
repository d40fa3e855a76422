package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/device"
	"smartssd/internal/exec"
	"smartssd/internal/expr"
	"smartssd/internal/metrics"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/serve"
	"smartssd/internal/sql"
)

// The ladder's rungs, outermost first. Each is the public entry point
// of one layer, called from here with the same arguments a real session
// would hand it; the program itself carries no instrumentation.
//
//	http.session ⊃ serve.handler ⊃ serve.decode ⊃ sql.compile ⊃ sql.parse
//	                                            ⊃ expr.parse
//	                             ⊃ core.run ⊃ opt.decide
//	                                        ⊃ exec.collect | device.run
//	                                             ⊃ heap.scan, page.decode, expr.select
const (
	rungSession   = "http.session"
	rungHandler   = "serve.handler"
	rungDecode    = "serve.decode"
	rungCompile   = "sql.compile"
	rungParse     = "sql.parse"
	rungExprParse = "expr.parse"
	rungRun       = "core.run"
	rungDecide    = "opt.decide"
	rungCollect   = "exec.collect"
	rungDevice    = "device.run"
	rungScan      = "heap.scan"
	rungPage      = "page.decode"
	rungSelect    = "expr.select"
)

// ladderReps is how often each rung is re-executed per op; its time is
// the minimum, its simulated values come from the first.
const ladderReps = 5

// ladderRow is one line of the share-of-session table.
type ladderRow struct {
	Layer string `json:"layer"`
	// SelfMS is the layer's own time per op — its rung minus its child
	// rungs, clamped at zero per op — averaged over every replayed op.
	SelfMS float64 `json:"self_ms"`
	// Share is SelfMS as a share of the mean http.session.
	Share float64 `json:"share"`
}

// opFacts is what the first core.run of an op revealed about it.
type opFacts struct {
	// kind is "explain", "update", "cluster" (a cluster read), or the
	// engine placement: "host", "device", "hybrid".
	kind string
	// hybridFrac is the page share the device took (hybrid only).
	hybridFrac float64
	res        *core.Result // engine runs only
	// Cluster runs: the merged per-resource report and traffic.
	clusterRep   *metrics.Report
	flash, link  int64
	rowsUpdated  int64
	ackNS        int64
	ftlWrites    int64
	durableDelta uint64
}

// ladder is one traced replay.
type ladder struct {
	tr    *tracer
	ops   []*op
	qs    []*serve.Query
	facts []opFacts
	// rung[name][i] is op i's best time on a rung; zero where the rung
	// does not apply to the op.
	rung map[string][]time.Duration
	rows []ladderRow
	// clampedMS is the per-op mean of self time lost to clamping: rungs
	// are timed on their own, so a child can outrun its parent's share.
	clampedMS float64
}

func (l *ladder) writeTrace(workload string) error { return l.tr.write(workload) }

// rungDef is one rung: which ops it applies to and how to execute it.
// run may report the rung's own duration (the session rung reads the
// client's clock, which stops before the answer is checked); zero means
// the time around run.
type rungDef struct {
	name, parent string
	applies      func(i int) bool
	run          func(i, rep int) (time.Duration, error)
}

// climb times every rung on every op it applies to. The order is op,
// then repetition, then rung: all rungs of one op run within a few
// tens of milliseconds of each other, so a shift in the machine's speed
// (README, "Noise") scales them together and leaves the shares alone.
// A rung's time is its minimum over the repetitions.
func (l *ladder) climb(rungs []rungDef) error {
	for _, r := range rungs {
		l.rung[r.name] = make([]time.Duration, len(l.ops))
	}
	for i := range l.ops {
		for rep := 0; rep < ladderReps; rep++ {
			for _, r := range rungs {
				if !r.applies(i) {
					continue
				}
				var own time.Duration
				var err error
				d := l.tr.time(r.name, r.parent, i, rep, func() { own, err = r.run(i, rep) })
				if err != nil {
					return fmt.Errorf("ladder %s op %d (%s): %w", r.name, i, l.ops[i].class, err)
				}
				if own > 0 {
					d = own
				}
				if best := &l.rung[r.name][i]; rep == 0 || d < *best {
					*best = d
				}
			}
		}
	}
	return nil
}

// allocDelta is what one pass of a rung over its ops allocated.
type allocDelta struct {
	calls          int
	mallocs, bytes uint64
	gcs            uint32
}

func (a allocDelta) perCall(v uint64) float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(v) / float64(a.calls)
}

// allocations runs r once more over every op it applies to between two
// reads of the allocator's counters. It is a pass of its own because
// reading the counters stops the world, which the timed climb must not.
func (l *ladder) allocations(r rungDef) (allocDelta, error) {
	var before, after runtime.MemStats
	var a allocDelta
	runtime.ReadMemStats(&before)
	for i := range l.ops {
		if !r.applies(i) {
			continue
		}
		if _, err := r.run(i, ladderReps); err != nil {
			return a, fmt.Errorf("ladder %s op %d (%s): %w", r.name, i, l.ops[i].class, err)
		}
		a.calls++
	}
	runtime.ReadMemStats(&after)
	a.mallocs = after.Mallocs - before.Mallocs
	a.bytes = after.TotalAlloc - before.TotalAlloc
	a.gcs = after.NumGC - before.NumGC
	return a, nil
}

// mean reports a rung's mean in milliseconds over the ops it applies to
// (the entries that are not zero).
func (l *ladder) mean(name string) float64 {
	var sum time.Duration
	var n int
	for _, d := range l.rung[name] {
		if d > 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// meanWhere is a rung's mean over the ops whose kind matches.
func (l *ladder) meanWhere(name, kind string) float64 {
	var sum time.Duration
	var n int
	for i, d := range l.rung[name] {
		if l.facts[i].kind == kind {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// handlerSession drives the three requests of one session straight
// through the handler, with no socket in between.
func handlerSession(h http.Handler, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sessions", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		return fmt.Errorf("OPEN = %d: %s", rec.Code, rec.Body)
	}
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &opened); err != nil {
		return err
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sessions/"+opened.ID+"/result", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET = %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/sessions/"+opened.ID, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("CLOSE = %d: %s", rec.Code, rec.Body)
	}
	return nil
}

// probeColumns lists the distinct main-table columns the expressions
// reference, in first-use order. ok is false when one of them reaches
// into a join's build side (column index >= np).
func probeColumns(np int, exprs ...expr.Expr) (cols []int, ok bool) {
	seen := make(map[int]bool)
	for _, e := range exprs {
		if e == nil {
			continue
		}
		for _, c := range e.Columns(nil) {
			if c >= np {
				return nil, false
			}
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	return cols, true
}

// hostPlan hand-builds the host operator tree for spec over pages
// [from, from+count) of its table (count 0: to the end), the shape
// core lowers the same spec to.
func hostPlan(e *core.Engine, spec core.QuerySpec, from, count int64) (exec.Operator, error) {
	t, err := e.Table(spec.Table)
	if err != nil {
		return nil, err
	}
	np := t.File.Schema().NumColumns()
	scan := &exec.TableScan{File: t.File, Pool: e.Pool(), From: from, Count: count}
	var root exec.Operator = scan
	_, onProbe := probeColumns(np, spec.Filter)
	onProbe = onProbe && spec.Filter != nil
	if spec.Join == nil || onProbe {
		scan.Filter = spec.Filter
	}
	if spec.Join != nil {
		build, err := e.Table(spec.Join.BuildTable)
		if err != nil {
			return nil, err
		}
		root = &exec.HashJoin{
			Build:    &exec.TableScan{File: build.File, Pool: e.Pool()},
			Probe:    scan,
			BuildKey: build.File.Schema().MustColumnIndex(spec.Join.BuildKey),
			ProbeKey: t.File.Schema().MustColumnIndex(spec.Join.ProbeKey),
		}
		if spec.Filter != nil && !onProbe {
			root = &exec.Filter{Input: root, Pred: spec.Filter}
		}
	}
	if len(spec.Aggs) > 0 {
		return &exec.Aggregate{Input: root, GroupBy: spec.GroupBy, Aggs: spec.Aggs}, nil
	}
	return &exec.Project{Input: root, Cols: spec.Output}, nil
}

// deviceQuery hand-builds the in-device program for spec over the
// leading pages of its table (pages 0: the whole table).
func deviceQuery(e *core.Engine, spec core.QuerySpec, pages int64) (device.Query, error) {
	t, err := e.Table(spec.Table)
	if err != nil {
		return device.Query{}, err
	}
	q := device.Query{
		Table:   device.RefOf(t.File),
		Filter:  spec.Filter,
		Output:  spec.Output,
		Aggs:    spec.Aggs,
		GroupBy: spec.GroupBy,
	}
	if pages > 0 {
		q.Table.Pages = pages
	}
	if spec.Join != nil {
		build, err := e.Table(spec.Join.BuildTable)
		if err != nil {
			return device.Query{}, err
		}
		q.Join = &device.JoinSpec{
			Build:    device.RefOf(build.File),
			BuildKey: build.File.Schema().MustColumnIndex(spec.Join.BuildKey),
			ProbeKey: t.File.Schema().MustColumnIndex(spec.Join.ProbeKey),
		}
	}
	return q, nil
}

// hybridPages reproduces core's split of a hybrid run: the device takes
// the leading share of the table's pages.
func hybridPages(pages int64, frac float64) int64 {
	n := int64(float64(pages) * frac)
	if n < 1 {
		n = 1
	}
	if n >= pages {
		n = pages - 1
	}
	return n
}

// tablePages collects a table's stored page buffers (aliases, not
// copies: stored buffers are immutable).
func tablePages(t *core.Table) ([][]byte, error) {
	var bufs [][]byte
	_, err := t.File.Scan(0, func(r *page.Reader, _ time.Duration) error {
		bufs = append(bufs, r.Data())
		return nil
	})
	return bufs, err
}

// decodeColumns is the page.decode rung's body: bind every page (which
// verifies its checksum) and bulk-decode the given columns, the work a
// vectorized scan does on a page before any predicate runs.
func decodeColumns(s *schema.Schema, bufs [][]byte, cols []int, ints []int64, strs [][]byte) error {
	r := page.ReaderFor(s)
	for _, buf := range bufs {
		if err := r.Bind(buf); err != nil {
			return err
		}
		for _, c := range cols {
			if s.Column(c).Kind == schema.Char {
				strs = r.BytesColumnInto(c, strs)
			} else {
				ints = r.Int64ColumnInto(c, ints)
			}
		}
	}
	return nil
}

// hotPages is how many decoded pages the expr.select rung cycles
// through. Inside an executor a page's vectors are still in the first
// level cache when the predicate runs; a rung that swept vectors for
// the whole table would time memory, not kernels.
const hotPages = 16

// selectInput is the expr.select rung's input for one (table, column
// set): hotPages decoded batches spread evenly over the table, their
// identity selections, and the table's page count.
type selectInput struct {
	batches []*schema.Batch
	sels    [][]int32
	pages   int
}

func predecode(s *schema.Schema, bufs [][]byte, cols []int) (*selectInput, error) {
	in := &selectInput{pages: len(bufs)}
	r := page.ReaderFor(s)
	for k := 0; k < hotPages && k < len(bufs); k++ {
		if err := r.Bind(bufs[k*len(bufs)/hotPages]); err != nil {
			return nil, err
		}
		b := schema.NewBatch(s.NumColumns())
		b.SetLen(r.Count())
		for _, c := range cols {
			if s.Column(c).Kind == schema.Char {
				// Char vectors alias the stored page, which outlives
				// the reader.
				b.SetBytesVec(c, r.BytesColumnInto(c, nil))
			} else {
				b.SetInt64Vec(c, r.Int64ColumnInto(c, nil))
			}
		}
		sel := make([]int32, r.Count())
		for i := range sel {
			sel[i] = int32(i)
		}
		in.batches = append(in.batches, b)
		in.sels = append(in.sels, sel)
	}
	return in, nil
}

// mergedReport snapshots the cluster's devices as one report: the
// servers of a resource on every device form one group, so its
// utilisation is the mean over devices.
func mergedReport(cl *core.Cluster, elapsed time.Duration) metrics.Report {
	var groups []metrics.Group
	for i := 0; i < cl.Devices(); i++ {
		for j, g := range cl.Device(i).ResourceGroups() {
			if i == 0 {
				groups = append(groups, metrics.Group{Name: g.Name, Unit: g.Unit})
			}
			groups[j].Servers = append(groups[j].Servers, g.Servers...)
		}
	}
	return metrics.Snapshot(elapsed, groups...)
}

func clusterFTLWrites(cl *core.Cluster) int64 {
	var n int64
	for i := 0; i < cl.Devices(); i++ {
		n += cl.Device(i).FTLStats().HostWrites
	}
	return n
}

// scanInput is what the storage and kernel rungs of one op work on.
type scanInput struct {
	table *core.Table
	build *core.Table // join build side, or nil
	// cols are the main-table columns the query reads (filter first,
	// then aggregates, outputs and group keys): what a vectorized scan
	// decodes per page. nil for joins.
	cols   []int
	bufs   [][]byte
	sel    *selectInput    // nil without a main-table filter
	kernel *expr.BatchExpr // the compiled filter
}

// scanInputs prepares, outside the clock, what the storage and kernel
// rungs of every executing op work on; ops that read the same table and
// columns share it. It also reports the mean cost of compiling a filter
// into batch kernels, which executors pay once per distinct filter.
func scanInputs(worker *core.Engine, qs []*serve.Query) (inputs []*scanInput, compileBatchUS float64, err error) {
	inputs = make([]*scanInput, len(qs))
	bufs := make(map[string][][]byte)
	selects := make(map[string]*selectInput)
	var compileBatch time.Duration
	var compiled int
	for i, q := range qs {
		if q.Explain || len(q.Sets) > 0 {
			continue
		}
		spec := q.Spec
		in := &scanInput{}
		if in.table, err = worker.Table(spec.Table); err != nil {
			return nil, 0, err
		}
		if spec.Join != nil {
			if in.build, err = worker.Table(spec.Join.BuildTable); err != nil {
				return nil, 0, err
			}
		}
		if bufs[spec.Table] == nil {
			if bufs[spec.Table], err = tablePages(in.table); err != nil {
				return nil, 0, err
			}
		}
		in.bufs = bufs[spec.Table]
		np := in.table.File.Schema().NumColumns()
		reads := []expr.Expr{spec.Filter}
		for _, a := range spec.Aggs {
			reads = append(reads, a.E)
		}
		for _, o := range spec.Output {
			reads = append(reads, o.E)
		}
		// A joined scan stays on the executors' scalar path: no bulk
		// column decode to time.
		if cols, ok := probeColumns(np, reads...); ok && spec.Join == nil {
			in.cols = append(cols, spec.GroupBy...)
		}
		if fcols, ok := probeColumns(np, spec.Filter); ok && len(fcols) > 0 {
			key := fmt.Sprint(spec.Table, fcols)
			if selects[key] == nil {
				if selects[key], err = predecode(in.table.File.Schema(), in.bufs, fcols); err != nil {
					return nil, 0, err
				}
			}
			in.sel = selects[key]
			start := now()
			k, ok := expr.CompileBatch(spec.Filter)
			if !ok {
				return nil, 0, errors.New("ladder: filter outside the vectorized class")
			}
			compileBatch += now().Sub(start)
			compiled++
			in.kernel = k
		}
		inputs[i] = in
	}
	if compiled > 0 {
		compileBatchUS = float64(compileBatch.Nanoseconds()) / 1e3 / float64(compiled)
	}
	return inputs, compileBatchUS, nil
}

// runLadder replays ops serially in-process, timing every rung on its
// own, and fills m with the per-layer metrics the ladder yields.
func runLadder(b *backends, orc *oracle, ops []*op, m *metricSet, clients int) (*ladder, error) {
	l := &ladder{
		ops:   ops,
		qs:    make([]*serve.Query, len(ops)),
		facts: make([]opFacts, len(ops)),
		rung:  make(map[string][]time.Duration),
		tr:    newTracer(len(ops) * ladderReps * 16),
	}
	srv, err := serve.New(serve.Config{Workers: clients, QueueCapacity: 2 * clients}, b.engine, b.cluster)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// worker stands in for one of the daemon's per-worker clones: every
	// rung from core.run down runs on it.
	worker, err := b.engine.Clone()
	if err != nil {
		return nil, err
	}
	route := &leastLoaded{loads: make([]int64, b.cluster.Devices())}
	expect := make(map[*op]*expectation, len(ops))
	for i, p := range ops {
		if l.qs[i], err = serve.DecodeRequest(srv, p.body); err != nil {
			return nil, err
		}
		if expect[p], err = orc.expect(p); err != nil {
			return nil, err
		}
	}

	// What each op is, as far as its request alone says.
	every := func(int) bool { return true }
	isSQL := func(i int) bool { return l.qs[i].Req.SQL != "" }
	executes := func(i int) bool { return !l.qs[i].Explain && len(l.qs[i].Sets) == 0 }
	onEngine := func(i int) bool { return executes(i) && !l.qs[i].Cluster }

	inputs, compileBatchUS, err := scanInputs(worker, l.qs)
	if err != nil {
		return nil, err
	}

	c := newClient(ts.URL)
	defer c.http.CloseIdleConnections()
	handler := srv.Handler()
	catalog := func(i int) sql.Catalog {
		if l.qs[i].Cluster {
			return sql.ClusterCatalog{C: b.cluster}
		}
		return sql.EngineCatalog{E: b.engine}
	}
	kindIs := func(kinds ...string) func(int) bool {
		return func(i int) bool {
			for _, k := range kinds {
				if l.facts[i].kind == k {
					return true
				}
			}
			return false
		}
	}
	var scratch exec.Scratch
	var ints []int64
	var strs [][]byte
	below := rungCollect + "|" + rungDevice

	rungs := []rungDef{
		// A real loopback socket to an in-process http.Server.
		{rungSession, "", every, func(i, rep int) (time.Duration, error) {
			start := now().Sub(l.tr.t0)
			s := c.session(ops[i], expect[ops[i]])
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"http.open", s.open}, {"http.get", s.get}, {"http.close", s.close}} {
				l.tr.spans = append(l.tr.spans, span{ph.name, rungSession, i, rep, start, start + ph.d})
				start += ph.d
			}
			return s.total, s.err
		}},
		// The same three requests with no socket.
		{rungHandler, rungSession, every, func(i, _ int) (time.Duration, error) {
			return 0, handlerSession(handler, ops[i].body)
		}},
		{rungDecode, rungHandler, every, func(i, _ int) (time.Duration, error) {
			_, err := serve.DecodeRequest(srv, ops[i].body)
			return 0, err
		}},
		{rungCompile, rungDecode, isSQL, func(i, _ int) (time.Duration, error) {
			_, err := sql.Compile(catalog(i), l.qs[i].Req.SQL)
			return 0, err
		}},
		{rungParse, rungCompile, isSQL, func(i, _ int) (time.Duration, error) {
			_, err := sql.Parse(l.qs[i].Req.SQL)
			return 0, err
		}},
		{rungExprParse, rungDecode, func(i int) bool { return !isSQL(i) }, func(i, _ int) (time.Duration, error) {
			req := &l.qs[i].Req
			s, err := srv.TargetTableSchema(l.qs[i].Cluster, req.Table)
			if err != nil {
				return 0, err
			}
			if req.Predicate != "" {
				if _, err := expr.ParsePredicate(s, req.Predicate); err != nil {
					return 0, err
				}
			}
			for _, a := range req.Aggs {
				if a.Expr != "" {
					if _, err := expr.Parse(s, a.Expr); err != nil {
						return 0, err
					}
				}
			}
			for _, u := range req.Update {
				if _, err := expr.Parse(s, u.Expr); err != nil {
					return 0, err
				}
			}
			return 0, nil
		}},
		// What serve's executor calls for the session. The first
		// execution records what the op turned out to be.
		{rungRun, rungHandler, every, func(i, rep int) (time.Duration, error) {
			q, f := l.qs[i], &l.facts[i]
			switch {
			case q.Explain:
				f.kind = "explain"
				_, err := sql.ExplainEngine(worker, q.Compiled)
				return 0, err
			case q.Cluster:
				ftl0, dur0 := clusterFTLWrites(b.cluster), b.cluster.DurableWrites()
				res, n, elapsed, err := clusterOp(b.cluster, route, q)
				if err != nil || rep > 0 {
					return 0, err
				}
				if res == nil {
					f.kind = "update"
					f.rowsUpdated, f.ackNS = n, elapsed.Nanoseconds()
					f.ftlWrites = clusterFTLWrites(b.cluster) - ftl0
					f.durableDelta = b.cluster.DurableWrites() - dur0
					return 0, nil
				}
				f.kind = "cluster"
				r := mergedReport(b.cluster, elapsed)
				f.clusterRep = &r
				for d := 0; d < b.cluster.Devices(); d++ {
					act := b.cluster.Device(d).Activity()
					f.flash += act.FlashBytesRead
					f.link += act.LinkBytesOut
				}
				return 0, nil
			default:
				res, err := worker.Run(q.Spec, q.Mode)
				if err != nil || rep > 0 {
					return 0, err
				}
				f.kind, f.res, f.hybridFrac = res.Placement.String(), res, res.HybridDeviceFraction
				return 0, nil
			}
		}},
		{rungDecide, rungRun, onEngine, func(i, _ int) (time.Duration, error) {
			_, err := worker.Decide(l.qs[i].Spec)
			return 0, err
		}},
		// exec.collect and device.run on the worker engine. Cluster
		// reads run their program on its unpartitioned copy: the
		// cluster keeps its partition files private, and the engine's
		// table holds the same pages and rows as the four partitions
		// together.
		{rungCollect, rungRun, kindIs("host", "hybrid"), func(i, _ int) (time.Duration, error) {
			var from int64
			if l.facts[i].kind == "hybrid" {
				from = hybridPages(inputs[i].table.File.Pages(), l.facts[i].hybridFrac)
			}
			plan, err := hostPlan(worker, l.qs[i].Spec, from, 0)
			if err != nil {
				return 0, err
			}
			worker.Pool().Clear()
			worker.ResetTiming()
			scratch.Reset()
			ctx := exec.NewCtx(worker.Host())
			ctx.Scratch = &scratch
			_, _, err = exec.Collect(ctx, plan)
			return 0, err
		}},
		{rungDevice, rungRun, kindIs("device", "hybrid", "cluster"), func(i, _ int) (time.Duration, error) {
			var pages int64
			if l.facts[i].kind == "hybrid" {
				pages = hybridPages(inputs[i].table.File.Pages(), l.facts[i].hybridFrac)
			}
			dq, err := deviceQuery(worker, l.qs[i].Spec, pages)
			if err != nil {
				return 0, err
			}
			worker.ResetTiming()
			_, _, err = worker.Runtime().RunQuery(dq)
			return 0, err
		}},
		// The storage stack alone: the table's extent read through the
		// block device (ssd, ftl, nand and the sim servers they charge)
		// with an empty callback. Not File.Scan, which also binds every
		// page; binding is the page layer's and is timed there.
		{rungScan, below, executes, func(i, _ int) (time.Duration, error) {
			worker.ResetTiming()
			for _, t := range []*core.Table{inputs[i].table, inputs[i].build} {
				if t == nil {
					continue
				}
				f := t.File
				_, err := f.Device().ReadRange(f.StartLBA(), f.Pages(), 0,
					func(int64, []byte, time.Duration) error { return nil })
				if err != nil {
					return 0, err
				}
			}
			return 0, nil
		}},
		{rungPage, below, func(i int) bool { return executes(i) && inputs[i].cols != nil },
			func(i, _ int) (time.Duration, error) {
				in := inputs[i]
				return 0, decodeColumns(in.table.File.Schema(), in.bufs, in.cols, ints, strs)
			}},
		{rungSelect, below, func(i int) bool { return executes(i) && inputs[i].sel != nil },
			func(i, _ int) (time.Duration, error) {
				in := inputs[i]
				for p := 0; p < in.sel.pages; p++ {
					h := p % len(in.sel.batches)
					in.kernel.Select(in.sel.batches[h], in.sel.sels[h])
				}
				return 0, nil
			}},
	}
	if err := l.climb(rungs); err != nil {
		return nil, err
	}
	l.attribute()

	// Allocation counters, each from one more pass of its rung.
	allocs := make(map[string]allocDelta)
	for _, r := range rungs {
		switch r.name {
		case rungHandler, rungDecode, rungCompile, rungRun:
			if allocs[r.name], err = l.allocations(r); err != nil {
				return nil, err
			}
		}
	}
	l.wallMetrics(m, inputs, allocs)
	m.set("expr.compile_batch_us", compileBatchUS)
	l.simMetrics(m, worker, orc)
	return l, nil
}

// wallMetrics fills the per-layer wall-clock and allocation metrics
// from the rungs.
func (l *ladder) wallMetrics(m *metricSet, inputs []*scanInput, allocs map[string]allocDelta) {
	set := m.set
	set("http.session_ms", l.mean(rungSession))
	set("http.self_ms", l.selfOf("http"))
	set("serve.handler_ms", l.mean(rungHandler))
	set("serve.decode_us", l.mean(rungDecode)*1e3)
	set("serve.self_ms", l.selfOf("serve"))
	set("sql.compile_us", l.mean(rungCompile)*1e3)
	set("sql.parse_us", l.mean(rungParse)*1e3)
	set("sql.bind_us", (l.mean(rungCompile)-l.mean(rungParse))*1e3)
	set("expr.parse_us", l.mean(rungExprParse)*1e3)
	set("opt.decide_us", l.mean(rungDecide)*1e3)
	set("core.run_ms", l.mean(rungRun))
	set("core.run_host_ms", l.meanWhere(rungRun, "host"))
	set("core.run_device_ms", l.meanWhere(rungRun, "device"))
	set("core.run_hybrid_ms", l.meanWhere(rungRun, "hybrid"))
	set("core.run_cluster_ms", l.meanWhere(rungRun, "cluster"))
	set("core.update_ms", l.meanWhere(rungRun, "update"))
	set("core.self_ms", l.selfOf("core"))
	set("exec.collect_ms", l.mean(rungCollect))
	set("exec.self_ms", l.selfOf("exec"))
	set("device.run_ms", l.mean(rungDevice))
	set("device.self_ms", l.selfOf("device"))
	set("heap.scan_ms", l.mean(rungScan))
	var scannedPages, filteredRows int64
	for i, in := range inputs {
		if in == nil {
			continue
		}
		scannedPages += in.table.File.Pages()
		if in.build != nil {
			scannedPages += in.build.File.Pages()
		}
		if l.rung[rungSelect][i] > 0 {
			filteredRows += in.table.File.TupleCount()
		}
	}
	if scannedPages > 0 {
		set("heap.scan_ns_per_page", float64(sumOf(l.rung[rungScan]))/float64(scannedPages))
	}
	if filteredRows > 0 {
		set("expr.select_ns_per_row", float64(sumOf(l.rung[rungSelect]))/float64(filteredRows))
	}

	handler, decode, compile, run := allocs[rungHandler], allocs[rungDecode], allocs[rungCompile], allocs[rungRun]
	set("serve.decode_allocs", decode.perCall(decode.mallocs))
	set("sql.compile_allocs", compile.perCall(compile.mallocs))
	set("core.run_allocs", run.perCall(run.mallocs))
	set("core.run_alloc_kb", run.perCall(run.bytes)/1024)
	set("go.alloc_kb_per_op", handler.perCall(handler.bytes)/1024)
	set("go.gc_cycles_per_kop", 1000*handler.perCall(uint64(handler.gcs)))
	spansPerOp := float64(len(l.tr.spans)) / float64(len(l.ops))
	set("trace.spans_per_op", spansPerOp)
	set("trace.overhead_us_per_op", float64(spanOverhead().Nanoseconds())/1e3*spansPerOp)
}

func sumOf(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// attribute turns rung times into self times. Per op, a layer's self
// time is its rung minus its child rungs, clamped at zero; the clamped
// amount is kept so the table can say how much it fails to explain.
func (l *ladder) attribute() {
	n := float64(len(l.ops))
	self := make(map[string]float64)
	var clamped float64
	add := func(layer string, d time.Duration) {
		if d < 0 {
			clamped += ms(-d)
			return
		}
		self[layer] += ms(d)
	}
	at := func(name string, i int) time.Duration { return l.rung[name][i] }
	for i := range l.ops {
		add("http", at(rungSession, i)-at(rungHandler, i))
		add("serve", at(rungHandler, i)-at(rungDecode, i)-at(rungRun, i))
		add("serve.decode", at(rungDecode, i)-at(rungCompile, i)-at(rungExprParse, i))
		add("sql.bind", at(rungCompile, i)-at(rungParse, i))
		add("sql.parse", at(rungParse, i))
		add("expr.parse", at(rungExprParse, i))
		add("core", at(rungRun, i)-at(rungDecide, i)-at(rungCollect, i)-at(rungDevice, i))
		add("opt", at(rungDecide, i))
		// The storage and kernel rungs cover the whole table; a hybrid
		// run splits them between its two halves by page share.
		below := at(rungScan, i) + at(rungPage, i) + at(rungSelect, i)
		switch l.facts[i].kind {
		case "host":
			add("exec", at(rungCollect, i)-below)
		case "device", "cluster":
			add("device", at(rungDevice, i)-below)
		case "hybrid":
			dev := time.Duration(float64(below) * l.facts[i].hybridFrac)
			add("device", at(rungDevice, i)-dev)
			add("exec", at(rungCollect, i)-(below-dev))
		}
		if at(rungCollect, i) > 0 || at(rungDevice, i) > 0 {
			add("heap", at(rungScan, i))
			add("page", at(rungPage, i))
			add("expr.select", at(rungSelect, i))
		}
	}
	session := l.mean(rungSession)
	for _, layer := range []string{"http", "serve", "serve.decode", "sql.bind", "sql.parse", "expr.parse",
		"core", "opt", "exec", "device", "heap", "page", "expr.select"} {
		v := self[layer] / n
		l.rows = append(l.rows, ladderRow{Layer: layer, SelfMS: v, Share: v / session})
	}
	l.clampedMS = clamped / n
	l.rows = append(l.rows, ladderRow{Layer: "(clamped)", SelfMS: l.clampedMS, Share: l.clampedMS / session})
}

// selfOf reports a layer's mean self time from the table.
func (l *ladder) selfOf(layer string) float64 {
	for _, r := range l.rows {
		if r.Layer == layer {
			return r.SelfMS
		}
	}
	return 0
}

// simMetrics fills the metrics that come from the simulator's own
// counters on the first execution of each op: exact values that must
// repeat bit for bit.
func (l *ladder) simMetrics(m *metricSet, worker *core.Engine, orc *oracle) {
	var (
		executing, hostOps, deviceOps, getOps, updates, autos, agree int
		calls, flash, link                                           int64
		cycles, hostRows, deviceRows, gets                           int64
		hostUtil, devUtil, dma, linkUtil, channel                    float64
		collect, deviceRun                                           time.Duration
		rowsUpdated, ackNS, ftl                                      int64
		durable                                                      uint64
	)
	util := func(r *metrics.Report, name string) float64 {
		res, _ := r.Resource(name)
		return res.Utilization
	}
	for i, f := range l.facts {
		var rep *metrics.Report
		switch f.kind {
		case "explain":
			continue
		case "update":
			updates++
			rowsUpdated += f.rowsUpdated
			ackNS += f.ackNS
			ftl += f.ftlWrites
			durable += f.durableDelta
			continue
		case "cluster":
			rep = f.clusterRep
			flash += f.flash
			link += f.link
		default:
			rep = &f.res.Resources
			flash += f.res.FlashBytesRead
			link += f.res.LinkBytesOut
		}
		executing++
		for _, r := range rep.Resources {
			calls += r.Ops
		}
		dma += util(rep, "dma-bus")
		linkUtil += util(rep, "host-link")
		channel += util(rep, "flash-channels")
		t, err := worker.Table(l.qs[i].Spec.Table)
		if err != nil {
			continue
		}
		if f.kind == "host" || f.kind == "hybrid" {
			cycles += f.res.HostStats.CPUCycles
			hostRows += f.res.HostStats.RowsScanned
			collect += l.rung[rungCollect][i]
		}
		if f.kind == "host" {
			hostOps++
			hostUtil += util(rep, "host-cpu")
		}
		if f.kind == "device" || f.kind == "cluster" {
			deviceOps++
			devUtil += util(rep, "device-cpu")
			deviceRun += l.rung[rungDevice][i]
			deviceRows += t.File.TupleCount()
		}
		if f.kind == "device" {
			// The cluster keeps its runtimes' protocol counters private.
			getOps++
			for _, ph := range rep.Phases {
				if ph.Name == "GET" {
					gets += ph.Count
				}
			}
		}
		if l.ops[i].class == "sql_auto" {
			// The planner agrees with the simulator when the placement
			// it chose is the one with the lower simulated elapsed.
			h, herr := orc.probe.Run(l.qs[i].Spec, core.ForceHost)
			d, derr := orc.probe.Run(l.qs[i].Spec, core.ForceDevice)
			if herr == nil && derr == nil {
				autos++
				if (f.kind == "device") == (d.Elapsed <= h.Elapsed) {
					agree++
				}
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := float64(executing)
	m.set("sim.calls_per_op", ratio(float64(calls), n))
	m.set("ssd.flash_mb_per_op", ratio(float64(flash)/1e6, n))
	m.set("hostif.link_mb_per_op", ratio(float64(link)/1e6, n))
	m.set("ssd.dma_sim_util", ratio(dma, n))
	m.set("hostif.link_sim_util", ratio(linkUtil, n))
	m.set("nand.channel_sim_util", ratio(channel, n))
	m.set("exec.cpu_cycles_per_row", ratio(float64(cycles), float64(hostRows)))
	m.set("exec.host_cpu_sim_util", ratio(hostUtil, float64(hostOps)))
	m.set("exec.ns_per_row", ratio(float64(collect.Nanoseconds()), float64(hostRows)))
	m.set("device.cpu_sim_util", ratio(devUtil, float64(deviceOps)))
	m.set("device.ns_per_row", ratio(float64(deviceRun.Nanoseconds()), float64(deviceRows)))
	m.set("device.gets_per_op", ratio(float64(gets), float64(getOps)))
	m.set("opt.agree_ratio", ratio(float64(agree), float64(autos)))
	m.set("txn.rows_per_update", ratio(float64(rowsUpdated), float64(updates)))
	m.set("wal.ack_sim_ms", ratio(float64(ackNS)/1e6, float64(updates)))
	m.set("ftl.host_writes_per_update", ratio(float64(ftl), float64(updates)))
	m.set("core.durable_writes_per_update", ratio(float64(durable), float64(updates)))
	st := worker.Pool().Stats()
	m.set("bufpool.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)))
}

// printLadder prints the share-of-session table.
func printLadder(w *os.File, rows []ladderRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-14s %12s %8s   (self time per op; share of http.session)\n", "layer", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12.4f %7.1f%%\n", r.Layer, r.SelfMS, 100*r.Share)
	}
}
