package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"smartssd/internal/bufpool"
	"smartssd/internal/device"
	"smartssd/internal/energy"
	"smartssd/internal/exec"
	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/metrics"
	"smartssd/internal/opt"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// Mode selects where a query executes.
type Mode uint8

// Execution modes.
const (
	// Auto lets the cost-based planner choose (the §5 "extend the query
	// optimizer" direction).
	Auto Mode = iota
	// ForceHost always runs the usual host path.
	ForceHost
	// ForceDevice always pushes down (fails if infeasible).
	ForceDevice
	// ForceHybrid splits the scan between host and device, running both
	// concurrently and merging on the host (§4.3 partial pushdown).
	ForceHybrid
)

func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case ForceHost:
		return "host"
	case ForceHybrid:
		return "hybrid"
	default:
		return "device"
	}
}

// JoinClause names a simple hash join: build BuildTable in memory on
// BuildKey and probe it with the main table's ProbeKey.
type JoinClause struct {
	BuildTable string
	BuildKey   string // column name in the build table
	ProbeKey   string // column name in the main (probe) table
}

// QuerySpec is a query in the paper's supported class. Filter, Output,
// and Agg expressions are evaluated over the combined row: the main
// table's columns first, then (for joins) the build table's columns.
type QuerySpec struct {
	Table  string
	Join   *JoinClause
	Filter expr.Expr
	Output []plan.OutputCol
	Aggs   []plan.AggSpec
	// GroupBy lists combined-row column indexes to group the
	// aggregates by; group counts must stay small enough for device
	// DRAM when pushed down (TPC-H Q1 scale).
	GroupBy []int
	// OrderBy sorts the final result by output-schema columns. Ordering
	// always runs on the host — a hybrid plan when the rest of the
	// query is pushed down (the device has no sort operator; the host
	// finishes the work, charged to its CPU on the same timeline).
	OrderBy []plan.OrderKey
	// Limit truncates the result after ordering; zero means no limit.
	Limit int
	// EstSelectivity is the planner's estimate of the fraction of
	// scanned tuples reaching the output (default 0.1).
	EstSelectivity float64
}

// Placement describes where a run actually executed.
type Placement uint8

// Run placements.
const (
	RanHost Placement = iota
	RanDevice
	RanHybrid
)

func (p Placement) String() string {
	switch p {
	case RanDevice:
		return "device"
	case RanHybrid:
		return "hybrid"
	default:
		return "host"
	}
}

// Result is one run's answer plus its complete measurement.
type Result struct {
	// Tag carries the caller's label for this run (e.g. the serving
	// session that issued it); the engine never sets it.
	Tag     string
	Rows    []schema.Tuple
	Schema  *schema.Schema
	Elapsed time.Duration
	Energy  energy.Breakdown
	// Placement reports where the query ran; Decision carries the
	// planner's evidence (zero-valued for forced modes).
	Placement Placement
	Decision  opt.Decision
	// Bottleneck names the pipeline stage that set throughput.
	Bottleneck string
	// Stages breaks the run down per pipeline resource (busy time and
	// utilization over the elapsed window), for profiling output.
	Stages []StageUtil
	// Resources is the full per-resource report: utilization, queueing,
	// time-to-bottleneck, traffic volumes, and (for device runs) the
	// OPEN/GET/CLOSE phase latencies. It is built from the servers'
	// always-on counters, so it is populated whether or not tracing is
	// enabled.
	Resources metrics.Report
	// HybridDeviceFraction is the page fraction the device processed
	// (hybrid runs only).
	HybridDeviceFraction float64
	// Device traffic.
	FlashBytesRead int64
	LinkBytesOut   int64
	// HostStats counts host-executor work (host runs only).
	HostStats exec.Stats
	// Faults is the availability story of the run: retries, fallbacks,
	// and every reliability event that fired (all zero when fault
	// injection is off).
	Faults FaultReport
}

// StageUtil is one pipeline resource's share of a run.
type StageUtil struct {
	Name string
	// Busy is the resource's cumulative service time (per lane for
	// parallel resources).
	Busy time.Duration
	// Utilization is Busy over the run's elapsed time, in [0,1].
	Utilization float64
}

// Run executes spec under mode. Cold engines (the default) clear the
// buffer pool and zero the timeline first. ORDER BY and LIMIT are
// applied on the host after either execution path.
func (e *Engine) Run(spec QuerySpec, mode Mode) (*Result, error) {
	res, err := e.runPlaced(spec, mode)
	if err != nil {
		return nil, err
	}
	if err := e.finishOrdering(res, spec); err != nil {
		return nil, err
	}
	return res, nil
}

func (e *Engine) runPlaced(spec QuerySpec, mode Mode) (*Result, error) {
	q, err := resolve(spec, mode, true, e.table)
	if err != nil {
		return nil, err
	}

	if e.cold {
		e.pool.Clear()
		e.ResetTiming()
	}
	// Scratch contents never outlive a run, so every run starts from a
	// recycled (not regrown) arena regardless of cold/warm methodology.
	e.scratch.Reset()

	// HDD-resident tables have no pushdown path.
	if q.target == OnHDD {
		return e.runHost(&q)
	}

	dq := q.lower(device.RefOf(q.main), q.build)
	switch mode {
	case ForceHost:
		return e.runHost(&q)
	case ForceHybrid:
		return e.runHybrid(&q, dq)
	case ForceDevice:
		return e.runDevice(&q, dq, opt.Decision{Pushdown: true, Reason: "forced"})
	default:
		d := e.planner.Decide(dq, e.ssd, e.runPool(), spec.EstSelectivity)
		// With hybrid planning enabled, a costed (non-vetoed) decision
		// may route to the split when it beats both pure paths.
		if e.hybridAuto && d.HostCost > 0 && d.HybridCost > 0 &&
			d.HybridCost < d.HostCost && d.HybridCost < d.DeviceCost {
			res, err := e.runHybrid(&q, dq)
			if err == nil {
				res.Decision.HostCost = d.HostCost
				res.Decision.DeviceCost = d.DeviceCost
				res.Decision.HybridCost = d.HybridCost
			}
			return res, err
		}
		if d.Pushdown {
			return e.runDevice(&q, dq, d)
		}
		res, err := e.runHost(&q)
		if err == nil {
			res.Decision = d
		}
		return res, err
	}
}

// resolved is a query checked against one backend's catalog: the spec,
// its main and build tables as that backend holds them (F), where they
// live, and its join keys as column indexes. The engine holds a table
// as one heap file, the cluster as one partition per device.
type resolved[F any] struct {
	QuerySpec
	main, build        F // build is the zero F without a join
	target             Target
	buildKey, probeKey int
}

// resolve checks spec against one backend's catalog before anything
// runs, so that a malformed query is a returned error, never a panic in
// a lowering or an executor: ORDER BY and LIMIT come only with a host
// to finish them (sorts), both tables exist on one device, the join
// keys, group-by columns and every column the filter, outputs and
// aggregates read lie in the combined row, and an HDD-resident table is
// not forced into the device. table looks a name up in the catalog;
// mode is the placement asked for (Auto when only planning).
func resolve[F any](spec QuerySpec, mode Mode, sorts bool,
	table func(name string) (F, *schema.Schema, Target, error)) (resolved[F], error) {
	q := resolved[F]{QuerySpec: spec}
	if !sorts && (len(spec.OrderBy) > 0 || spec.Limit > 0) {
		return q, errors.New("core: cluster queries do not support ORDER BY or LIMIT")
	}
	var s *schema.Schema
	var err error
	if q.main, s, q.target, err = table(spec.Table); err != nil {
		return q, err
	}
	width := s.NumColumns()
	if j := spec.Join; j != nil {
		var bs *schema.Schema
		var bt Target
		if q.build, bs, bt, err = table(j.BuildTable); err != nil {
			return q, err
		}
		if bt != q.target {
			return q, errors.New("core: join across devices is not supported")
		}
		q.buildKey, q.probeKey = bs.ColumnIndex(j.BuildKey), s.ColumnIndex(j.ProbeKey)
		if q.buildKey < 0 || q.probeKey < 0 {
			return q, fmt.Errorf("core: join keys %q/%q not found", j.BuildKey, j.ProbeKey)
		}
		width += bs.NumColumns()
	}
	if len(spec.Output) == 0 && len(spec.Aggs) == 0 {
		return q, errors.New("core: query has neither output columns nor aggregates")
	}
	for _, g := range spec.GroupBy {
		if g < 0 || g >= width {
			return q, fmt.Errorf("core: group-by column %d out of the combined row", g)
		}
	}
	if rowWidth(spec.Filter) > width {
		return q, errors.New("core: filter reads a column out of the combined row")
	}
	for _, o := range spec.Output {
		if rowWidth(o.E) > width {
			return q, fmt.Errorf("core: output %q reads a column out of the combined row", o.Name)
		}
	}
	for _, a := range spec.Aggs {
		if rowWidth(a.E) > width {
			return q, fmt.Errorf("core: aggregate %q reads a column out of the combined row", a.Name)
		}
	}
	if q.target == OnHDD && (mode == ForceDevice || mode == ForceHybrid) {
		return q, errors.New("core: table on HDD cannot run in the device")
	}
	return q, nil
}

// lower builds q's in-device program: a scan of the extent ref, joined
// against build, the build table's copy on the device that runs it.
func (q *resolved[F]) lower(ref device.TableRef, build *heap.File) device.Query {
	dq := device.Query{
		Table:   ref,
		Filter:  q.Filter,
		Output:  q.Output,
		Aggs:    q.Aggs,
		GroupBy: q.GroupBy,
	}
	if q.Join != nil {
		dq.Join = &device.JoinSpec{Build: device.RefOf(build), BuildKey: q.buildKey, ProbeKey: q.probeKey}
	}
	return dq
}

// table looks name up in the engine's catalog for resolve.
func (e *Engine) table(name string) (*heap.File, *schema.Schema, Target, error) {
	t, err := e.Table(name)
	if err != nil {
		return nil, nil, 0, err
	}
	return t.File, t.File.Schema(), t.Target, nil
}

// hostPlan lowers a resolved query to a host operator tree. The
// combined-row column convention matches the device program: when the
// filter only references main-table columns it is inlined into the
// scan, exactly the residual-predicate placement SQL Server uses.
func (e *Engine) hostPlan(q *resolved[*heap.File]) exec.Operator {
	var pool *bufpool.Pool
	if q.target == OnSSD {
		pool = e.pool
	}
	scan := &exec.TableScan{File: q.main, Pool: pool}
	onProbe := rowWidth(q.Filter) <= q.main.Schema().NumColumns()
	if onProbe {
		scan.Filter = q.Filter
	}
	var root exec.Operator = scan
	if q.Join != nil {
		root = &exec.HashJoin{
			Build:    &exec.TableScan{File: q.build, Pool: pool},
			Probe:    scan,
			BuildKey: q.buildKey,
			ProbeKey: q.probeKey,
		}
		if !onProbe {
			root = &exec.Filter{Input: root, Pred: q.Filter}
		}
	}
	if len(q.Aggs) > 0 {
		return &exec.Aggregate{Input: root, GroupBy: q.GroupBy, Aggs: q.Aggs}
	}
	return &exec.Project{Input: root, Cols: q.Output}
}

// finishOrdering applies ORDER BY and LIMIT to a completed result,
// charging the sort's comparisons to the host CPU and extending the
// run's elapsed time accordingly.
func (e *Engine) finishOrdering(res *Result, spec QuerySpec) error {
	if len(spec.OrderBy) == 0 && spec.Limit <= 0 {
		return nil
	}
	for _, k := range spec.OrderBy {
		if k.Col < 0 || k.Col >= res.Schema.NumColumns() {
			return fmt.Errorf("core: ORDER BY column %d out of output schema %v", k.Col, res.Schema)
		}
	}
	if len(spec.OrderBy) > 0 {
		sort.SliceStable(res.Rows, func(i, j int) bool {
			for _, k := range spec.OrderBy {
				kind := res.Schema.Column(k.Col).Kind
				c := schema.Compare(kind, res.Rows[i][k.Col], res.Rows[j][k.Col])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		// Charge about n log2(n) comparisons, each a few host cycles.
		n := int64(len(res.Rows))
		if n > 1 {
			logn := int64(1)
			for v := n; v > 1; v >>= 1 {
				logn++
			}
			cycles := n * logn * int64(len(spec.OrderBy)) * e.host.Cost.OpCycles
			done := e.host.CPU.Serve(res.Elapsed, cycles)
			if done > res.Elapsed {
				res.Elapsed = done
			}
		}
	}
	if spec.Limit > 0 && len(res.Rows) > spec.Limit {
		res.Rows = res.Rows[:spec.Limit]
	}
	return nil
}

// rowWidth reports how wide a row ex reads: one more than the highest
// column it references (0 for none or a nil ex), or MaxInt for a
// negative one. It walks the node types itself, so that resolving a
// query allocates nothing; any other node falls back to Columns.
func rowWidth(ex expr.Expr) int {
	w := 0
	switch x := ex.(type) {
	case nil, expr.Const:
	case expr.Col:
		if w = x.Index + 1; x.Index < 0 {
			w = math.MaxInt
		}
	case expr.Cmp:
		w = max(rowWidth(x.L), rowWidth(x.R))
	case expr.Arith:
		w = max(rowWidth(x.L), rowWidth(x.R))
	case expr.Not:
		w = rowWidth(x.E)
	case expr.LikePrefix:
		w = rowWidth(x.E)
	case expr.Case:
		w = max(rowWidth(x.Cond), rowWidth(x.Then), rowWidth(x.Else))
	case expr.And:
		for _, t := range x.Terms {
			w = max(w, rowWidth(t))
		}
	case expr.Or:
		for _, t := range x.Terms {
			w = max(w, rowWidth(t))
		}
	default:
		for _, c := range ex.Columns(nil) {
			w = max(w, rowWidth(expr.Col{Index: c}))
		}
	}
	return w
}

// newExecCtx builds a host executor context carrying the engine's
// scratch arenas.
func (e *Engine) newExecCtx() *exec.Ctx {
	ctx := exec.NewCtx(e.host)
	ctx.Scratch = &e.scratch
	return ctx
}

func (e *Engine) runHost(q *resolved[*heap.File]) (*Result, error) {
	op := e.hostPlan(q)
	win := e.faultWindow()
	ctx := e.newExecCtx()
	rows, end, err := exec.Collect(ctx, op)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Rows:      rows,
		Schema:    op.Schema(),
		Elapsed:   end,
		Placement: RanHost,
		HostStats: ctx.Stats,
	}
	e.finishMetrics(res, q.target)
	res.Elapsed += win.diff(e, &res.Faults)
	return res, nil
}

// runDevice executes the pushed-down program with the degradation
// ladder of the fault model: bounded retry-with-backoff on the device,
// then transparent host fallback (re-scanning through the block
// interface). Non-fault errors surface immediately. On a fault-free
// device this is exactly one RunQuery call.
func (e *Engine) runDevice(q *resolved[*heap.File], dq device.Query, d opt.Decision) (*Result, error) {
	win := e.faultWindow()
	var rep FaultReport
	var wait time.Duration
	backoff := e.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= e.cfg.MaxDeviceRetries; attempt++ {
		rep.DeviceAttempts++
		rows, end, err := e.runtime.RunQuery(dq)
		if err == nil {
			res := &Result{
				Rows:      rows,
				Schema:    dq.OutputSchema(),
				Elapsed:   end,
				Placement: RanDevice,
				Decision:  d,
			}
			e.finishMetrics(res, OnSSD)
			res.Resources.Phases = e.runtime.PhaseStats().Phases()
			res.Elapsed += wait + win.diff(e, &rep)
			res.Faults = rep
			return res, nil
		}
		lastErr = err
		if !isDeviceFault(err) {
			return nil, err
		}
		if attempt < e.cfg.MaxDeviceRetries {
			wait += backoff
			rep.BackoffWait += backoff
			backoff *= 2
		}
	}
	if e.cfg.DisableFallback {
		return nil, fmt.Errorf("core: device path failed after %d attempts: %w",
			rep.DeviceAttempts, lastErr)
	}
	rep.HostFallback = true
	rep.FallbackReason = faultReason(lastErr)
	res, err := e.runHost(q)
	if err != nil {
		return nil, fmt.Errorf("core: host fallback after %v: %w", lastErr, err)
	}
	res.Decision = d
	res.Elapsed += wait + win.diff(e, &rep)
	res.Faults = rep
	return res, nil
}

// finishMetrics fills bottleneck, traffic, and energy from the device
// activity counters.
func (e *Engine) finishMetrics(res *Result, target Target) {
	util := func(busy time.Duration) float64 {
		if res.Elapsed <= 0 {
			return 0
		}
		u := float64(busy) / float64(res.Elapsed)
		if u > 1 {
			u = 1
		}
		return u
	}
	hostBusy := e.host.CPU.BusyTime() / time.Duration(e.cfg.HostCores)
	if target == OnHDD {
		act := e.hdd.Activity()
		res.Bottleneck = "hdd-media"
		res.FlashBytesRead = act.BytesRead
		res.LinkBytesOut = act.BytesRead
		res.Stages = []StageUtil{
			{Name: "hdd-media", Busy: act.MediaBusy, Utilization: util(act.MediaBusy)},
			{Name: "host-cpu", Busy: hostBusy, Utilization: util(hostBusy)},
		}
		res.Energy = e.cfg.Energy.Energy(energy.Usage{
			Kind:            energy.HDD,
			Elapsed:         res.Elapsed,
			MediaBusy:       act.MediaBusy,
			HostIngestBytes: act.BytesRead,
		})
		res.Resources = metrics.Snapshot(res.Elapsed,
			append(e.hdd.ResourceGroups(), metrics.GroupOf("host-cpu", "cycles", e.host.CPU))...)
		return
	}
	act := e.ssd.Activity()
	res.Bottleneck = e.ssd.Bottleneck()
	res.FlashBytesRead = act.FlashBytesRead
	res.LinkBytesOut = act.LinkBytesOut
	chAvg := act.ChannelBusy / time.Duration(e.ssd.Params().Geometry.Channels)
	dcpuAvg := act.DeviceCPUBusy / time.Duration(e.ssd.Params().DeviceCPUCores)
	res.Stages = []StageUtil{
		{Name: "flash-channels", Busy: chAvg, Utilization: util(chAvg)},
		{Name: "dma-bus", Busy: act.DMABusy, Utilization: util(act.DMABusy)},
		{Name: "host-link", Busy: act.LinkBusy, Utilization: util(act.LinkBusy)},
		{Name: "device-cpu", Busy: dcpuAvg, Utilization: util(dcpuAvg)},
		{Name: "host-cpu", Busy: hostBusy, Utilization: util(hostBusy)},
	}
	res.Energy = e.cfg.Energy.Energy(energy.Usage{
		Kind:            energy.SSD,
		Elapsed:         res.Elapsed,
		FlashBusy:       act.DMABusy,
		LinkBusy:        act.LinkBusy,
		DeviceCPUBusy:   act.DeviceCPUBusy,
		DeviceCPUCores:  e.ssd.Params().DeviceCPUCores,
		HostIngestBytes: act.LinkBytesOut,
	})
	res.Resources = metrics.Snapshot(res.Elapsed,
		append(e.ssd.ResourceGroups(), metrics.GroupOf("host-cpu", "cycles", e.host.CPU))...)
}

// Decide reports the planner's host-versus-device decision for spec
// without executing anything — the cost evidence the EXPLAIN surface
// renders alongside the plans.
func (e *Engine) Decide(spec QuerySpec) (opt.Decision, error) {
	q, err := resolve(spec, Auto, true, e.table)
	if err != nil {
		return opt.Decision{}, err
	}
	if q.target == OnHDD {
		return opt.Decision{Reason: "table on HDD has no pushdown path"}, nil
	}
	return e.planner.Decide(q.lower(device.RefOf(q.main), q.build), e.ssd, e.runPool(), spec.EstSelectivity), nil
}

// runPool reports the buffer pool the next Run starts from, the one the
// planner prices: none on a cold engine, whose Run clears the pool
// first.
func (e *Engine) runPool() *bufpool.Pool {
	if e.cold {
		return nil
	}
	return e.pool
}

// Explain renders both candidate plans and the planner's decision
// without executing anything.
func (e *Engine) Explain(spec QuerySpec) (string, error) {
	q, err := resolve(spec, Auto, true, e.table)
	if err != nil {
		return "", err
	}
	out := "host plan:\n" + exec.ExplainTree(e.hostPlan(&q))
	if q.target == OnSSD {
		dq := q.lower(device.RefOf(q.main), q.build)
		out += "device plan:\n" + dq.Explain()
		d := e.planner.Decide(dq, e.ssd, e.runPool(), spec.EstSelectivity)
		out += "decision: " + d.String() + "\n"
	}
	return out, nil
}
