package exec

import (
	"time"

	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/schema"
)

// Vectorized execution: recognized plan shapes run page-at-a-time over
// columnar batches and selection vectors instead of tuple-at-a-time
// through interface dispatch. The invariant that makes this safe to
// enable by default is closed-form charge equivalence: every CPU
// reservation the scalar path makes is reproduced with the same cycles,
// the same ready time, and in the same order — identical per-tuple
// charges collapse into counted runs through chargeBatchedN/chargeRun,
// which the rate server schedules exactly like the equivalent Serve
// sequence — so results, Stats, and virtual timings are byte-identical
// while wall-clock time and allocations drop.
//
// Recognized shapes (exactly the planner's host plans):
//
//	{Aggregate | Project} over TableScan                  — fully vectorized
//	{Aggregate | Project} over HashJoin(probe: TableScan) — vectorized
//	    probe scan (page charge, filter kernel, bulk key read, counted
//	    miss charges); hit/emit chains and the root stay scalar because
//	    their chained per-row completion times are observable.
//
// Anything else — standalone Filter (whose per-tuple completion times
// feed downstream ready times), non-scan inputs, expressions the batch
// compiler rejects — falls back to the scalar operators untouched.

// vecPlan is a recognized vectorizable plan shape.
type vecPlan struct {
	agg  *Aggregate
	proj *Project
	join *HashJoin  // nil for scan-only shapes
	scan *TableScan // the (probe) scan feeding the tree
}

func matchVecPlan(op Operator) (vecPlan, bool) {
	var p vecPlan
	var input Operator
	switch root := op.(type) {
	case *Aggregate:
		p.agg, input = root, root.Input
	case *Project:
		p.proj, input = root, root.Input
	default:
		return p, false
	}
	switch in := input.(type) {
	case *TableScan:
		p.scan = in
	case *HashJoin:
		ps, ok := in.Probe.(*TableScan)
		if !ok {
			return p, false
		}
		p.join, p.scan = in, ps
	default:
		return p, false
	}
	return p, true
}

// runVectorized runs op through the vectorized executor when the plan
// shape and its expressions are supported, reporting false (with no
// charges booked) otherwise. Only Collect dispatches here, and Collect's
// sink ignores per-tuple emit times; paths that cannot cheaply
// reproduce scalar per-row completion times (Project output rows) emit
// with their batch's last completion instead.
func runVectorized(ctx *Ctx, op Operator, emit Emit) (time.Duration, error, bool) {
	if ctx.ScalarExec {
		return 0, nil, false
	}
	p, ok := matchVecPlan(op)
	if !ok {
		return 0, nil, false
	}
	if p.join != nil {
		vj, ok := newVecJoin(ctx, p.join, p.scan)
		if !ok {
			return 0, nil, false
		}
		// The root runs scalar over the wrapped join: its charges are
		// driven by emitted tuple times, which the wrapper reproduces
		// exactly. A shallow copy redirects Input without mutating the
		// caller's plan.
		var end time.Duration
		var err error
		if p.agg != nil {
			agg := *p.agg
			agg.Input = vj
			end, err = agg.Run(ctx, emit)
		} else {
			proj := *p.proj
			proj.Input = vj
			end, err = proj.Run(ctx, emit)
		}
		return end, err, true
	}
	if p.agg != nil {
		return runVecAggScan(ctx, p.agg, p.scan, emit)
	}
	return runVecProjScan(ctx, p.proj, p.scan, emit)
}

// compileBatch compiles e for vectorized evaluation through the
// engine's kernel cache, when the context has scratch.
func (c *Ctx) compileBatch(e expr.Expr) (*expr.BatchExpr, bool) {
	if c.Scratch == nil {
		return expr.CompileBatch(e)
	}
	if c.Scratch.kernels == nil {
		c.Scratch.kernels = make(map[string]*expr.BatchExpr)
	}
	return expr.CompileCached(c.Scratch.kernels, e)
}

// vecScan decodes the referenced columns of a TableScan's pages into a
// columnar Batch and applies the scan's filter as a selection-vector
// kernel.
type vecScan struct {
	scan      *TableScan
	filter    *expr.BatchExpr // nil when the scan has no filter
	filterOps int64           // scan.Filter.Ops(), for the page charge
	cols      *page.Columns
	batch     *schema.Batch
}

// newVecScan builds the decode plan for scan: needCols (the columns the
// consumer reads) plus the filter's columns. It reports false when the
// filter is outside the batch compiler's expression class.
func newVecScan(ctx *Ctx, scan *TableScan, needCols []int) (*vecScan, bool) {
	v := &vecScan{scan: scan}
	cols := needCols
	if scan.Filter != nil {
		k, ok := ctx.compileBatch(scan.Filter)
		if !ok {
			return nil, false
		}
		v.filter = k
		v.filterOps = int64(scan.Filter.Ops())
		cols = expr.AppendDistinctColumns(cols, scan.Filter)
	}
	arena := &schema.TupleArena{}
	if ctx.Scratch != nil {
		arena = &ctx.Scratch.vec
	}
	v.cols = page.NewColumns(scan.File.Schema(), scan.File.Layout(), cols, arena)
	v.batch = v.cols.Batch
	return v, true
}

// pageCycles reports the scalar scan's per-page CPU charge for a page
// of n tuples: page setup, per-tuple iteration, and per-tuple filter
// evaluation at the expression's static operator count.
func (v *vecScan) pageCycles(cost CostModel, n int) int64 {
	cycles := cost.PageCycles + int64(n)*cost.TupleCycles
	if v.filter != nil {
		cycles += int64(n) * v.filterOps * cost.OpCycles
	}
	return cycles
}

// selectRows decodes the bound page and builds its selection: every
// row, refined by the filter kernel when one is attached. The result
// is valid until the next call.
func (v *vecScan) selectRows(r *page.Reader) []int32 {
	sel := v.cols.Decode(r)
	if v.filter != nil {
		sel = v.filter.Select(v.batch, sel)
	}
	return sel
}

// selChunk reports the next selection chunk boundary under the
// BatchRows knob; zero means whole-page chunks. Splitting a selection
// never changes charges: counted runs are additive on the rate server.
func selChunk(ctx *Ctx, off, n int) int {
	if ctx.BatchRows <= 0 || off+ctx.BatchRows > n {
		return n
	}
	return off + ctx.BatchRows
}

// runVecAggScan runs Aggregate-over-TableScan vectorized: one page
// charge, one filter kernel pass, one counted fold charge per selection
// chunk, and scalar-identical group-state management in scan order.
func runVecAggScan(ctx *Ctx, a *Aggregate, scan *TableScan, emit Emit) (time.Duration, error, bool) {
	cost := ctx.Host.Cost
	aggK := make([]*expr.BatchExpr, len(a.Aggs))
	var ops int64
	needCols := append([]int(nil), a.GroupBy...)
	for i, s := range a.Aggs {
		if s.E == nil {
			continue
		}
		ops += int64(s.E.Ops())
		k, ok := ctx.compileBatch(s.E)
		if !ok {
			return 0, nil, false
		}
		aggK[i] = k
		needCols = expr.AppendDistinctColumns(needCols, s.E)
	}
	vs, ok := newVecScan(ctx, scan, needCols)
	if !ok {
		return 0, nil, false
	}
	perTuple := ops*cost.OpCycles + int64(len(a.Aggs))*cost.AggCycles

	groups := ctx.groups(a)
	var end time.Duration
	process := func(r *page.Reader, arrival time.Duration) error {
		n := r.Count()
		done := ctx.charge(vs.pageCycles(cost, n), arrival)
		if done > end {
			end = done
		}
		ctx.Stats.PagesRead++
		ctx.Stats.RowsScanned += int64(n)
		sel := vs.selectRows(r)
		ctx.Stats.RowsEmitted += int64(len(sel))
		for off := 0; off < len(sel); {
			lim := selChunk(ctx, off, len(sel))
			part := sel[off:lim]
			off = lim
			ctx.chargeBatchedN(perTuple, done, len(part))
			groups.FoldBatch(vs.batch, part, aggK)
			ctx.Stats.Folded += int64(len(part))
		}
		return nil
	}
	ioEnd, err := scan.drivePages(ctx, process)
	if m := ctx.takeRunMax(); m > end {
		end = m
	}
	if err != nil {
		return end, err, true
	}
	end, err = emitGroups(ctx, groups, max(end, ioEnd), emit)
	return end, err, true
}

// runVecProjScan runs Project-over-TableScan vectorized: one page
// charge, one filter kernel pass, one counted per-row output charge per
// selection chunk (bypassing the batched-run accumulator, exactly like
// the scalar Project's direct charges), and kernel-evaluated output
// columns assembled into tuples in scan order.
func runVecProjScan(ctx *Ctx, p *Project, scan *TableScan, emit Emit) (time.Duration, error, bool) {
	cost := ctx.Host.Cost
	outK := make([]*expr.BatchExpr, len(p.Cols))
	var ops int64
	var needCols []int
	for i, c := range p.Cols {
		ops += int64(c.E.Ops())
		k, ok := ctx.compileBatch(c.E)
		if !ok {
			return 0, nil, false
		}
		outK[i] = k
		needCols = expr.AppendDistinctColumns(needCols, c.E)
	}
	vs, ok := newVecScan(ctx, scan, needCols)
	if !ok {
		return 0, nil, false
	}
	perRow := ops*cost.OpCycles + cost.EmitCycles

	intOut := make([][]int64, len(p.Cols))
	bytOut := make([][][]byte, len(p.Cols))
	out := make(schema.Tuple, len(p.Cols))
	var end time.Duration
	process := func(r *page.Reader, arrival time.Duration) error {
		n := r.Count()
		done := ctx.charge(vs.pageCycles(cost, n), arrival)
		if done > end {
			end = done
		}
		ctx.Stats.PagesRead++
		ctx.Stats.RowsScanned += int64(n)
		sel := vs.selectRows(r)
		ctx.Stats.RowsEmitted += int64(len(sel))
		for off := 0; off < len(sel); {
			lim := selChunk(ctx, off, len(sel))
			part := sel[off:lim]
			off = lim
			// Scalar Project charges each output row directly at the
			// page's done time; the counted run books the same
			// reservations. Per-row completion times are unobservable
			// through Collect, so emitted rows carry the run's last.
			last := ctx.chargeRun(perRow, done, len(part))
			for i, k := range outK {
				if k.Kind() == schema.Char {
					bytOut[i] = k.EvalBytes(vs.batch, part, bytOut[i])
				} else {
					intOut[i] = k.EvalInt64(vs.batch, part, intOut[i])
				}
			}
			for pi := range part {
				for i, k := range outK {
					if k.Kind() == schema.Char {
						out[i] = schema.Value{Bytes: bytOut[i][pi]}
					} else {
						out[i] = schema.Value{Int: intOut[i][pi]}
					}
				}
				if err := emit(out, last); err != nil {
					return err
				}
			}
		}
		return nil
	}
	ioEnd, err := scan.drivePages(ctx, process)
	if err != nil {
		return end, err, true
	}
	if ioEnd > end {
		end = ioEnd
	}
	return end, nil, true
}

// vecJoin wraps a HashJoin whose probe side is a TableScan: the build
// phase and hit/emit chains run the scalar code (chained completion
// times are observable downstream), while the probe scan's page
// charges, filter evaluation, key extraction, and miss charges are
// vectorized. It implements Operator so the scalar root runs over it
// unchanged.
type vecJoin struct {
	join   *HashJoin
	scan   *TableScan
	vs     *vecScan
	keyCol int
}

func newVecJoin(ctx *Ctx, j *HashJoin, probe *TableScan) (*vecJoin, bool) {
	if probe.File.Schema().Column(j.ProbeKey).Kind == schema.Char {
		// Scalar probing keys on Value.Int; a CHAR key never matches
		// meaningfully and has no numeric vector — leave it scalar.
		return nil, false
	}
	vs, ok := newVecScan(ctx, probe, []int{j.ProbeKey})
	if !ok {
		return nil, false
	}
	return &vecJoin{join: j, scan: probe, vs: vs, keyCol: j.ProbeKey}, true
}

// Schema implements Operator.
func (v *vecJoin) Schema() *schema.Schema { return v.join.Schema() }

// Children implements Operator.
func (v *vecJoin) Children() []Operator { return v.join.Children() }

// Explain implements Operator.
func (v *vecJoin) Explain() string { return v.join.Explain() }

// Run implements Operator.
func (v *vecJoin) Run(ctx *Ctx, emit Emit) (time.Duration, error) {
	j := v.join
	cost := ctx.Host.Cost
	ht, buildDone, err := j.runBuild(ctx)
	if err != nil {
		return buildDone, err
	}

	nb := j.Build.Schema().NumColumns()
	np := j.Probe.Schema().NumColumns()
	out := make(schema.Tuple, np+nb)
	var probeT schema.Tuple
	var end time.Duration     // max hit-chain completion
	var scanEnd time.Duration // the probe scan's own end
	process := func(r *page.Reader, arrival time.Duration) error {
		n := r.Count()
		done := ctx.charge(v.vs.pageCycles(cost, n), arrival)
		if done > scanEnd {
			scanEnd = done
		}
		ctx.Stats.PagesRead++
		ctx.Stats.RowsScanned += int64(n)
		sel := v.vs.selectRows(r)
		ctx.Stats.RowsEmitted += int64(len(sel))
		ready := done
		if buildDone > ready {
			ready = buildDone
		}
		keys := v.vs.batch.Int64Vec(v.keyCol)
		// Misses accumulate as a counted run booked just before the next
		// hit's direct charge (or page end) — the same pending-run state
		// and flush points the scalar path's per-miss chargeBatched calls
		// produce, since nothing else touches the accumulator in between.
		misses := 0
		for _, row := range sel {
			ctx.Stats.HashProbes++
			b := ht.keys.Chain1(uint64(keys[row]))
			if b < 0 {
				misses++
				continue
			}
			ctx.chargeBatchedN(cost.HashProbeCycles, ready, misses)
			misses = 0
			hdone := ctx.charge(cost.HashProbeCycles, ready)
			probeT = r.Tuple(probeT, int(row))
			for ; b >= 0; b = ht.keys.Next(b) {
				hdone = ctx.charge(cost.EmitCycles, hdone)
				copy(out, probeT)
				copy(out[np:], ht.rows[b])
				ctx.Stats.RowsEmitted++
				if err := emit(out, hdone); err != nil {
					return err
				}
			}
			if hdone > end {
				end = hdone
			}
		}
		ctx.chargeBatchedN(cost.HashProbeCycles, ready, misses)
		return nil
	}
	ioEnd, err := v.scan.drivePages(ctx, process)
	if m := ctx.takeRunMax(); m > end {
		end = m
	}
	if err != nil {
		return end, err
	}
	if ioEnd > scanEnd {
		scanEnd = ioEnd
	}
	if scanEnd > end {
		end = scanEnd
	}
	if buildDone > end {
		end = buildDone
	}
	return end, nil
}
