package exec

import (
	"errors"
	"time"

	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// Collect executes a plan page at a time over columnar batches,
// selection vectors and compiled kernels, and books exactly the CPU
// charges the push-based pipeline of its operators would: the same
// cycles, at the same ready times, in the same order. Identical
// per-tuple charges collapse into counted runs (chargeBatchedN,
// chargeRun), which the rate server schedules exactly like the
// equivalent Serve sequence, so results, Stats and virtual timings are
// those of the tuple-at-a-time pipeline while the wall clock pays for
// batches. reference_test.go keeps that pipeline as the reference
// interpreter the tests compare Collect against.

// errShape reports a plan outside the shapes Collect runs — exactly
// the host plans the engine builds.
var errShape = errors.New("exec: Collect runs an Aggregate or Project over a TableScan, or over a HashJoin of two TableScans with an optional Filter between")

// Collect runs op and returns all output tuples (deep-copied into an
// arena owned by the result) and the run's completion time. op is an
// Aggregate or a Project over a TableScan, or over a HashJoin of two
// TableScans, optionally under a Filter; a build-side TableScan takes
// no filter, and every expression must be in the batch compiler's
// class.
func Collect(ctx *Ctx, op Operator) ([]schema.Tuple, time.Duration, error) {
	r, err := newRun(ctx, op)
	if err != nil {
		return nil, 0, err
	}
	end, err := r.exec()
	// Safety barrier: every phase takes its own batched runs at its
	// boundary, but flush here so no charge can outlive the run.
	if m := ctx.takeRunMax(); m > end {
		end = m
	}
	return r.rows, end, err
}

// run is one Collect: the plan's compiled pieces and its result.
type run struct {
	ctx  *Ctx
	s    *Scratch
	cost CostModel

	scan  *vecScan  // the scan; a join's probe side
	join  *HashJoin // nil over a plain scan
	build *vecScan
	// residual is a Filter over the join (nil without one), charged
	// residualCycles per pair.
	residual       *expr.BatchExpr
	residualCycles int64

	// The root: an Aggregate folds into groups through aggK, a Project
	// evaluates proj. perRow is its charge per input row.
	groups *plan.Groups
	aggK   []*expr.BatchExpr
	proj   *plan.Projector
	perRow int64

	out   schema.Tuple
	rows  []schema.Tuple
	arena schema.TupleArena
}

// newRun matches op against the shapes Collect runs and compiles it.
func newRun(ctx *Ctx, op Operator) (*run, error) {
	r := &run{ctx: ctx, s: ctx.Scratch, cost: ctx.Host.Cost}
	if r.s == nil {
		r.s = &Scratch{}
	}
	if r.s.kernels == nil {
		r.s.kernels = make(map[string]*expr.BatchExpr)
	}
	var input Operator
	var es []expr.Expr
	var groupBy []int
	switch root := op.(type) {
	case *Aggregate:
		input, es, groupBy = root.Input, plan.AggExprs(root.Aggs), root.GroupBy
		r.perRow = int64(len(root.Aggs)) * r.cost.AggCycles
		r.s.groups.Reset(root.Aggs, root.Input.Schema(), root.GroupBy)
		r.groups = &r.s.groups
	case *Project:
		input, es = root.Input, plan.OutputExprs(root.Cols)
		r.perRow = r.cost.EmitCycles
		r.out = make(schema.Tuple, len(es))
	default:
		return nil, errShape
	}
	kernels, err := plan.Kernels(r.s.kernels, es...)
	if err != nil {
		return nil, err
	}
	if r.groups != nil {
		r.aggK = kernels
	} else {
		r.proj = plan.NewProjector(kernels)
	}
	for _, e := range es {
		if e != nil {
			r.perRow += int64(e.Ops()) * r.cost.OpCycles
		}
	}
	var residual expr.Expr
	if f, ok := input.(*Filter); ok {
		if _, ok := f.Input.(*HashJoin); !ok {
			return nil, errShape
		}
		k, err := plan.Kernels(r.s.kernels, f.Pred)
		if err != nil {
			return nil, err
		}
		residual, input = f.Pred, f.Input
		r.residual, r.residualCycles = k[0], int64(f.Pred.Ops())*r.cost.OpCycles
	}
	// cols are the columns the root and the residual filter read.
	cols := plan.Columns(append(es, residual), groupBy...)
	switch in := input.(type) {
	case *TableScan:
		r.scan, err = r.newScan(in, cols)
		return r, err
	case *HashJoin:
		probe, ok := in.Probe.(*TableScan)
		build, ok2 := in.Build.(*TableScan)
		if !ok || !ok2 || build.Filter != nil {
			return nil, errShape
		}
		np := probe.File.Schema().NumColumns()
		var probeCols []int
		for _, c := range cols {
			if c < np {
				probeCols = append(probeCols, c)
			}
		}
		if r.scan, err = r.newScan(probe, probeCols); err != nil {
			return nil, err
		}
		r.build, _ = r.newScan(build, nil) // no filter: nothing to compile
		// The build side outlives its pages, which the pool may recycle
		// during the probe: its CHAR values are copied.
		bf := build.File
		r.s.join.Reset(bf.Schema(), bf.Layout(), in.BuildKey, int(bf.TupleCount()), np, cols, true)
		r.join = in
		return r, nil
	}
	return nil, errShape
}

// exec runs the plan and reports its completion time.
func (r *run) exec() (time.Duration, error) {
	var end time.Duration
	var err error
	if r.join != nil {
		end, err = r.hashJoin()
	} else {
		end, err = r.drive(r.scan, r.scanPage)
	}
	if err != nil || r.groups == nil {
		return end, err
	}
	return r.emitGroups(max(end, r.ctx.takeRunMax())), nil
}

// scanPage runs the selected rows of a plain scan's page, whose charge
// completed at done, through the root: one counted charge per row.
func (r *run) scanPage(_ *page.Reader, sel []int32, done time.Duration) {
	if r.groups != nil {
		r.ctx.chargeBatchedN(r.perRow, done, len(sel))
		r.groups.FoldBatch(r.scan.cols.Batch, sel, r.aggK)
		r.ctx.Stats.Folded += int64(len(sel))
		return
	}
	r.ctx.chargeRun(r.perRow, done, len(sel))
	r.proj.Eval(r.scan.cols.Batch, sel)
	for k := range sel {
		r.emitRow(k)
	}
}

// hashJoin builds the join's hash table, then probes it with the probe
// scan, and reports the join's completion.
func (r *run) hashJoin() (time.Duration, error) {
	ctx, j := r.ctx, &r.s.join
	_, err := r.drive(r.build, func(pr *page.Reader, sel []int32, done time.Duration) {
		ctx.chargeBatchedN(r.cost.HashBuildCycles, done, len(sel))
		j.AddPage(pr)
		ctx.Stats.HashBuilds += int64(len(sel))
	})
	buildDone := ctx.takeRunMax()
	if err != nil {
		return buildDone, err
	}
	var chainEnd time.Duration
	scanEnd, err := r.drive(r.scan, func(pr *page.Reader, sel []int32, done time.Duration) {
		chainEnd = max(chainEnd, r.probePage(pr, sel, max(done, buildDone)))
	})
	end := max(chainEnd, ctx.takeRunMax())
	if err != nil {
		return end, err
	}
	return max(end, scanEnd, buildDone), nil
}

// probePage probes the selected rows of one probe page, ready at ready,
// and runs the pairs they make through the residual filter and the
// root. Filter results, folds and output values come from kernels over
// the gathered pairs; the charges are the pipeline's, in its order: per
// probed row a hit charge, or a miss counted into the run booked before
// the next hit; per pair of a hit's chain an emit charge chained from
// the previous one, then the residual filter's charge and, for a pair
// that passes it, the root's. It reports when the page's last hit
// chain completed.
func (r *run) probePage(pr *page.Reader, sel []int32, ready time.Duration) time.Duration {
	ctx, j, cost := r.ctx, &r.s.join, r.cost
	hits, _ := j.Probe(pr, r.join.ProbeKey, sel)
	b, pass := j.Gather(r.scan.cols.Batch, hits)
	if r.residual != nil {
		pass = r.residual.Select(b, pass)
	}
	if r.groups != nil {
		r.groups.FoldBatch(b, pass, r.aggK)
	} else {
		r.proj.Eval(b, pass)
	}
	pairRows := j.PairRows()
	ctx.Stats.HashProbes += int64(len(sel))
	var end time.Duration
	k, s, misses := 0, 0, 0
	for _, row := range sel {
		if k == len(pairRows) || pairRows[k] != row {
			misses++
			continue
		}
		ctx.chargeBatchedN(cost.HashProbeCycles, ready, misses)
		misses = 0
		done := ctx.charge(cost.HashProbeCycles, ready)
		for ; k < len(pairRows) && pairRows[k] == row; k++ {
			done = ctx.charge(cost.EmitCycles, done)
			ctx.Stats.RowsEmitted++
			at := done
			if r.residual != nil {
				at = ctx.charge(r.residualCycles, done)
			}
			if s == len(pass) || pass[s] != int32(k) {
				continue
			}
			if r.groups != nil {
				ctx.chargeBatched(r.perRow, at)
				ctx.Stats.Folded++
			} else {
				ctx.charge(r.perRow, at)
				r.emitRow(s)
			}
			s++
		}
		end = max(end, done)
	}
	ctx.chargeBatchedN(cost.HashProbeCycles, ready, misses)
	return end
}

// emitRow appends the k-th row of the projector's last evaluation to
// the result.
func (r *run) emitRow(k int) {
	r.proj.Row(k, r.out)
	r.rows = append(r.rows, r.arena.Clone(r.out))
}

// emitGroups emits one result row per group, in first-seen order (one
// row for a scalar aggregate, zeros over empty input), each charged
// after the last, from end, when the input completed. It reports the
// last emit's completion.
func (r *run) emitGroups(end time.Duration) time.Duration {
	out := make(schema.Tuple, r.groups.Width())
	for i := 0; i < r.groups.Rows(); i++ {
		done := r.ctx.charge(r.cost.EmitCycles, end)
		r.groups.Row(i, out)
		r.ctx.Stats.RowsEmitted++
		r.rows = append(r.rows, r.arena.Clone(out))
		end = max(end, done)
	}
	return end
}

// vecScan decodes the columns a plan reads of a TableScan's pages into
// a columnar batch and applies the scan's filter as a selection-vector
// kernel.
type vecScan struct {
	scan      *TableScan
	filter    *expr.BatchExpr // nil when the scan has no filter
	filterOps int64           // scan.Filter.Ops(), for the page charge
	cols      *page.Columns
}

// newScan plans the decode of scan's columns cols plus its filter's.
func (r *run) newScan(scan *TableScan, cols []int) (*vecScan, error) {
	v := &vecScan{scan: scan}
	if scan.Filter != nil {
		k, err := plan.Kernels(r.s.kernels, scan.Filter)
		if err != nil {
			return nil, err
		}
		v.filter, v.filterOps = k[0], int64(scan.Filter.Ops())
		cols = expr.AppendDistinctColumns(cols, scan.Filter)
	}
	v.cols = page.NewColumns(scan.File.Schema(), scan.File.Layout(), cols, &r.s.vec)
	return v, nil
}

// drive scans v's pages. Each page gets the pipeline's page charge —
// page setup, per-tuple iteration and per-tuple filter evaluation at
// the filter's static operator count — and its stats, and then body
// runs over its selection with the charge's completion. drive reports
// the scan's end: its last page charge or I/O completion, whichever is
// later.
func (r *run) drive(v *vecScan, body func(*page.Reader, []int32, time.Duration)) (time.Duration, error) {
	ctx, cost := r.ctx, r.cost
	var end time.Duration
	ioEnd, err := v.scan.drivePages(ctx, func(pr *page.Reader, arrival time.Duration) error {
		n := int64(pr.Count())
		done := ctx.charge(cost.PageCycles+n*(cost.TupleCycles+v.filterOps*cost.OpCycles), arrival)
		end = max(end, done)
		ctx.Stats.PagesRead++
		ctx.Stats.RowsScanned += n
		sel := v.cols.Decode(pr)
		if v.filter != nil {
			sel = v.filter.Select(v.cols.Batch, sel)
		}
		ctx.Stats.RowsEmitted += int64(len(sel))
		body(pr, sel, done)
		return nil
	})
	return max(end, ioEnd), err
}
