package exec

import (
	"fmt"
	"time"

	"smartssd/internal/bufpool"
	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// readerRow adapts one tuple inside a bound page to expr.Row, so
// predicates evaluate without materializing the tuple. It is passed by
// pointer so the expr.Row conversion never heap-allocates per tuple.
type readerRow struct {
	r *page.Reader
	i int
}

func (rr *readerRow) Col(c int) schema.Value { return rr.r.Column(rr.i, c) }

// TableScan reads a heap file sequentially through the host I/O path,
// optionally applying a predicate as pages arrive (SQL Server's scan +
// residual predicate). When Pool is set, cached pages are served from
// the buffer pool without device I/O, and pages read from the device are
// inserted into the pool — the host-side advantage the paper's §4.3
// weighs against pushdown.
type TableScan struct {
	File   *heap.File
	Filter expr.Expr     // optional
	Pool   *bufpool.Pool // optional
	// From and Count restrict the scan to a page subrange; a zero Count
	// scans from From to the end of the file. Partial scans are how
	// hybrid execution splits a table between host and device.
	From  int64
	Count int64
}

// scanRange reports the page range [from, from+n) this scan covers.
func (t *TableScan) scanRange() (int64, int64) {
	from := t.From
	n := t.Count
	if n <= 0 {
		n = t.File.Pages() - from
	}
	if n < 0 {
		n = 0
	}
	return from, n
}

// Schema implements Operator.
func (t *TableScan) Schema() *schema.Schema { return t.File.Schema() }

// Children implements Operator.
func (t *TableScan) Children() []Operator { return nil }

// Explain implements Operator.
func (t *TableScan) Explain() string {
	from, n := t.scanRange()
	s := fmt.Sprintf("TableScan(%s, %v, pages %d-%d)", t.File.Name(), t.File.Layout(), from, from+n)
	if t.Filter != nil {
		s += " filter " + t.Filter.String()
	}
	return s
}

// Run implements Operator.
func (t *TableScan) Run(ctx *Ctx, emit Emit) (time.Duration, error) {
	var end time.Duration
	var out schema.Tuple
	cost := ctx.Host.Cost

	rr := &readerRow{}
	process := func(r *page.Reader, arrival time.Duration) error {
		n := int64(r.Count())
		cycles := cost.PageCycles + n*cost.TupleCycles
		if t.Filter != nil {
			cycles += n * int64(t.Filter.Ops()) * cost.OpCycles
		}
		done := ctx.charge(cycles, arrival)
		if done > end {
			end = done
		}
		ctx.Stats.PagesRead++
		ctx.Stats.RowsScanned += n
		rr.r = r
		for i := 0; i < r.Count(); i++ {
			rr.i = i
			if t.Filter != nil && t.Filter.Eval(rr).Int == 0 {
				continue
			}
			out = r.Tuple(out, i)
			ctx.Stats.RowsEmitted++
			if err := emit(out, done); err != nil {
				return err
			}
		}
		return nil
	}

	ioEnd, err := t.drivePages(ctx, process)
	if err != nil {
		return end, err
	}
	if ioEnd > end {
		end = ioEnd
	}
	return end, nil
}

// drivePages iterates the scan's pages in order — through the buffer
// pool when one is attached, direct sequential range reads otherwise —
// invoking process for each bound page with its arrival time. It
// returns the I/O-side completion time (the last page arrival, raised
// to the host CPU horizon on the pool path); charge-side completion
// times are tracked by the process callback. Both the scalar and
// vectorized scan paths share this driver, so caching and I/O timing
// behave identically.
func (t *TableScan) drivePages(ctx *Ctx, process func(*page.Reader, time.Duration) error) (time.Duration, error) {
	if t.Pool == nil {
		from, n := t.scanRange()
		return t.File.ScanRange(from, n, 0, process)
	}
	return t.runWithPool(ctx, process)
}

// runWithPool scans page by page, serving buffer-pool hits without
// device I/O and reading uncached runs with sequential range reads.
func (t *TableScan) runWithPool(ctx *Ctx, process func(*page.Reader, time.Duration) error) (time.Duration, error) {
	var end time.Duration
	from, n := t.scanRange()
	pages := from + n
	r := page.ReaderFor(t.File.Schema())
	for idx := from; idx < pages; {
		lba := t.File.StartLBA() + idx
		if data, hit := t.Pool.Get(lba); hit {
			// Cached: page is host-resident already; only CPU time.
			if err := r.Bind(data); err != nil {
				t.Pool.Unpin(lba, false)
				return end, err
			}
			err := process(r, 0)
			if uerr := t.Pool.Unpin(lba, false); uerr != nil {
				return end, uerr
			}
			if err != nil {
				return end, err
			}
			if h := ctx.Host.CPU.Horizon(); h > end {
				end = h
			}
			idx++
			continue
		}
		// Find the uncached run starting here.
		runLen := int64(1)
		for idx+runLen < pages && !t.Pool.Contains(t.File.StartLBA()+idx+runLen) {
			runLen++
		}
		last, err := t.File.ScanRange(idx, runLen, 0, func(pr *page.Reader, at time.Duration) error {
			if err := process(pr, at); err != nil {
				return err
			}
			// Warm the pool; ignore ErrAllPinned-style failures: caching
			// is best-effort and must not fail the scan. The frame
			// borrows the device's immutable page buffer, so warming
			// allocates nothing per page.
			plba := t.File.StartLBA() + int64(pr.PageNo())
			if err := t.Pool.PutBorrowed(plba, pr.Data()); err == nil {
				t.Pool.Unpin(plba, false)
			}
			return nil
		})
		if err != nil {
			return end, err
		}
		if last > end {
			end = last
		}
		idx += runLen
	}
	if h := ctx.Host.CPU.Horizon(); h > end {
		end = h
	}
	return end, nil
}

// Filter drops input tuples failing a predicate.
type Filter struct {
	Input Operator
	Pred  expr.Expr
}

// Schema implements Operator.
func (f *Filter) Schema() *schema.Schema { return f.Input.Schema() }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.Input} }

// Explain implements Operator.
func (f *Filter) Explain() string { return "Filter " + f.Pred.String() }

// Run implements Operator.
func (f *Filter) Run(ctx *Ctx, emit Emit) (time.Duration, error) {
	ops := int64(f.Pred.Ops())
	cost := ctx.Host.Cost
	var row expr.TupleRow // hoisted so Eval's Row conversion never allocates
	return f.Input.Run(ctx, func(t schema.Tuple, at time.Duration) error {
		done := ctx.charge(ops*cost.OpCycles, at)
		row = expr.TupleRow(t)
		if f.Pred.Eval(&row).Int == 0 {
			return nil
		}
		return emit(t, done)
	})
}

// OutputCol aliases the shared projected-column spec.
type OutputCol = plan.OutputCol

// Project computes derived output tuples.
type Project struct {
	Input Operator
	Cols  []OutputCol

	out *schema.Schema
}

// Schema implements Operator.
func (p *Project) Schema() *schema.Schema {
	if p.out == nil {
		p.out = plan.ProjectSchema(p.Input.Schema(), p.Cols)
	}
	return p.out
}

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.Input} }

// Explain implements Operator.
func (p *Project) Explain() string {
	s := "Project("
	for i, c := range p.Cols {
		if i > 0 {
			s += ", "
		}
		s += c.Name + "=" + c.E.String()
	}
	return s + ")"
}

// Run implements Operator.
func (p *Project) Run(ctx *Ctx, emit Emit) (time.Duration, error) {
	var ops int64
	for _, c := range p.Cols {
		ops += int64(c.E.Ops())
	}
	cost := ctx.Host.Cost
	out := make(schema.Tuple, len(p.Cols))
	var row expr.TupleRow
	return p.Input.Run(ctx, func(t schema.Tuple, at time.Duration) error {
		done := ctx.charge(ops*cost.OpCycles+cost.EmitCycles, at)
		row = expr.TupleRow(t)
		for i, c := range p.Cols {
			out[i] = c.E.Eval(&row)
		}
		return emit(out, done)
	})
}

// HashJoin is the paper's "simple hash join": the build side is read
// fully into an in-memory hash table (it must fit — |R| is small), then
// the probe side streams. Output tuples are probe columns followed by
// build columns.
type HashJoin struct {
	Build    Operator
	Probe    Operator
	BuildKey int // column index in Build's schema
	ProbeKey int // column index in Probe's schema

	out *schema.Schema
}

// Schema implements Operator.
func (j *HashJoin) Schema() *schema.Schema {
	if j.out == nil {
		j.out = schema.Concat(j.Probe.Schema(), j.Build.Schema(), "_r")
	}
	return j.out
}

// Children implements Operator.
func (j *HashJoin) Children() []Operator { return []Operator{j.Build, j.Probe} }

// Explain implements Operator.
func (j *HashJoin) Explain() string {
	return fmt.Sprintf("HashJoin(build.%s = probe.%s)",
		j.Build.Schema().Column(j.BuildKey).Name, j.Probe.Schema().Column(j.ProbeKey).Name)
}

// hashTable is a join's build side: the build tuples, filed under
// their join keys in a KeyTable so duplicate keys chain in insertion
// order.
type hashTable struct {
	keys schema.KeyTable
	rows []schema.Tuple
}

// runBuild reads the build side fully into the in-memory hash table and
// returns it with the build phase's completion barrier. Shared by the
// scalar Run and the vectorized probe wrapper, so both phases charge
// identically.
func (j *HashJoin) runBuild(ctx *Ctx) (*hashTable, time.Duration, error) {
	cost := ctx.Host.Cost
	// Build tuples are retained for the whole probe phase; an arena
	// batches their backing allocations instead of one per tuple. A
	// reused engine supplies a resettable scratch arena and table so
	// steady-state builds allocate nothing.
	var local schema.TupleArena
	arena, ht := &local, &hashTable{}
	if ctx.Scratch != nil {
		arena, ht = &ctx.Scratch.build, &ctx.Scratch.join
	}
	ht.keys.Reset(1)
	ht.rows = ht.rows[:0]
	// An unfiltered full-table build side has a known cardinality:
	// reserve the table and the value slots up front so neither walks
	// its doubling ladder.
	if ts, ok := j.Build.(*TableScan); ok && ts.Filter == nil && ts.From == 0 && ts.Count == 0 {
		n := int(ts.File.TupleCount())
		ht.keys.Reserve(n)
		arena.Reserve(n*ts.File.Schema().NumColumns(), 0)
	}
	// Build-side inserts are identical charges at page-granular ready
	// times; batch them and take the phase maximum at the barrier.
	_, err := j.Build.Run(ctx, func(t schema.Tuple, at time.Duration) error {
		ctx.chargeBatched(cost.HashBuildCycles, at)
		ht.keys.AddRow1(uint64(t[j.BuildKey].Int))
		ht.rows = append(ht.rows, arena.Clone(t))
		ctx.Stats.HashBuilds++
		return nil
	})
	return ht, ctx.takeRunMax(), err
}

// Run implements Operator.
func (j *HashJoin) Run(ctx *Ctx, emit Emit) (time.Duration, error) {
	cost := ctx.Host.Cost
	ht, buildDone, err := j.runBuild(ctx)
	if err != nil {
		return buildDone, err
	}

	nb := j.Build.Schema().NumColumns()
	np := j.Probe.Schema().NumColumns()
	out := make(schema.Tuple, np+nb)
	var end time.Duration
	last, err := j.Probe.Run(ctx, func(t schema.Tuple, at time.Duration) error {
		ready := at
		if buildDone > ready {
			ready = buildDone
		}
		ctx.Stats.HashProbes++
		b := ht.keys.Chain1(uint64(t[j.ProbeKey].Int))
		if b < 0 {
			// Non-matching probes need no per-tuple completion time:
			// batch their identical charges and fold the phase maximum
			// into end below.
			ctx.chargeBatched(cost.HashProbeCycles, ready)
			return nil
		}
		done := ctx.charge(cost.HashProbeCycles, ready)
		for ; b >= 0; b = ht.keys.Next(b) {
			done = ctx.charge(cost.EmitCycles, done)
			copy(out, t)
			copy(out[np:], ht.rows[b])
			ctx.Stats.RowsEmitted++
			if err := emit(out, done); err != nil {
				return err
			}
		}
		if done > end {
			end = done
		}
		return nil
	})
	if m := ctx.takeRunMax(); m > end {
		end = m
	}
	if err != nil {
		return end, err
	}
	if last > end {
		end = last
	}
	if buildDone > end {
		end = buildDone
	}
	return end, nil
}

// AggKind and AggSpec alias the shared aggregate specs.
type (
	AggKind = plan.AggKind
	AggSpec = plan.AggSpec
)

// Aggregate functions, re-exported for plan construction convenience.
const (
	Sum   = plan.Sum
	Count = plan.Count
	Min   = plan.Min
	Max   = plan.Max
)

// Aggregate folds input tuples into per-group aggregates (a scalar
// aggregate when GroupBy is empty) and emits results after the input
// completes.
type Aggregate struct {
	Input   Operator
	GroupBy []int // column indexes in Input's schema
	Aggs    []AggSpec

	out *schema.Schema
}

// Schema implements Operator.
func (a *Aggregate) Schema() *schema.Schema {
	if a.out == nil {
		a.out = plan.AggSchema(a.Input.Schema(), a.GroupBy, a.Aggs)
	}
	return a.out
}

// Children implements Operator.
func (a *Aggregate) Children() []Operator { return []Operator{a.Input} }

// Explain implements Operator.
func (a *Aggregate) Explain() string {
	s := "Aggregate("
	for i, spec := range a.Aggs {
		if i > 0 {
			s += ", "
		}
		if spec.Kind == Count {
			s += "COUNT(*)"
		} else {
			s += fmt.Sprintf("%v(%s)", spec.Kind, spec.E)
		}
	}
	if len(a.GroupBy) > 0 {
		s += fmt.Sprintf(" groupby %v", a.GroupBy)
	}
	return s + ")"
}

// Run implements Operator.
func (a *Aggregate) Run(ctx *Ctx, emit Emit) (time.Duration, error) {
	cost := ctx.Host.Cost
	var ops int64
	for _, s := range a.Aggs {
		if s.E != nil {
			ops += int64(s.E.Ops())
		}
	}
	perTuple := ops*cost.OpCycles + int64(len(a.Aggs))*cost.AggCycles

	groups := ctx.groups(a)
	var row expr.TupleRow
	last, err := a.Input.Run(ctx, func(t schema.Tuple, at time.Duration) error {
		// Fold-in charges are identical for every tuple of a page (same
		// cycles, same arrival), so they batch into one closed-form CPU
		// reservation per page; the fold itself happens immediately.
		ctx.chargeBatched(perTuple, at)
		row = expr.TupleRow(t)
		groups.FoldRow(groups.GroupRow(&row), &row)
		ctx.Stats.Folded++
		return nil
	})
	end := ctx.takeRunMax()
	if err != nil {
		return end, err
	}
	return emitGroups(ctx, groups, max(end, last), emit)
}

// groups returns the aggregate's group table, empty: the engine's
// scratch one when the context has scratch, a fresh one otherwise.
func (c *Ctx) groups(a *Aggregate) *plan.Groups {
	if c.Scratch == nil {
		return plan.NewGroups(a.Aggs, a.Input.Schema(), a.GroupBy)
	}
	c.Scratch.groups.Reset(a.Aggs, a.Input.Schema(), a.GroupBy)
	return &c.Scratch.groups
}

// emitGroups emits one result row per group, in first-seen order (one
// row for a scalar aggregate, zeros over empty input), from end, when
// the input completed. It reports the last emit's completion.
func emitGroups(ctx *Ctx, groups *plan.Groups, end time.Duration, emit Emit) (time.Duration, error) {
	out := make(schema.Tuple, groups.Width())
	for i := 0; i < groups.Rows(); i++ {
		done := ctx.charge(ctx.Host.Cost.EmitCycles, end)
		groups.Row(i, out)
		ctx.Stats.RowsEmitted++
		if err := emit(out, done); err != nil {
			return end, err
		}
		end = max(end, done)
	}
	return end, nil
}

// Collect runs op and returns all output tuples (deep-copied into an
// arena owned by the result) and the run's completion time — the
// standard way tests and the harness consume a plan.
func Collect(ctx *Ctx, op Operator) ([]schema.Tuple, time.Duration, error) {
	var rows []schema.Tuple
	var arena schema.TupleArena
	sink := func(t schema.Tuple, _ time.Duration) error {
		rows = append(rows, arena.Clone(t))
		return nil
	}
	end, err, vectorized := runVectorized(ctx, op, sink)
	if !vectorized {
		end, err = op.Run(ctx, sink)
	}
	// Safety barrier: a well-formed operator takes its own batched runs
	// at its phase boundaries, but flush here so no charge can outlive
	// the run even if a future operator forgets.
	if m := ctx.takeRunMax(); m > end {
		end = m
	}
	return rows, end, err
}
