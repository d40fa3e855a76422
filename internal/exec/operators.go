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

// drivePages iterates the scan's pages in order — through the buffer
// pool when one is attached, direct sequential range reads otherwise —
// invoking process for each bound page with its arrival time. It
// returns the I/O-side completion time (the last page arrival, raised
// to the host CPU horizon on the pool path); charge-side completion
// times are tracked by the process callback.
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
			// Cached: page is host-resident already; only CPU time. A
			// frame that borrows the device's stored buffer shares its
			// checksum record; an owned copy is checked in full.
			if err := r.BindStored(t.File.Device(), lba, data); err != nil {
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

// HashJoin is the paper's "simple hash join": the build side is read
// fully into an in-memory hash table (it must fit — |R| is small), then
// the probe side streams. Output tuples are probe columns followed by
// build columns. Both sides are TableScans; the build side has no
// filter.
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
