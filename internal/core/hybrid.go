package core

import (
	"fmt"

	"smartssd/internal/device"
	"smartssd/internal/exec"
	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/opt"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// Hybrid execution realizes §4.3's partial-pushdown remark ("we may
// still want to process ... part of the query inside the Smart SSD"):
// the scanned table is split by pages, the device program processes the
// first fraction while the host processes the rest concurrently, and
// the host merges partial results.
//
// Both paths share the flash channels and DMA bus (the simulator models
// the contention), but each brings its own compute: the embedded CPU on
// one side, the host link + host CPU on the other. For a CPU-saturated
// pushdown like Q6 the combined throughput approaches the sum of the
// two paths — about 2.7x over the host baseline, versus 1.7x for pure
// pushdown — until the shared DMA bus (2.8x) caps it.

// hybridSplit reports the fraction of pages the device should take:
// the equalizing split f = hostCost / (hostCost + deviceCost), so both
// sides finish together under the planner's estimates.
func (e *Engine) hybridSplit(dq device.Query, estSel float64) float64 {
	d := e.planner.Decide(dq, e.ssd, nil, estSel)
	h, dv := float64(d.HostCost), float64(d.DeviceCost)
	if h <= 0 || dv <= 0 {
		return 0.5
	}
	f := h / (h + dv)
	if f < 0.05 {
		f = 0.05
	}
	if f > 0.95 {
		f = 0.95
	}
	return f
}

// runHybrid executes q, an SSD-resident query whose whole-table
// program is dq, split across device and host. Joins replicate the
// build to both sides (the build table is small by the query-class
// assumption).
func (e *Engine) runHybrid(q *resolved[*heap.File], dq device.Query) (*Result, error) {
	f := e.hybridSplit(dq, q.EstSelectivity)
	pages := q.main.Pages()
	devPages := int64(float64(pages) * f)
	if devPages < 1 {
		devPages = 1
	}
	if devPages >= pages {
		devPages = pages - 1
	}

	// Device side: the leading page range.
	dq.Table.Pages = devPages
	win := e.faultWindow()
	devRows, devEnd, err := e.runtime.RunPartial(dq)
	if err != nil {
		// A device fault on the split's device half degrades the whole
		// query to the pure host path rather than losing its partition.
		if isDeviceFault(err) && !e.cfg.DisableFallback {
			res, herr := e.runHost(q)
			if herr != nil {
				return nil, fmt.Errorf("core: host fallback after %v: %w", err, herr)
			}
			res.Faults.DeviceAttempts = 1
			res.Faults.HostFallback = true
			res.Faults.FallbackReason = faultReason(err)
			res.Elapsed += win.diff(e, &res.Faults)
			return res, nil
		}
		return nil, fmt.Errorf("core: hybrid device side: %w", err)
	}

	// Host side: the trailing range, on the same timeline (its flash
	// fetches queue against the device program's on the shared bus).
	hostOp := e.hostPlan(q)
	setScanRange(hostOp, q.main.Name(), devPages, pages-devPages)
	ctx := e.newExecCtx()
	hostRows, hostEnd, err := exec.Collect(ctx, hostOp)
	if err != nil {
		return nil, fmt.Errorf("core: hybrid host side: %w", err)
	}
	if len(q.Aggs) > 0 && len(q.GroupBy) == 0 && ctx.Stats.Folded == 0 {
		hostRows = nil // a scalar aggregate over no rows has nothing to merge
	}

	res := &Result{
		Schema:    dq.OutputSchema(),
		Placement: RanHybrid,
		Decision: opt.Decision{Reason: fmt.Sprintf(
			"hybrid split: device %.0f%% of pages, host %.0f%%", 100*f, 100*(1-f))},
		HostStats:            ctx.Stats,
		HybridDeviceFraction: f,
	}
	res.Elapsed = devEnd
	if hostEnd > res.Elapsed {
		res.Elapsed = hostEnd
	}
	if len(q.Aggs) > 0 {
		res.Rows = mergeAggRows(q.Aggs, res.Schema, len(q.GroupBy), devRows, hostRows)
	} else {
		res.Rows = append(devRows, hostRows...)
	}
	e.finishMetrics(res, OnSSD)
	res.Faults.DeviceAttempts = 1
	res.Elapsed += win.diff(e, &res.Faults)
	return res, nil
}

// mergeAggRows folds partial aggregate rows — group values, then
// aggregate values, under schema out (nil without group columns) —
// into one row per group, in first-seen order: partial sums and counts
// add, mins and maxes fold.
// A scalar aggregate merges to exactly one row, zeros when no partial
// has one; a share that matched no rows must contribute none (see
// device.Runtime.RunPartial).
func mergeAggRows(aggs []plan.AggSpec, out *schema.Schema, nGroup int, partials ...[]schema.Tuple) []schema.Tuple {
	groupBy := make([]int, nGroup)
	for i := range groupBy {
		groupBy[i] = i
	}
	g := plan.NewGroups(plan.PartialAggs(aggs), out, groupBy)
	var row expr.TupleRow
	for _, rows := range partials {
		for _, r := range rows {
			row = expr.TupleRow(r)
			id := g.GroupRow(&row)
			for i := range aggs {
				g.FoldValue(id, i, r[nGroup+i].Int)
			}
		}
	}
	w := g.Width()
	vals := make([]schema.Value, g.Rows()*w)
	merged := make([]schema.Tuple, g.Rows())
	for i := range merged {
		merged[i] = vals[i*w : (i+1)*w : (i+1)*w]
		g.Row(i, merged[i])
	}
	return merged
}

// setScanRange finds the TableScan over the named file in an operator
// tree and restricts it to [from, from+count).
func setScanRange(op exec.Operator, file string, from, count int64) {
	if ts, ok := op.(*exec.TableScan); ok {
		if ts.File.Name() == file {
			ts.From, ts.Count = from, count
		}
		return
	}
	for _, c := range op.Children() {
		setScanRange(c, file, from, count)
	}
}
