// Package opt implements the pushdown decision the paper lists as a key
// research problem (§4.3, §5): given a query in the supported class,
// should it run on the host ("the usual way") or inside the Smart SSD?
//
// The planner mirrors the simulator's pipeline model analytically:
//
//	hostCost   = uncachedBytes / hostLinkBW            (link-bound scan)
//	deviceCost = max(bytes / internalBW,               (flash + DMA)
//	             cpuCycles / (cores x clock),          (embedded CPU)
//	             resultBytes / hostLinkBW)             (result shipping)
//
// and applies two vetoes from the paper's discussion:
//
//   - Coherence: if the buffer pool holds dirty pages of any table the
//     query touches, the device copy is stale and pushdown is incorrect.
//   - Caching: if a large fraction of the input is already cached in
//     the buffer pool, the host path skips that I/O entirely and
//     pushdown wastes the cache.
//
// The memory grant is checked, too: a build table that does not fit in
// device DRAM forces host execution.
package opt

import (
	"fmt"
	"time"

	"smartssd/internal/bufpool"
	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/sim"
	"smartssd/internal/ssd"
)

// Decision is the planner's verdict with its cost evidence.
type Decision struct {
	// Pushdown reports whether the query should run inside the device.
	Pushdown bool
	// Reason is a one-line human-readable justification.
	Reason string
	// HostCost and DeviceCost are the estimated elapsed times; both are
	// zero when a veto decided without costing.
	HostCost   time.Duration
	DeviceCost time.Duration
	// HybridCost estimates the §4.3 partial-pushdown split: host and
	// device each process a slice concurrently, so their rates add,
	// floored by the time to move the whole input over the internal bus.
	HybridCost time.Duration
}

// String renders the decision for EXPLAIN output.
func (d Decision) String() string {
	mode := "host"
	if d.Pushdown {
		mode = "device"
	}
	return fmt.Sprintf("%s (host est %.2fs, device est %.2fs): %s",
		mode, d.HostCost.Seconds(), d.DeviceCost.Seconds(), d.Reason)
}

// Evidence renders the decision's full cost ledger for EXPLAIN output,
// one line per estimate plus the verdict. Vetoed decisions (coherence,
// DRAM grant, warm cache) carry no costs; the veto reason is the whole
// story.
func (d Decision) Evidence() string {
	choice := "host"
	if d.Pushdown {
		choice = "device"
	}
	if d.HostCost == 0 && d.DeviceCost == 0 {
		return fmt.Sprintf("  veto: %s\n  choice: %s\n", d.Reason, choice)
	}
	return fmt.Sprintf("  host cost:   %.4fs (uncached bytes over host link)\n"+
		"  device cost: %.4fs (max of flash+DMA fetch, embedded CPU, result shipping)\n"+
		"  hybrid cost: %.4fs (equalizing split, floored by the internal bus)\n"+
		"  choice: %s (%s)\n",
		d.HostCost.Seconds(), d.DeviceCost.Seconds(), d.HybridCost.Seconds(),
		choice, d.Reason)
}

// Planner decides host-versus-device execution.
type Planner struct {
	// Cost is the embedded-CPU cost model used for device estimates.
	Cost device.CostModel
	// CacheCutoff is the cached input fraction above which host
	// execution is preferred regardless of cost (default 0.5).
	CacheCutoff float64
}

// NewPlanner builds a planner over the device cost model.
func NewPlanner(cost device.CostModel) *Planner {
	return &Planner{Cost: cost, CacheCutoff: 0.5}
}

// Decide estimates both paths for query q on dev. estSel is the
// estimated fraction of scanned tuples reaching the output stage (used
// for result-volume and per-match cost estimates); pool may be nil when
// the host runs without a buffer pool.
func (p *Planner) Decide(q device.Query, dev *ssd.Device, pool *bufpool.Pool, estSel float64) Decision {
	if estSel <= 0 {
		estSel = 0.1
	}
	if estSel > 1 {
		estSel = 1
	}

	// Veto 1: stale device copies.
	if pool != nil {
		if pool.HasDirtyInRange(q.Table.StartLBA, q.Table.Pages) {
			return Decision{Pushdown: false, Reason: "buffer pool holds dirty pages of " + q.Table.Name}
		}
		if q.Join != nil && pool.HasDirtyInRange(q.Join.Build.StartLBA, q.Join.Build.Pages) {
			return Decision{Pushdown: false, Reason: "buffer pool holds dirty pages of " + q.Join.Build.Name}
		}
	}

	// Veto 2: device DRAM grant.
	if need := MemoryNeed(q, p.Cost); need > dev.DeviceDRAMBytes() {
		return Decision{Pushdown: false,
			Reason: fmt.Sprintf("hash build needs %d MB, device DRAM is %d MB",
				need>>20, dev.DeviceDRAMBytes()>>20)}
	}

	// Veto 3: a warm buffer pool favours the host.
	var cachedFrac float64
	totalPages := q.Table.Pages
	if q.Join != nil {
		totalPages += q.Join.Build.Pages
	}
	if pool != nil && totalPages > 0 {
		cached := pool.CachedInRange(q.Table.StartLBA, q.Table.Pages)
		if q.Join != nil {
			cached += pool.CachedInRange(q.Join.Build.StartLBA, q.Join.Build.Pages)
		}
		cachedFrac = float64(cached) / float64(totalPages)
		if cachedFrac >= p.CacheCutoff {
			return Decision{Pushdown: false,
				Reason: fmt.Sprintf("%.0f%% of input already cached in buffer pool", 100*cachedFrac)}
		}
	}

	host := p.hostEstimate(q, dev, cachedFrac)
	devCost := p.deviceEstimate(q, dev, estSel)
	d := Decision{HostCost: host, DeviceCost: devCost, HybridCost: p.hybridEstimate(q, dev, host, devCost)}
	if devCost < host {
		d.Pushdown = true
		d.Reason = fmt.Sprintf("device %.1fx cheaper", float64(host)/float64(devCost))
	} else {
		d.Reason = fmt.Sprintf("host %.1fx cheaper", float64(devCost)/float64(host))
	}
	return d
}

// MemoryNeed reports the device DRAM bytes query q requires (result
// staging plus the join hash table).
func MemoryNeed(q device.Query, cost device.CostModel) int64 {
	var need int64 = device.DefaultChunkBytes * 2
	if q.Join != nil {
		buildTuples := q.Join.Build.Pages * int64(page.Capacity(q.Join.Build.Schema, q.Join.Build.Layout))
		need += buildTuples * (int64(q.Join.Build.Schema.TupleWidth()) + cost.HashEntryBytes)
	}
	return need
}

// hybridEstimate prices the equalizing host+device split: with full
// costs h and d, splitting fraction f = h/(h+d) to the device makes
// both sides finish at h*d/(h+d); the shared internal bus floors it.
func (p *Planner) hybridEstimate(q device.Query, dev *ssd.Device, host, devCost time.Duration) time.Duration {
	if host <= 0 || devCost <= 0 {
		return 0
	}
	combined := time.Duration(float64(host) * float64(devCost) / float64(host+devCost))
	ps := int64(dev.PageSize())
	bytes := q.Table.Pages * ps
	if q.Join != nil {
		bytes += q.Join.Build.Pages * ps
	}
	if floor := dev.Params().DMABusRate.ServiceTime(bytes); floor > combined {
		combined = floor
	}
	return combined
}

// hostEstimate prices the host path: uncached input over the host link
// (the paper's 550 MB/s straw); host CPU is never the bottleneck on the
// testbed for this query class.
func (p *Planner) hostEstimate(q device.Query, dev *ssd.Device, cachedFrac float64) time.Duration {
	ps := int64(dev.PageSize())
	bytes := q.Table.Pages * ps
	if q.Join != nil {
		bytes += q.Join.Build.Pages * ps
	}
	uncached := float64(bytes) * (1 - cachedFrac)
	return dev.Params().Host.EffectiveRate.ServiceTime(int64(uncached))
}

// deviceEstimate prices the pushdown path as the max of its three
// pipeline stages.
func (p *Planner) deviceEstimate(q device.Query, dev *ssd.Device, estSel float64) time.Duration {
	ps := int64(dev.PageSize())
	params := dev.Params()
	c := p.Cost

	// Stage 1: flash to device DRAM over the shared bus.
	bytes := q.Table.Pages * ps
	if q.Join != nil {
		bytes += q.Join.Build.Pages * ps
	}
	fetch := params.DMABusRate.ServiceTime(bytes)

	// Stage 2: embedded CPU.
	perPage := int64(page.Capacity(q.Table.Schema, q.Table.Layout))
	tuples := q.Table.Pages * perPage
	var cycles int64
	cycles += q.Table.Pages * c.PageCycles
	perTuple := c.TupleCycles
	if q.Join != nil {
		perTuple += p.valueCycles(q.Table.Layout) + c.HashProbeCycles
	}
	if q.Filter != nil {
		perTuple += exprCycles(q.Filter, q.Table.Layout, c)
	}
	cycles += tuples * perTuple
	outWidth := int64(q.OutputSchema().TupleWidth())
	matched := int64(float64(tuples) * estSel)
	var perMatch int64
	for _, o := range q.Output {
		perMatch += exprCycles(o.E, q.Table.Layout, c)
	}
	for _, a := range q.Aggs {
		if a.E != nil {
			perMatch += exprCycles(a.E, q.Table.Layout, c)
		}
		perMatch += c.AggCycles
	}
	if len(q.Output) > 0 {
		perMatch += c.ResultTupleCycles + outWidth*c.ResultByteCycles
	}
	cycles += matched * perMatch
	if q.Join != nil {
		buildTuples := q.Join.Build.Pages * int64(page.Capacity(q.Join.Build.Schema, q.Join.Build.Layout))
		cycles += q.Join.Build.Pages*c.PageCycles +
			buildTuples*(c.TupleCycles+p.valueCycles(q.Join.Build.Layout)+c.HashBuildCycles)
	}
	aggRate := sim.Rate(float64(params.DeviceCPUHz) * float64(params.DeviceCPUCores))
	compute := aggRate.ServiceTime(cycles)

	// Stage 3: result shipping.
	var resultBytes int64
	if len(q.Output) > 0 {
		resultBytes = matched * outWidth
	} else {
		resultBytes = outWidth
	}
	ship := params.Host.EffectiveRate.ServiceTime(resultBytes)

	worst := fetch
	if compute > worst {
		worst = compute
	}
	if ship > worst {
		worst = ship
	}
	return worst
}

func (p *Planner) valueCycles(l page.Layout) int64 {
	if l == page.PAX {
		return p.Cost.PAXValueCycles
	}
	return p.Cost.NSMValueCycles
}

func exprCycles(e expr.Expr, l page.Layout, c device.CostModel) int64 {
	if e == nil {
		return 0
	}
	v := c.PAXValueCycles
	if l != page.PAX {
		v = c.NSMValueCycles
	}
	return int64(e.Ops())*c.OpCycles + int64(len(expr.DistinctColumns(e)))*v
}
