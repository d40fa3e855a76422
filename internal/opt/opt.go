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
// where cpuCycles is device.Query.Cycles over estimated counts: the
// same formula the device program charges, so the CPU term can be
// wrong only where the counts are. The planner applies two vetoes from
// the paper's discussion:
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

// choice names the chosen backend.
func (d Decision) choice() string {
	if d.Pushdown {
		return "device"
	}
	return "host"
}

// String renders the decision for EXPLAIN output.
func (d Decision) String() string {
	return fmt.Sprintf("%s (host est %.2fs, device est %.2fs): %s",
		d.choice(), d.HostCost.Seconds(), d.DeviceCost.Seconds(), d.Reason)
}

// Evidence renders the decision's full cost ledger for EXPLAIN output,
// one line per estimate plus the verdict. Vetoed decisions (coherence,
// DRAM grant, warm cache) carry no costs; the veto reason is the whole
// story.
func (d Decision) Evidence() string {
	if d.HostCost == 0 && d.DeviceCost == 0 {
		return fmt.Sprintf("  veto: %s\n  choice: %s\n", d.Reason, d.choice())
	}
	return fmt.Sprintf("  host cost:   %.4fs (uncached bytes over host link)\n"+
		"  device cost: %.4fs (max of flash+DMA fetch, embedded CPU, result shipping)\n"+
		"  hybrid cost: %.4fs (equalizing split, floored by the internal bus)\n"+
		"  choice: %s (%s)\n",
		d.HostCost.Seconds(), d.DeviceCost.Seconds(), d.HybridCost.Seconds(),
		d.choice(), d.Reason)
}

// cacheCutoff is the cached input fraction above which host execution
// is preferred regardless of cost.
const cacheCutoff = 0.5

// Planner decides host-versus-device execution.
type Planner struct {
	// Cost is the embedded-CPU cost model used for device estimates.
	Cost device.CostModel
}

// NewPlanner builds a planner over the device cost model.
func NewPlanner(cost device.CostModel) *Planner {
	return &Planner{Cost: cost}
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
	if need := q.MemoryNeed(p.Cost); need > dev.DeviceDRAMBytes() {
		return Decision{Pushdown: false,
			Reason: fmt.Sprintf("hash build needs %d MB, device DRAM is %d MB",
				need>>20, dev.DeviceDRAMBytes()>>20)}
	}

	// Veto 3: a warm buffer pool favours the host.
	pages := q.Table.Pages
	if q.Join != nil {
		pages += q.Join.Build.Pages
	}
	var cachedFrac float64
	if pool != nil && pages > 0 {
		cached := pool.CachedInRange(q.Table.StartLBA, q.Table.Pages)
		if q.Join != nil {
			cached += pool.CachedInRange(q.Join.Build.StartLBA, q.Join.Build.Pages)
		}
		cachedFrac = float64(cached) / float64(pages)
		if cachedFrac >= cacheCutoff {
			return Decision{Pushdown: false,
				Reason: fmt.Sprintf("%.0f%% of input already cached in buffer pool", 100*cachedFrac)}
		}
	}

	// The host path moves the uncached input over the host link (the
	// paper's 550 MB/s straw); host CPU is never the bottleneck on the
	// testbed for this query class.
	params := dev.Params()
	bytes := pages * int64(dev.PageSize())
	host := params.Host.EffectiveRate.ServiceTime(int64(float64(bytes) * (1 - cachedFrac)))
	devCost := p.deviceEstimate(q, params, bytes, estSel)
	d := Decision{HostCost: host, DeviceCost: devCost, HybridCost: hybridEstimate(params, bytes, host, devCost)}
	if devCost < host {
		d.Pushdown = true
		d.Reason = fmt.Sprintf("device %.1fx cheaper", float64(host)/float64(devCost))
	} else {
		d.Reason = fmt.Sprintf("host %.1fx cheaper", float64(devCost)/float64(host))
	}
	return d
}

// hybridEstimate prices the equalizing host+device split: with full
// costs h and d, splitting fraction f = h/(h+d) to the device makes
// both sides finish at h*d/(h+d); moving the input's bytes over the
// shared internal bus floors it.
func hybridEstimate(params ssd.Params, bytes int64, host, devCost time.Duration) time.Duration {
	if host <= 0 || devCost <= 0 {
		return 0
	}
	combined := time.Duration(float64(host) * float64(devCost) / float64(host+devCost))
	return max(combined, params.DMABusRate.ServiceTime(bytes))
}

// deviceEstimate prices the pushdown path over the input's bytes as the
// max of its three pipeline stages.
func (p *Planner) deviceEstimate(q device.Query, params ssd.Params, bytes int64, estSel float64) time.Duration {
	// Stage 1: flash to device DRAM over the shared bus.
	fetch := params.DMABusRate.ServiceTime(bytes)

	// Stage 2: embedded CPU, the program's own charge over estimated
	// counts: full pages, one filter evaluation per row (one build
	// match per probe row), estSel of the rows surviving. There is no
	// group-count estimate, so an aggregate emits one group and a
	// projection none; each group is one staged row, under 0.01% of
	// Q1's charge.
	rows := q.Table.MaxTuples()
	est := device.Counts{Pages: q.Table.Pages, Rows: rows, Evaluated: rows, Survived: int64(float64(rows) * estSel)}
	if len(q.Aggs) > 0 {
		est.Groups = 1
	}
	if q.Join != nil {
		est.BuildPages, est.BuildRows = q.Join.Build.Pages, q.Join.Build.MaxTuples()
	}
	aggRate := sim.Rate(float64(params.DeviceCPUHz) * float64(params.DeviceCPUCores))
	compute := aggRate.ServiceTime(q.Cycles(p.Cost, est))

	// Stage 3: result shipping.
	resultBytes := int64(q.OutputSchema().TupleWidth())
	if len(q.Output) > 0 {
		resultBytes *= est.Survived
	}
	ship := params.Host.EffectiveRate.ServiceTime(resultBytes)

	return max(fetch, compute, ship)
}
