package experiments

import (
	"fmt"
	"strings"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/device"
	"smartssd/internal/hostif"
	"smartssd/internal/ssd"
	"smartssd/internal/tpch"
)

// The experiments in this file go beyond the paper's evaluation,
// exercising the directions its §4.3/§5 discussion opens: new operator
// classes inside the device (grouped aggregation — TPC-H Q1), the
// impact of concurrent queries on a shared Smart SSD, and the
// parallel-DBMS-of-Smart-SSDs coordinator.

// Q1Report is the grouped-aggregation extension: TPC-H Q1 on the host
// path versus pushed down, with per-group answers cross-checked.
type Q1Report struct {
	Runs []Run
	// Groups is the number of (l_returnflag, l_linestatus) groups.
	Groups int
	// Pushdown reports whether the planner places Q1 on the device.
	Pushdown bool
}

// ExtQ1 runs TPC-H Q1 host-side and device-side (PAX).
func ExtQ1(o Options) (Q1Report, error) {
	o.fill()
	e, err := engineFor(o)
	if err != nil {
		return Q1Report{}, err
	}
	if err := loadTPCH(e, o, false); err != nil {
		return Q1Report{}, err
	}
	spec := core.QuerySpec{
		Table:          "lineitem_pax",
		Filter:         tpch.Q1Predicate(),
		GroupBy:        tpch.Q1GroupBy(),
		Aggs:           tpch.Q1Aggregates(),
		EstSelectivity: 0.98,
	}
	d, err := e.Decide(spec)
	if err != nil {
		return Q1Report{}, err
	}
	modes := []struct {
		kind string
		mode core.Mode
	}{{"host", core.ForceHost}, {"device", core.ForceDevice}}
	results, err := sweep(o, e, len(modes), func(eng *core.Engine, i int) (*core.Result, error) {
		res, err := eng.Run(spec, modes[i].mode)
		if err != nil {
			return nil, fmt.Errorf("q1 %s: %w", modes[i].kind, err)
		}
		return res, nil
	})
	if err != nil {
		return Q1Report{}, err
	}
	host, dev := results[0], results[1]
	if len(host.Rows) != len(dev.Rows) {
		return Q1Report{}, fmt.Errorf("q1: host %d groups, device %d", len(host.Rows), len(dev.Rows))
	}
	for i := range host.Rows {
		for c := range host.Rows[i] {
			hv, dv := host.Rows[i][c], dev.Rows[i][c]
			if hv.Bytes != nil {
				if string(hv.Bytes) != string(dv.Bytes) {
					return Q1Report{}, fmt.Errorf("q1: group %d col %d differs", i, c)
				}
			} else if hv.Int != dv.Int {
				return Q1Report{}, fmt.Errorf("q1: group %d col %d: host %d device %d", i, c, hv.Int, dv.Int)
			}
		}
	}
	rep := Q1Report{Groups: len(host.Rows), Pushdown: d.Pushdown}
	for _, r := range []struct {
		name string
		res  *core.Result
	}{{"SAS SSD (host)", host}, {"Smart SSD (PAX)", dev}} {
		rep.Runs = append(rep.Runs, Run{
			Name:       r.name,
			Elapsed:    r.res.Elapsed,
			Speedup:    float64(host.Elapsed) / float64(r.res.Elapsed),
			SystemkJ:   r.res.Energy.SystemkJ(),
			IOkJ:       r.res.Energy.IOkJ(),
			Bottleneck: r.res.Bottleneck,
			Rows:       int64(len(r.res.Rows)),
		})
	}
	return rep, nil
}

// Render prints the extension report.
func (r Q1Report) Render() string {
	return renderRuns(
		fmt.Sprintf("Extension: TPC-H Q1 grouped aggregation (%d groups)", r.Groups),
		"SAS SSD (host)", r.Runs)
}

// ConcurrencyReport measures the impact of concurrent queries on one
// Smart SSD (a §5 open question): n identical Q6 programs admitted at
// once share the flash channels, DMA bus, and embedded CPU.
type ConcurrencyReport struct {
	Streams []ConcurrencyPoint
}

// ConcurrencyPoint is one concurrency level.
type ConcurrencyPoint struct {
	Streams int
	// Makespan is when the last stream finishes.
	Makespan time.Duration
	// PerQuery is makespan divided by streams: the effective per-query
	// service time under sharing.
	PerQuery time.Duration
	// Efficiency is single-stream elapsed divided by PerQuery: 1.0
	// means perfect fair sharing with no loss.
	Efficiency float64
}

// ExtConcurrency runs Q6 pushdown at 1, 2, and 4 concurrent sessions.
func ExtConcurrency(o Options) (ConcurrencyReport, error) {
	o.fill()
	e, err := engineFor(o)
	if err != nil {
		return ConcurrencyReport{}, err
	}
	if err := loadTPCH(e, o, false); err != nil {
		return ConcurrencyReport{}, err
	}
	levels := []int{1, 2, 4}
	makespans, err := sweep(o, e, len(levels), func(eng *core.Engine, li int) (time.Duration, error) {
		n := levels[li]
		// The query references the engine's own table file, so each
		// clone drives its own device.
		tbl, err := eng.Table("lineitem_pax")
		if err != nil {
			return 0, err
		}
		q := device.Query{
			Table:  device.RefOf(tbl.File),
			Filter: tpch.Q6Predicate(),
			Aggs:   tpch.Q6Aggregates(),
		}
		// Fresh timeline; all n sessions admitted at time zero share
		// the device's servers, which process requests FIFO.
		eng.ResetTiming()
		rt := eng.Runtime()
		ids := make([]device.SessionID, n)
		for i := range ids {
			id, err := rt.Open(q)
			if err != nil {
				return 0, err
			}
			ids[i] = id
		}
		var makespan time.Duration
		for _, id := range ids {
			for {
				res, err := rt.Get(id)
				if err != nil {
					return 0, err
				}
				if res.At > makespan {
					makespan = res.At
				}
				if res.Done {
					break
				}
			}
			if err := rt.Close(id); err != nil {
				return 0, err
			}
		}
		return makespan, nil
	})
	if err != nil {
		return ConcurrencyReport{}, err
	}
	var rep ConcurrencyReport
	single := makespans[0]
	for li, n := range levels {
		per := makespans[li] / time.Duration(n)
		rep.Streams = append(rep.Streams, ConcurrencyPoint{
			Streams:    n,
			Makespan:   makespans[li],
			PerQuery:   per,
			Efficiency: float64(single) / float64(per),
		})
	}
	return rep, nil
}

// Render prints the concurrency scaling table.
func (r ConcurrencyReport) Render() string {
	var b strings.Builder
	b.WriteString("Extension: concurrent Q6 sessions on one Smart SSD\n")
	fmt.Fprintf(&b, "%-9s %12s %14s %12s\n", "streams", "makespan", "per-query", "efficiency")
	for _, p := range r.Streams {
		fmt.Fprintf(&b, "%-9d %12s %14s %11.2f\n",
			p.Streams, fmtDur(p.Makespan), fmtDur(p.PerQuery), p.Efficiency)
	}
	b.WriteString("(efficiency 1.0 = perfect fair sharing of device resources)\n")
	return b.String()
}

// InterfaceReport sweeps host interface standards for Q6: the paper's
// opportunity exists precisely because the interface lags the internal
// bandwidth, so faster interfaces (the §3 "could be extended for PCIe"
// direction) shrink and eventually erase the pushdown advantage.
type InterfaceReport struct {
	Points []InterfacePoint
}

// InterfacePoint is one interface standard's Q6 comparison.
type InterfacePoint struct {
	Interface  string
	HostMBps   float64
	Host       time.Duration
	DevicePAX  time.Duration
	SpeedupPAX float64
}

// ExtInterface runs Figure 3's Q6 with each host interface standard.
func ExtInterface(o Options) (InterfaceReport, error) {
	o.fill()
	ifaces := []hostif.Interface{
		hostif.SATA2, hostif.SATA3, hostif.SAS6, hostif.SAS12, hostif.PCIe2x4, hostif.PCIe3x4,
	}
	// Parallelism lives at this level — one worker per interface, each
	// running its inner Fig3 serially on its own engine.
	points, err := fanOut(o, len(ifaces), func(i int) (InterfacePoint, error) {
		iface := ifaces[i]
		oi := o
		oi.Parallelism = 1
		p := o.SSD
		if p.Geometry.Channels == 0 {
			p = ssd.DefaultParams()
		}
		p.Host = iface
		oi.SSD = p
		f3, err := Fig3(oi)
		if err != nil {
			return InterfacePoint{}, fmt.Errorf("interface %s: %w", iface.Name, err)
		}
		return InterfacePoint{
			Interface:  iface.Name,
			HostMBps:   float64(iface.EffectiveRate) / (1 << 20),
			Host:       f3.Runs[0].Elapsed,
			DevicePAX:  f3.Runs[2].Elapsed,
			SpeedupPAX: f3.Runs[2].Speedup,
		}, nil
	})
	if err != nil {
		return InterfaceReport{}, err
	}
	return InterfaceReport{Points: points}, nil
}

// Render prints the interface sweep.
func (r InterfaceReport) Render() string {
	var b strings.Builder
	b.WriteString("Extension: Q6 pushdown advantage vs. host interface standard\n")
	fmt.Fprintf(&b, "%-14s %10s %12s %12s %9s\n", "interface", "MB/s", "host", "Smart PAX", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14s %10.0f %12s %12s %8.2fx\n",
			p.Interface, p.HostMBps, fmtDur(p.Host), fmtDur(p.DevicePAX), p.SpeedupPAX)
	}
	b.WriteString("(faster interfaces shrink the straw/firehose gap the paper exploits)\n")
	return b.String()
}

// HybridReport compares pure host, pure pushdown, and hybrid split
// execution for Q6 — §4.3's partial-pushdown idea taken to its
// conclusion: the two compute paths add up until the shared DMA bus
// caps them.
type HybridReport struct {
	Runs []Run
	// SplitFraction is the page share the device processed.
	SplitFraction float64
}

// ExtHybrid runs Q6 in all three modes on the PAX table.
func ExtHybrid(o Options) (HybridReport, error) {
	o.fill()
	e, err := engineFor(o)
	if err != nil {
		return HybridReport{}, err
	}
	if err := loadTPCH(e, o, false); err != nil {
		return HybridReport{}, err
	}
	spec := core.QuerySpec{
		Table:          "lineitem_pax",
		Filter:         tpch.Q6Predicate(),
		Aggs:           tpch.Q6Aggregates(),
		EstSelectivity: 0.006,
	}
	modes := []struct {
		name string
		mode core.Mode
	}{
		{"SAS SSD (host)", core.ForceHost},
		{"Smart SSD (PAX)", core.ForceDevice},
		{"Hybrid split", core.ForceHybrid},
	}
	results, err := sweep(o, e, len(modes), func(eng *core.Engine, i int) (*core.Result, error) {
		res, err := eng.Run(spec, modes[i].mode)
		if err != nil {
			return nil, fmt.Errorf("hybrid %s: %w", modes[i].name, err)
		}
		return res, nil
	})
	if err != nil {
		return HybridReport{}, err
	}
	var rep HybridReport
	base := results[0].Elapsed
	answer := results[0].Rows[0][0].Int
	for i, m := range modes {
		res := results[i]
		if i > 0 && res.Rows[0][0].Int != answer {
			return HybridReport{}, fmt.Errorf("hybrid %s: answer diverges", m.name)
		}
		if m.mode == core.ForceHybrid {
			rep.SplitFraction = res.HybridDeviceFraction
		}
		rep.Runs = append(rep.Runs, Run{
			Name:       m.name,
			Elapsed:    res.Elapsed,
			Speedup:    float64(base) / float64(res.Elapsed),
			SystemkJ:   res.Energy.SystemkJ(),
			IOkJ:       res.Energy.IOkJ(),
			Bottleneck: res.Bottleneck,
		})
	}
	return rep, nil
}

// Render prints the three-way comparison.
func (r HybridReport) Render() string {
	s := renderRuns(
		fmt.Sprintf("Extension: hybrid partial pushdown for Q6 (device takes %.0f%% of pages)",
			100*r.SplitFraction),
		"SAS SSD (host)", r.Runs)
	s += "(host and device each process a slice of the table concurrently;\n" +
		" their throughputs add until the shared DMA bus caps the sum)\n"
	return s
}
