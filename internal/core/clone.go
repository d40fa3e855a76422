package core

import (
	"errors"
	"fmt"
	"sort"

	"smartssd/internal/device"
	"smartssd/internal/exec"
	"smartssd/internal/hdd"
	"smartssd/internal/heap"
	"smartssd/internal/opt"
)

// Clone returns an engine that shares the receiver's loaded data but
// nothing a query run can mutate. The expensive state — generated
// tuples stored in NAND page buffers and HDD page buffers — is shared
// (both devices treat stored buffers as immutable), while every mutable
// layer is freshly built or deep-copied: device timing servers and
// clocks, FTL mapping tables, fault-injector stream positions, the host
// CPU, the buffer pool, the Smart SSD runtime, and the catalog.
//
// A cold run on a clone is byte-identical to the same cold run on the
// receiver (see TestEngineEquivalence), which is what lets the runner
// harness fan independent runs of one loaded engine across workers.
// Tracer and recorder hooks are not carried over: clones run untraced.
func (e *Engine) Clone() (*Engine, error) {
	sdev := e.ssd.Clone()
	var hdev *hdd.Device
	if e.hdd != nil {
		hdev = e.hdd.Clone()
	}
	ne := &Engine{
		cfg:        e.cfg,
		ssd:        sdev,
		hdd:        hdev,
		host:       exec.NewHost(e.cfg.HostHz, e.cfg.HostCores),
		runtime:    device.NewRuntime(sdev, e.cfg.DeviceCost),
		planner:    opt.NewPlanner(e.cfg.DeviceCost),
		tables:     make(map[string]*Table, len(e.tables)),
		stats:      copyColumnStats(e.stats),
		cold:       e.cold,
		hybridAuto: e.hybridAuto,
	}
	ne.host.Cost = e.host.Cost
	ne.pool = ne.newPool()
	ne.ssdAlloc.Restore(e.ssdAlloc.Used())
	ne.hddAlloc.Restore(e.hddAlloc.Used())
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := e.tables[name]
		f := t.File
		var dev heap.BlockDevice
		switch t.Target {
		case OnSSD:
			dev = sdev
		case OnHDD:
			if hdev == nil {
				return nil, errors.New("core: clone: table on disabled HDD")
			}
			dev = hdev
		default:
			return nil, fmt.Errorf("core: clone: unknown target %d", t.Target)
		}
		ne.tables[name] = &Table{
			File: heap.Open(name, dev, f.Schema(), f.Layout(),
				f.StartLBA(), f.Pages(), f.MaxPages(), f.TupleCount()),
			Target: t.Target,
		}
	}
	ne.markRunBaseline()
	return ne, nil
}
