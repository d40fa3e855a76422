// Package core is the paper's primary contribution assembled: a
// database engine that stores heap tables on simulated storage devices
// and, per query, either processes them the usual way on the host or
// pushes scan, selection, aggregation, and simple hash-join work into
// the Smart SSD through the OPEN/GET/CLOSE session protocol — with a
// cost-based planner making the choice, the buffer-pool coherence
// checks of §4.3, and full elapsed-time and energy accounting for every
// run.
package core

import (
	"errors"
	"fmt"
	"time"

	"smartssd/internal/bufpool"
	"smartssd/internal/device"
	"smartssd/internal/energy"
	"smartssd/internal/exec"
	"smartssd/internal/fault"
	"smartssd/internal/hdd"
	"smartssd/internal/heap"
	"smartssd/internal/opt"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/sim"
	"smartssd/internal/ssd"
	"smartssd/internal/trace"
	"smartssd/internal/txn"
)

// Target selects the device a table lives on.
type Target uint8

// Table placement targets.
const (
	// OnSSD places the table on the (Smart) SSD.
	OnSSD Target = iota
	// OnHDD places the table on the baseline disk.
	OnHDD
)

// Config assembles an engine. Zero fields take defaults matching the
// paper's testbed.
type Config struct {
	// SSD configures the Smart SSD; zero value is the paper's device.
	SSD ssd.Params
	// HDD configures the baseline disk; zero value is the paper's
	// drive. Set DisableHDD to skip building it.
	HDD        hdd.Params
	DisableHDD bool
	// HostCores and HostHz describe the host CPU (default 8 x 2 GHz).
	HostCores int
	HostHz    sim.Rate
	// PoolPages is the buffer pool capacity (default 8192 pages, 64 MB;
	// the paper dedicates 24 GB to the DBMS, but cold runs clear it).
	PoolPages int
	// DeviceCost is the embedded-CPU cost model.
	DeviceCost device.CostModel
	// Energy is the power profile for Table 3 accounting.
	Energy energy.Profile

	// MaxDeviceRetries is how many times a device-faulted pushdown is
	// retried on the device before the engine falls back to the host.
	// Default 2; negative means no retries (straight to fallback).
	MaxDeviceRetries int
	// RetryBackoff is the virtual-time wait before the first device
	// retry; it doubles per attempt. Default 5ms.
	RetryBackoff time.Duration
	// DisableFallback surfaces device faults to the caller instead of
	// transparently re-running the query on the host path.
	DisableFallback bool
}

func (c *Config) fill() {
	if c.HostCores == 0 {
		c.HostCores = 8
	}
	if c.HostHz == 0 {
		c.HostHz = sim.GHz(2)
	}
	if c.PoolPages == 0 {
		c.PoolPages = 8192
	}
	if c.DeviceCost == (device.CostModel{}) {
		c.DeviceCost = device.DefaultCostModel()
	}
	if c.Energy == (energy.Profile{}) {
		c.Energy = energy.DefaultProfile()
	}
	if c.MaxDeviceRetries == 0 {
		c.MaxDeviceRetries = 2
	}
	if c.MaxDeviceRetries < 0 {
		c.MaxDeviceRetries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
}

// Table is a catalogued heap table.
type Table struct {
	File   *heap.File
	Target Target
}

// Engine is the integrated system: devices, host executor, buffer pool,
// Smart SSD runtime, planner, and catalog.
type Engine struct {
	cfg     Config
	ssd     *ssd.Device
	hdd     *hdd.Device
	host    *exec.Host
	pool    *bufpool.Pool
	runtime *device.Runtime
	planner *opt.Planner

	ssdAlloc heap.Allocator
	hddAlloc heap.Allocator
	tables   map[string]*Table
	// stats holds per-table column ranges observed during Load (see
	// stats.go); the SQL planner's selectivity estimator reads them.
	stats map[string][]ColumnStats

	// Durability layer, activated lazily by the first Update (see
	// durability.go). Nil on read-only engines.
	txns         *txn.Manager
	lastRecovery *RecoveryReport
	// dataWrites counts guarded data-page flushes (see DurableWrites).
	dataWrites uint64

	// cold controls whether Run starts from a cleared buffer pool and
	// zeroed timing (the paper's cold-experiment methodology).
	cold bool
	// hybridAuto lets Auto mode choose the hybrid split when the
	// planner estimates it beats both pure paths.
	hybridAuto bool

	// scratch holds reusable executor arenas, reset between runs so a
	// reused engine stops allocating on join-build and aggregate paths.
	scratch exec.Scratch
	// baseline is the post-load reference state ResetForRun rewinds to:
	// the fault streams' positions and the durable-write count as they
	// stood when the data last changed.
	baseline runBaseline
}

// runBaseline captures the engine state that a fresh Clone would start
// from, beyond what ResetTiming already clears.
type runBaseline struct {
	faults     *fault.Snapshot
	dataWrites uint64
}

// markRunBaseline records the current fault-stream positions and
// durable-write count as the state ResetForRun restores. Called after
// construction, after every bulk load, and on freshly built clones.
func (e *Engine) markRunBaseline() {
	e.baseline = runBaseline{
		faults:     e.ssd.Injector().Snapshot(),
		dataWrites: e.dataWrites,
	}
}

// ErrResetDurable is reported by ResetForRun on an engine whose durable
// write path has been activated: committed updates have changed table
// data, so rewinding the fault streams would desynchronize them from
// the pages they already mutated.
var ErrResetDurable = errors.New("core: ResetForRun on engine with durable updates")

// ResetForRun rewinds a previously used engine to the state a fresh
// Clone of its loaded data would start from, without reallocating
// devices, servers, pool frames, or executor arenas: the buffer pool
// is emptied, all timing is zeroed, the fault-injector streams are
// restored to their post-load positions, and the executor scratch
// arenas are recycled. A ResetForRun-then-Run is byte-identical to a
// fresh-Clone-then-Run (see TestResetForRunEquivalence); the sweep
// harness uses it to reuse one clone per worker across sweep points.
func (e *Engine) ResetForRun() error {
	if e.txns != nil {
		return ErrResetDurable
	}
	e.pool.Clear()
	e.ResetTiming()
	e.ssd.Injector().Restore(e.baseline.faults)
	e.dataWrites = e.baseline.dataWrites
	e.scratch.Reset()
	return nil
}

// New builds an engine. A zero Config reproduces the paper's testbed:
// the Samsung-class Smart SSD, the 10K RPM SAS HDD baseline, and a
// 2 GHz 8-core host with a 235 W idle floor.
func New(cfg Config) (*Engine, error) {
	cfg.fill()
	sdev, err := ssd.New(cfg.SSD)
	if err != nil {
		return nil, fmt.Errorf("core: ssd: %w", err)
	}
	var hdev *hdd.Device
	if !cfg.DisableHDD {
		hdev, err = hdd.New(cfg.HDD)
		if err != nil {
			return nil, fmt.Errorf("core: hdd: %w", err)
		}
	}
	e := &Engine{
		cfg:     cfg,
		ssd:     sdev,
		hdd:     hdev,
		host:    exec.NewHost(cfg.HostHz, cfg.HostCores),
		runtime: device.NewRuntime(sdev, cfg.DeviceCost),
		planner: opt.NewPlanner(cfg.DeviceCost),
		tables:  make(map[string]*Table),
		stats:   make(map[string][]ColumnStats),
		cold:    true,
	}
	e.pool = e.newPool()
	e.markRunBaseline()
	return e, nil
}

// newPool builds the engine's buffer pool, whose flushes are guarded
// durable writes.
func (e *Engine) newPool() *bufpool.Pool {
	return bufpool.New(e.cfg.PoolPages, func(lba int64, data []byte) error {
		_, err := guardedWrite(&e.dataWrites, e.ssd.Injector(), e.ssd, lba, data, 0)
		return err
	})
}

// SSD reports the engine's Smart SSD.
func (e *Engine) SSD() *ssd.Device { return e.ssd }

// HDD reports the engine's baseline disk (nil when disabled).
func (e *Engine) HDD() *hdd.Device { return e.hdd }

// Host reports the host CPU model.
func (e *Engine) Host() *exec.Host { return e.host }

// Pool reports the buffer pool.
func (e *Engine) Pool() *bufpool.Pool { return e.pool }

// Runtime reports the Smart SSD runtime (for protocol-level access).
func (e *Engine) Runtime() *device.Runtime { return e.runtime }

// Planner reports the pushdown planner.
func (e *Engine) Planner() *opt.Planner { return e.planner }

// SetHybridAuto extends Auto mode to a three-way choice: host, device,
// or the hybrid split, whichever the planner estimates fastest. Off by
// default (the paper's prototype is binary).
func (e *Engine) SetHybridAuto(enabled bool) { e.hybridAuto = enabled }

// SetCold controls run methodology: cold runs (default) clear the
// buffer pool and reset all timing before executing, matching the
// paper's "no data cached in the buffer pool prior to running each
// query". Warm runs keep pool contents and accumulate on the timeline.
func (e *Engine) SetCold(cold bool) { e.cold = cold }

// ErrNoTable is reported for queries over unknown tables.
var ErrNoTable = errors.New("core: unknown table")

// CreateTable catalogs a new heap table of maxPages pages on target.
func (e *Engine) CreateTable(name string, s *schema.Schema, l page.Layout, maxPages int64, target Target) (*Table, error) {
	if _, dup := e.tables[name]; dup {
		return nil, fmt.Errorf("core: table %q already exists", name)
	}
	var f *heap.File
	var err error
	switch target {
	case OnSSD:
		if err := checkLogRegion(e.WAL(), name, e.ssdAlloc.Used(), maxPages); err != nil {
			return nil, err
		}
		f, err = heap.Create(name, e.ssd, &e.ssdAlloc, s, l, maxPages)
	case OnHDD:
		if e.hdd == nil {
			return nil, errors.New("core: HDD disabled in this engine")
		}
		f, err = heap.Create(name, e.hdd, &e.hddAlloc, s, l, maxPages)
	default:
		return nil, fmt.Errorf("core: unknown target %d", target)
	}
	if err != nil {
		return nil, err
	}
	t := &Table{File: f, Target: target}
	e.tables[name] = t
	return t, nil
}

// Table looks up a catalogued table.
func (e *Engine) Table(name string) (*Table, error) {
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Load bulk-loads tuples from next into a table, then resets device
// timing so the load does not pollute the first measured run.
func (e *Engine) Load(name string, next func() (schema.Tuple, bool)) error {
	t, err := e.Table(name)
	if err != nil {
		return err
	}
	app := t.File.NewAppender()
	acc := newStatsAccumulator(t.File.Schema(), e.stats[name])
	for {
		tup, ok := next()
		if !ok {
			break
		}
		acc.observe(tup)
		if err := app.Append(tup); err != nil {
			return fmt.Errorf("core: load %q: %w", name, err)
		}
	}
	e.stats[name] = acc.cols
	if err := app.Close(); err != nil {
		return err
	}
	e.ResetTiming()
	e.markRunBaseline()
	return nil
}

// SetTracer installs a per-request trace hook on every simulated
// resource — the SSD's channels, DMA bus, link, and embedded CPU, the
// HDD's media server, plus the host CPU — so a run's full timeline can
// be exported. Pass nil to remove it.
func (e *Engine) SetTracer(fn sim.TraceFunc) {
	e.ssd.SetTracer(fn)
	if e.hdd != nil {
		e.hdd.SetTracer(fn)
	}
	e.host.CPU.SetTracer(fn)
}

// SetRecorder attaches an event recorder to the whole engine: every
// served request on every simulated resource plus the runtime's
// OPEN/GET/CLOSE protocol spans. Pass nil to remove all hooks; with no
// recorder the timing paths are allocation-free and runs are
// byte-identical to an uninstrumented engine.
func (e *Engine) SetRecorder(rec *trace.Recorder) {
	e.ssd.SetRecorder(rec)
	e.runtime.SetRecorder(rec)
	if rec == nil {
		if e.hdd != nil {
			e.hdd.SetTracer(nil)
		}
		e.host.CPU.SetTracer(nil)
		return
	}
	hook := rec.Hook()
	if e.hdd != nil {
		e.hdd.SetTracer(hook)
	}
	e.host.CPU.SetTracer(hook)
}

// ResetTiming zeroes all device and host timing state (data preserved).
func (e *Engine) ResetTiming() {
	e.ssd.ResetTiming()
	if e.hdd != nil {
		e.hdd.ResetTiming()
	}
	e.host.Reset()
	e.runtime.ResetPhases()
}
