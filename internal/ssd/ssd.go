// Package ssd assembles the SSD simulator: NAND array, FTL, flash
// channel schedulers, the shared DRAM/DMA bus, the embedded device CPU,
// and the host interface controller — the architecture of Figure 2 in
// the paper.
//
// Timing model. Every data movement is charged against rate servers
// (package sim) arranged as the real controller's pipeline:
//
//	flash channels (parallel, one server each)
//	    -> shared DRAM/DMA bus (ONE server: "data transfers from the
//	       flash channels to the DRAM (via DMA) are serialized")
//	        -> host interface link (regular reads)
//	        -> device CPU lanes (Smart SSD programs)
//
// The NAND cell-to-register latency (tR) is modeled as pure latency — it
// overlaps across the chips of a channel (chip-level interleaving) — while
// register-to-controller transfer occupies the channel bus. This makes
// the paper's Table 2 emergent: with eight 200 MB/s channels the array
// could source ~1.6 GB/s, the shared DMA bus caps internal bandwidth at
// 1,560 MB/s, and the SAS 6Gb link caps the host path at 550 MB/s.
//
// Correctness model. Reads and writes move real bytes through the FTL
// and NAND array; only time and energy are simulated.
package ssd

import (
	"fmt"
	"strings"
	"time"

	"smartssd/internal/fault"
	"smartssd/internal/ftl"
	"smartssd/internal/hostif"
	"smartssd/internal/metrics"
	"smartssd/internal/nand"
	"smartssd/internal/sim"
	"smartssd/internal/trace"
)

// Params configures a simulated device. Zero fields take the defaults
// from DefaultParams (the paper's prototype).
type Params struct {
	// Name labels the device in reports, e.g. "Samsung Smart SSD".
	Name string
	// Geometry is the NAND organization.
	Geometry nand.Geometry
	// Timing is the NAND operation latencies and channel rate.
	Timing nand.Timing
	// FTL configures the translation layer.
	FTL ftl.Config
	// DMABusRate is the shared DRAM/DMA bus bandwidth. All flash
	// channels serialize on this bus; it is the ceiling on internal
	// bandwidth (1,560 MB/s for the paper's device).
	DMABusRate sim.Rate
	// DeviceCPUHz is the per-core clock of the embedded processor
	// (a low-powered 32-bit RISC processor, per the paper).
	DeviceCPUHz sim.Rate
	// DeviceCPUCores is the number of embedded cores available to
	// user-defined programs.
	DeviceCPUCores int
	// DeviceDRAMBytes is the on-board DRAM capacity available to
	// user-defined programs (hash tables, result staging).
	DeviceDRAMBytes int64
	// Host is the host interface standard on the front of the device.
	Host hostif.Interface
	// IOUnitPages is the host I/O request size in pages (32 pages =
	// 256 KB in the paper's experiments).
	IOUnitPages int
	// Fault configures deterministic fault injection. The zero value
	// disables it entirely: no injector is constructed and every path
	// behaves exactly as a fault-free device.
	Fault fault.Config
}

// DefaultParams reports the simulated counterpart of the paper's
// prototype: a SAS 6Gb/s enterprise SSD whose internals sustain
// 1,560 MB/s, with a low-power multi-core embedded processor.
func DefaultParams() Params {
	return Params{
		Name: "Smart SSD (simulated)",
		Geometry: nand.Geometry{
			Channels:        8,
			ChipsPerChannel: 4,
			BlocksPerChip:   256,
			PagesPerBlock:   64,
			PageSize:        8192,
		},
		Timing: nand.Timing{
			ReadLatency:    50 * time.Microsecond,
			ProgramLatency: 900 * time.Microsecond,
			EraseLatency:   3 * time.Millisecond,
			ChannelRate:    sim.MBps(200),
		},
		FTL:             ftl.Config{OverProvision: 0.125, GCLowWater: 2},
		DMABusRate:      sim.MBps(1560),
		DeviceCPUHz:     sim.MHz(400),
		DeviceCPUCores:  3,
		DeviceDRAMBytes: 512 * sim.MB,
		Host:            hostif.SAS6,
		IOUnitPages:     32,
	}
}

func (p *Params) fill() {
	d := DefaultParams()
	if p.Name == "" {
		p.Name = d.Name
	}
	if p.Geometry == (nand.Geometry{}) {
		p.Geometry = d.Geometry
	}
	if p.Timing == (nand.Timing{}) {
		p.Timing = d.Timing
	}
	if p.DMABusRate == 0 {
		p.DMABusRate = d.DMABusRate
	}
	if p.DeviceCPUHz == 0 {
		p.DeviceCPUHz = d.DeviceCPUHz
	}
	if p.DeviceCPUCores == 0 {
		p.DeviceCPUCores = d.DeviceCPUCores
	}
	if p.DeviceDRAMBytes == 0 {
		p.DeviceDRAMBytes = d.DeviceDRAMBytes
	}
	if p.Host == (hostif.Interface{}) {
		p.Host = d.Host
	}
	if p.IOUnitPages == 0 {
		p.IOUnitPages = d.IOUnitPages
	}
}

// Device is a simulated (Smart) SSD. It exposes a timed block-device
// interface to the host plus the internal hooks (FetchPage,
// DeviceCompute, ShipToHost) that the Smart SSD runtime in package
// device builds sessions from.
//
// Device is not safe for concurrent use.
type Device struct {
	params Params
	clock  *sim.Clock
	array  *nand.Array
	ftl    *ftl.FTL

	channels []*sim.Server
	dma      *sim.Server
	link     *sim.Server
	dcpu     *sim.Server
	inj      *fault.Injector // nil unless Params.Fault is enabled

	flashPagesRead int64
	linkBytesOut   int64 // device -> host
	linkBytesIn    int64 // host -> device
	dcpuCycles     int64

	linkMeter hostif.Meter    // per-command host-link accounting
	rec       *trace.Recorder // nil unless SetRecorder installed one
}

// New builds a device. A zero Params gives the paper's prototype.
func New(params Params) (*Device, error) {
	params.fill()
	if err := params.Geometry.Validate(); err != nil {
		return nil, err
	}
	if params.DeviceCPUCores < 1 {
		return nil, fmt.Errorf("ssd: %d device CPU cores, want at least 1", params.DeviceCPUCores)
	}
	arr, err := nand.NewArray(params.Geometry, params.Timing)
	if err != nil {
		return nil, err
	}
	f, err := ftl.New(arr, params.FTL)
	if err != nil {
		return nil, err
	}
	inj := fault.New(params.Fault)
	arr.SetInjector(inj)
	f.SetInjector(inj)
	d := &Device{
		params: params,
		clock:  new(sim.Clock),
		array:  arr,
		ftl:    f,
		inj:    inj,
		dma:    sim.NewServer("dma-bus", params.DMABusRate),
		link:   sim.NewServer("host-link", params.Host.EffectiveRate),
		dcpu:   sim.NewMultiServer("device-cpu", params.DeviceCPUHz, params.DeviceCPUCores),
	}
	d.linkMeter.Iface = params.Host
	d.channels = make([]*sim.Server, params.Geometry.Channels)
	for i := range d.channels {
		d.channels[i] = sim.NewServer(fmt.Sprintf("flash-ch%d", i), params.Timing.ChannelRate)
	}
	return d, nil
}

// Clone returns a device with identical stored contents, FTL mapping,
// and fault-injection stream position, but fresh timing state: a new
// clock, new rate servers, and zeroed traffic counters — the state a
// ResetTiming leaves behind. NAND page buffers are shared with the
// receiver (they are immutable once programmed), so cloning is cheap
// relative to reloading tables; everything a query can mutate (page
// state, FTL maps, servers, counters, injector streams) is isolated.
// Trace hooks and recorders are deliberately not carried over: clones
// exist to run untraced, independent simulations in parallel.
func (d *Device) Clone() *Device {
	arr := d.array.Clone()
	inj := d.inj.Clone()
	arr.SetInjector(inj)
	f := d.ftl.Clone(arr)
	f.SetInjector(inj)
	nd := &Device{
		params: d.params,
		clock:  new(sim.Clock),
		array:  arr,
		ftl:    f,
		inj:    inj,
		dma:    sim.NewServer("dma-bus", d.params.DMABusRate),
		link:   sim.NewServer("host-link", d.params.Host.EffectiveRate),
		dcpu:   sim.NewMultiServer("device-cpu", d.params.DeviceCPUHz, d.params.DeviceCPUCores),
	}
	nd.linkMeter.Iface = d.params.Host
	nd.channels = make([]*sim.Server, d.params.Geometry.Channels)
	for i := range nd.channels {
		nd.channels[i] = sim.NewServer(fmt.Sprintf("flash-ch%d", i), d.params.Timing.ChannelRate)
	}
	return nd
}

// Params reports the device configuration.
func (d *Device) Params() Params { return d.params }

// Clock reports the device's virtual clock. Callers sharing a system
// timeline read completion times from the ops below and advance this
// clock at the end of a run.
func (d *Device) Clock() *sim.Clock { return d.clock }

// PageSize reports the device page size in bytes.
func (d *Device) PageSize() int { return d.params.Geometry.PageSize }

// IOUnitPages reports the host I/O request size in pages.
func (d *Device) IOUnitPages() int { return d.params.IOUnitPages }

// CapacityPages reports the host-visible capacity in pages.
func (d *Device) CapacityPages() int64 { return d.ftl.LogicalPages() }

// DeviceDRAMBytes reports the DRAM budget for user-defined programs.
func (d *Device) DeviceDRAMBytes() int64 { return d.params.DeviceDRAMBytes }

// Injector reports the device's fault injector, nil when fault
// injection is disabled. Tests and cluster experiments use it to
// trigger targeted failures (KillDevice, MarkUncorrectable).
func (d *Device) Injector() *fault.Injector { return d.inj }

// FaultStats reports cumulative injected-fault counts (zero when
// injection is disabled).
func (d *Device) FaultStats() fault.Stats { return d.inj.Stats() }

// FTLStats reports translation-layer activity (wear, amplification).
func (d *Device) FTLStats() ftl.Stats { return d.ftl.Stats() }

// NANDStats reports raw flash operation counts.
func (d *Device) NANDStats() nand.Stats { return d.array.Stats() }

// FetchPage reads LBA lba from flash into device DRAM, charging the
// page's flash channel (after the tR latency) and the shared DMA bus.
// It returns the page contents (aliasing device storage; do not modify)
// and the virtual time the page is available in DRAM.
func (d *Device) FetchPage(lba int64, ready time.Duration) ([]byte, time.Duration, error) {
	ppa, ok := d.ftl.Lookup(ftl.LBA(lba))
	if !ok {
		return nil, 0, fmt.Errorf("ssd: fetch unmapped lba %d", lba)
	}
	before := d.ftl.Stats()
	data, err := d.ftl.Read(ftl.LBA(lba))
	if err != nil {
		return nil, 0, fmt.Errorf("ssd: fetch lba %d: %w", lba, err)
	}
	// Each read retry re-runs the cell-to-register sense, so a recovered
	// page costs (1+retries)·tR before its channel transfer; injected
	// controller spikes delay the whole flash op, DMA stalls delay the
	// bus hop. All three are zero on a fault-free device.
	retries := d.ftl.Stats().ReadRetries - before.ReadRetries
	spike := time.Duration(d.inj.LatencySpike())
	ch := d.params.Geometry.Decompose(ppa).Channel
	pageBytes := int64(d.params.Geometry.PageSize)
	sense := time.Duration(1+retries) * d.params.Timing.ReadLatency
	if d.rec != nil && sense > 0 {
		d.rec.Span(fmt.Sprintf("nand-ch%d", ch), "SENSE", ready+spike, ready+spike+sense)
	}
	chDone := d.channels[ch].Serve(ready+sense+spike, pageBytes)
	stall := time.Duration(d.inj.DMAStall())
	dmaDone := d.dma.Serve(chDone+stall, pageBytes)
	d.flashPagesRead++
	return data, dmaDone, nil
}

// Checked reports whether buf is the page stored at lba and has passed
// its checksum since flash last programmed it. The record is the NAND
// array's, one bit per physical page, shared by the device's clones.
func (d *Device) Checked(lba int64, buf []byte) bool { return d.ftl.Checked(ftl.LBA(lba), buf) }

// MarkChecked records that buf, the page stored at lba, passed its
// checksum.
func (d *Device) MarkChecked(lba int64, buf []byte) { d.ftl.MarkChecked(ftl.LBA(lba), buf) }

// ShipToHost charges the host link for moving n bytes of device-resident
// data (a read payload or a Smart SSD result batch) to the host, and
// reports the arrival time. Command overhead is added to the ready time,
// where it overlaps earlier transfers under command queuing (latency,
// not throughput); the link turnaround occupies the link per command
// and taxes small I/Os.
func (d *Device) ShipToHost(n int64, ready time.Duration) time.Duration {
	done := d.link.ServeWithSetup(ready+d.params.Host.CommandOverhead,
		d.params.Host.TurnaroundBusy, n)
	d.linkBytesOut += n
	d.linkMeter.Record(n)
	return done
}

// DeviceCompute charges cycles of embedded-CPU work that becomes ready
// at the given time, and reports its completion time. Work is spread
// across the device's cores.
func (d *Device) DeviceCompute(cycles int64, ready time.Duration) time.Duration {
	done := d.dcpu.Serve(ready, cycles)
	d.dcpuCycles += cycles
	return done
}

// ReadPage performs a host read of one page: flash fetch plus host-link
// transfer. It returns the data and its host arrival time. Large scans
// should use ReadRange, which batches pages into I/O units.
func (d *Device) ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error) {
	data, at, err := d.FetchPage(lba, ready)
	if err != nil {
		return nil, 0, err
	}
	return data, d.ShipToHost(int64(len(data)), at), nil
}

// ReadRange performs a host sequential read of count pages starting at
// start, issued in IOUnitPages-sized requests. For each page it calls
// fn with the page data and the virtual time the page's I/O unit arrived
// in host memory. It returns the completion time of the final unit.
func (d *Device) ReadRange(start, count int64, ready time.Duration, fn func(lba int64, data []byte, arrival time.Duration) error) (time.Duration, error) {
	unit := int64(d.params.IOUnitPages)
	var last time.Duration
	// The host keeps a bounded number of requests in flight (command
	// queuing depth): batch k is issued once batch k-queueDepth has
	// arrived. This bounds buffering and shares the flash channels
	// fairly with concurrent in-device programs.
	const queueDepth = 4
	var arriveRing [queueDepth]time.Duration
	batch := int64(0)
	// One I/O unit's pages wait in staging until the unit arrives.
	type staged struct {
		lba  int64
		data []byte
	}
	var staging []staged
	for off := int64(0); off < count; off += unit {
		n := unit
		if off+n > count {
			n = count - off
		}
		if staging == nil {
			staging = make([]staged, 0, n)
		}
		staging = staging[:0]
		issue := ready
		if paced := arriveRing[batch%queueDepth]; paced > issue {
			issue = paced
		}
		var inDRAM time.Duration
		for i := int64(0); i < n; i++ {
			lba := start + off + i
			data, at, err := d.FetchPage(lba, issue)
			if err != nil {
				return last, err
			}
			if at > inDRAM {
				inDRAM = at
			}
			staging = append(staging, staged{lba, data})
		}
		arrival := d.ShipToHost(n*int64(d.params.Geometry.PageSize), inDRAM)
		arriveRing[batch%queueDepth] = arrival
		batch++
		for _, s := range staging {
			if err := fn(s.lba, s.data, arrival); err != nil {
				return arrival, err
			}
		}
		last = arrival
	}
	return last, nil
}

// WritePage performs a host write of one page that becomes ready at the
// given time: host-link transfer in, DMA to flash channel, NAND program.
// It reports the program completion time. Any garbage-collection
// relocations the write triggers are charged to the channel and DMA
// servers as well.
func (d *Device) WritePage(lba int64, data []byte, ready time.Duration) (time.Duration, error) {
	pageBytes := int64(d.params.Geometry.PageSize)
	inDev := d.dma.Serve(d.link.ServeWithSetup(ready+d.params.Host.CommandOverhead,
		d.params.Host.TurnaroundBusy, pageBytes), pageBytes)
	d.linkBytesIn += pageBytes
	d.linkMeter.Record(pageBytes)

	before := d.ftl.Stats()
	if err := d.ftl.Write(ftl.LBA(lba), data); err != nil {
		return 0, err
	}
	after := d.ftl.Stats()

	ppa, _ := d.ftl.Lookup(ftl.LBA(lba))
	ch := d.params.Geometry.Decompose(ppa).Channel
	done := d.channels[ch].Serve(inDev, pageBytes) + d.params.Timing.ProgramLatency

	// Each program remap burned a full tPROG on the failed slot.
	if rm := after.RemappedPrograms - before.RemappedPrograms; rm > 0 {
		done += time.Duration(rm) * d.params.Timing.ProgramLatency
	}

	// Charge GC relocations (read + program per relocated page) against
	// the channel that absorbed them and the shared bus.
	if moved := after.GCWrites - before.GCWrites; moved > 0 {
		gcBytes := moved * pageBytes
		t := d.channels[ch].Serve(done, 2*gcBytes)
		t = d.dma.Serve(t, 2*gcBytes)
		if erased := after.GCRuns - before.GCRuns; erased > 0 {
			t += time.Duration(erased) * d.params.Timing.EraseLatency
		}
		done = t
	}
	return done, nil
}

// RestorePage writes one page without charging any virtual time — the
// path image loading uses to reconstruct device contents.
func (d *Device) RestorePage(lba int64, data []byte) error {
	return d.ftl.Write(ftl.LBA(lba), data)
}

// MappedPages calls fn for every mapped logical page in address order,
// with the stored contents (aliased; do not modify).
func (d *Device) MappedPages(fn func(lba int64, data []byte) error) error {
	for lba := int64(0); lba < d.ftl.LogicalPages(); lba++ {
		if _, ok := d.ftl.Lookup(ftl.LBA(lba)); !ok {
			continue
		}
		data, err := d.ftl.Read(ftl.LBA(lba))
		if err != nil {
			return err
		}
		if err := fn(lba, data); err != nil {
			return err
		}
	}
	return nil
}

// Trim discards the page at lba (data-management command; untimed).
func (d *Device) Trim(lba int64) error { return d.ftl.Trim(ftl.LBA(lba)) }

// Mapped reports whether lba currently holds data (has an FTL
// mapping). Out-of-range addresses report false. The probe is
// deliberately untimed: it models the controller consulting its
// in-DRAM mapping table (WAL recovery and log-region bookkeeping use
// it), not data-path NAND traffic — actual page reads on those paths
// go through ReadPage and are charged there.
func (d *Device) Mapped(lba int64) bool {
	if lba < 0 || lba >= d.ftl.LogicalPages() {
		return false
	}
	//lint:allow chargeconservation — in-DRAM mapping-table probe, not data traffic
	_, ok := d.ftl.Lookup(ftl.LBA(lba))
	return ok
}

// Activity summarizes device resource usage since the last ResetTiming,
// for bandwidth reporting and energy integration.
type Activity struct {
	// Busy time per resource class.
	ChannelBusy   time.Duration // summed over channels
	DMABusy       time.Duration
	LinkBusy      time.Duration
	DeviceCPUBusy time.Duration // summed over cores
	// Traffic.
	FlashPagesRead  int64
	FlashBytesRead  int64
	LinkBytesOut    int64
	LinkBytesIn     int64
	DeviceCPUCycles int64
	// Horizon is the latest completion time across all resources.
	Horizon time.Duration
}

// Activity reports resource usage since the last ResetTiming.
func (d *Device) Activity() Activity {
	a := Activity{
		DMABusy:         d.dma.BusyTime(),
		LinkBusy:        d.link.BusyTime(),
		DeviceCPUBusy:   d.dcpu.BusyTime(),
		FlashPagesRead:  d.flashPagesRead,
		FlashBytesRead:  d.flashPagesRead * int64(d.params.Geometry.PageSize),
		LinkBytesOut:    d.linkBytesOut,
		LinkBytesIn:     d.linkBytesIn,
		DeviceCPUCycles: d.dcpuCycles,
	}
	a.Horizon = d.dma.Horizon()
	for _, ch := range d.channels {
		a.ChannelBusy += ch.BusyTime()
		if h := ch.Horizon(); h > a.Horizon {
			a.Horizon = h
		}
	}
	if h := d.link.Horizon(); h > a.Horizon {
		a.Horizon = h
	}
	if h := d.dcpu.Horizon(); h > a.Horizon {
		a.Horizon = h
	}
	return a
}

// Bottleneck reports the name of the resource with the greatest
// per-lane busy time since the last ResetTiming — the stage that set the
// run's throughput. Parallel resources (flash channels, CPU cores)
// compare by average lane occupancy, serialized ones by total.
func (d *Device) Bottleneck() string {
	var chBusy time.Duration
	for _, ch := range d.channels {
		chBusy += ch.BusyTime()
	}
	candidates := []struct {
		name string
		busy time.Duration
	}{
		{"flash-channels", chBusy / time.Duration(len(d.channels))},
		{d.dma.Name(), d.dma.BusyTime()},
		{d.link.Name(), d.link.BusyTime()},
		{d.dcpu.Name(), d.dcpu.BusyTime() / time.Duration(d.dcpu.Lanes())},
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.busy > best.busy {
			best = c
		}
	}
	if best.busy == 0 {
		return "idle"
	}
	return best.name
}

// LinkMeter reports per-command host-link accounting since the last
// ResetTiming: commands issued, payload moved, and how much link busy
// time went to protocol turnaround rather than data.
func (d *Device) LinkMeter() hostif.Meter { return d.linkMeter }

// ResourceGroups reports the device's rate servers as metrics groups:
// the flash channels aggregated into one logical resource, plus the
// DMA bus, host link, and device CPU.
func (d *Device) ResourceGroups() []metrics.Group {
	return []metrics.Group{
		{Name: "flash-channels", Unit: "bytes", Servers: d.channels},
		metrics.GroupOf("dma-bus", "bytes", d.dma),
		metrics.GroupOf("host-link", "bytes", d.link),
		metrics.GroupOf("device-cpu", "cycles", d.dcpu),
	}
}

// Report snapshots per-resource utilization since the last ResetTiming,
// normalized over the elapsed window.
func (d *Device) Report(elapsed time.Duration) metrics.Report {
	return metrics.Snapshot(elapsed, d.ResourceGroups()...)
}

// SetTracer installs a per-request trace hook on every resource of the
// device (flash channels, DMA bus, host link, device CPU); nil removes
// it. Traces survive ResetTiming.
func (d *Device) SetTracer(fn sim.TraceFunc) {
	d.dma.SetTracer(fn)
	d.link.SetTracer(fn)
	d.dcpu.SetTracer(fn)
	for _, ch := range d.channels {
		ch.SetTracer(fn)
	}
}

// SetRecorder attaches an event recorder: every served request on every
// device resource is recorded, and FetchPage additionally records NAND
// sense spans. A nil recorder removes all hooks; with none attached the
// timing paths are allocation-free.
func (d *Device) SetRecorder(rec *trace.Recorder) {
	d.rec = rec
	if rec == nil {
		d.SetTracer(nil)
		return
	}
	d.SetTracer(rec.Hook())
}

// ResetTiming clears the clock, all servers, and traffic counters while
// preserving stored data. Experiments call this between runs to measure
// each query cold and independently.
func (d *Device) ResetTiming() {
	d.clock.Reset()
	d.dma.Reset()
	d.link.Reset()
	d.dcpu.Reset()
	for _, ch := range d.channels {
		ch.Reset()
	}
	d.flashPagesRead = 0
	d.linkBytesOut = 0
	d.linkBytesIn = 0
	d.dcpuCycles = 0
	d.linkMeter.Reset()
}

// Describe renders the device architecture (Figure 2) as text.
func (d *Device) Describe() string {
	p := d.params
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", p.Name)
	fmt.Fprintf(&b, "  host interface : %s\n", p.Host)
	fmt.Fprintf(&b, "  embedded CPU   : %d cores @ %.0f MHz\n", p.DeviceCPUCores, float64(p.DeviceCPUHz)/1e6)
	fmt.Fprintf(&b, "  device DRAM    : %d MB (shared by all flash channels; DMA serialized)\n", p.DeviceDRAMBytes/sim.MB)
	fmt.Fprintf(&b, "  DMA bus        : %.0f MB/s\n", float64(p.DMABusRate)/sim.MB)
	fmt.Fprintf(&b, "  flash          : %d channels x %d chips, %d MB/s per channel\n",
		p.Geometry.Channels, p.Geometry.ChipsPerChannel, int(float64(p.Timing.ChannelRate)/sim.MB))
	fmt.Fprintf(&b, "  NAND           : %d pages/block, %d B pages, %.1f GB raw\n",
		p.Geometry.PagesPerBlock, p.Geometry.PageSize, float64(p.Geometry.TotalBytes())/sim.GB)
	fmt.Fprintf(&b, "  capacity       : %.1f GB logical\n", float64(d.ftl.LogicalBytes())/sim.GB)
	fmt.Fprintf(&b, "  I/O unit       : %d pages (%d KB)\n", p.IOUnitPages, p.IOUnitPages*p.Geometry.PageSize/sim.KB)
	return b.String()
}
