// Package hdd models the 10K RPM SAS hard disk used as the energy
// baseline in the paper's Table 3 experiment.
//
// Only the behaviours that experiment depends on are modeled: sustained
// sequential transfer bandwidth, seek plus rotational latency on
// non-sequential access, and the power profile (spindle keeps drawing
// power at idle, which is why the HDD loses the energy comparison by
// more than it loses the elapsed-time comparison).
//
// The device stores real page data in memory and implements the same
// timed block-device surface as ssd.Device (PageSize, ReadPage,
// ReadRange, WritePage, CapacityPages, Activity, ResetTiming), so heap
// files and the host executor run on either device unchanged.
package hdd

import (
	"errors"
	"fmt"
	"time"

	"smartssd/internal/metrics"
	"smartssd/internal/sim"
)

// Params configures a simulated disk. Zero fields take DefaultParams.
type Params struct {
	// Name labels the device in reports.
	Name string
	// RPM is the spindle speed; rotational latency is half a revolution.
	RPM int
	// AvgSeek is the average seek time for a random access.
	AvgSeek time.Duration
	// TransferRate is the sustained media transfer rate.
	TransferRate sim.Rate
	// CommandOverhead is the per-command protocol latency.
	CommandOverhead time.Duration
	// PageSize is the database page size served, in bytes.
	PageSize int
	// CapacityPages is the addressable capacity in pages.
	CapacityPages int64
	// IOUnitPages is the host request size in pages.
	IOUnitPages int
}

// DefaultParams reports the paper's baseline: a 146 GB 10K RPM SAS HDD.
func DefaultParams() Params {
	return Params{
		Name:            "10K RPM SAS HDD (simulated)",
		RPM:             10000,
		AvgSeek:         4500 * time.Microsecond,
		TransferRate:    sim.MBps(85),
		CommandOverhead: 15 * time.Microsecond,
		PageSize:        8192,
		CapacityPages:   146 * sim.GB / 8192,
		IOUnitPages:     32,
	}
}

func (p *Params) fill() {
	d := DefaultParams()
	if p.Name == "" {
		p.Name = d.Name
	}
	if p.RPM == 0 {
		p.RPM = d.RPM
	}
	if p.AvgSeek == 0 {
		p.AvgSeek = d.AvgSeek
	}
	if p.TransferRate == 0 {
		p.TransferRate = d.TransferRate
	}
	if p.CommandOverhead == 0 {
		p.CommandOverhead = d.CommandOverhead
	}
	if p.PageSize == 0 {
		p.PageSize = d.PageSize
	}
	if p.CapacityPages == 0 {
		p.CapacityPages = d.CapacityPages
	}
	if p.IOUnitPages == 0 {
		p.IOUnitPages = d.IOUnitPages
	}
}

// Errors reported by disk operations.
var (
	ErrOutOfRange = errors.New("hdd: lba out of range")
	ErrUnwritten  = errors.New("hdd: read of unwritten lba")
	ErrPageSize   = errors.New("hdd: payload is not one page")
)

// Device is a simulated disk. Not safe for concurrent use.
type Device struct {
	params       Params
	media        *sim.Server // platter + head: one request at a time
	store        map[int64]stored
	head         int64 // lba following the last transfer, for seek detection
	bytesRead    int64
	bytesWritten int64
	seeks        int64
}

// stored is one written page: its buffer, never modified in place, and
// whether that buffer has passed a reader's checksum.
type stored struct {
	data    []byte
	checked bool
}

// New builds a disk. A zero Params gives the paper's baseline drive.
func New(params Params) (*Device, error) {
	params.fill()
	if params.PageSize < 1 || params.CapacityPages < 1 || params.RPM < 1 {
		return nil, fmt.Errorf("hdd: invalid params %+v", params)
	}
	return &Device{
		params: params,
		media:  sim.NewServer("hdd-media", params.TransferRate),
		store:  make(map[int64]stored),
		head:   -1,
	}, nil
}

// Params reports the disk configuration.
func (d *Device) Params() Params { return d.params }

// PageSize reports the page size in bytes.
func (d *Device) PageSize() int { return d.params.PageSize }

// IOUnitPages reports the host I/O request size in pages.
func (d *Device) IOUnitPages() int { return d.params.IOUnitPages }

// CapacityPages reports the addressable capacity in pages.
func (d *Device) CapacityPages() int64 { return d.params.CapacityPages }

// rotationalLatency is half a revolution, the expected wait.
func (d *Device) rotationalLatency() time.Duration {
	return time.Duration(float64(time.Minute) / float64(d.params.RPM) / 2)
}

// positioning reports the head-positioning penalty for an access at lba:
// zero when sequential with the previous access, seek plus rotational
// latency otherwise.
func (d *Device) positioning(lba int64) time.Duration {
	if lba == d.head {
		return 0
	}
	d.seeks++
	return d.params.AvgSeek + d.rotationalLatency()
}

func (d *Device) checkLBA(lba int64) error {
	if lba < 0 || lba >= d.params.CapacityPages {
		return fmt.Errorf("%w: %d", ErrOutOfRange, lba)
	}
	return nil
}

// ReadPage reads one page, returning its data and host arrival time.
func (d *Device) ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error) {
	if err := d.checkLBA(lba); err != nil {
		return nil, 0, err
	}
	pg, ok := d.store[lba]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrUnwritten, lba)
	}
	pos := d.positioning(lba)
	done := d.media.Serve(ready+d.params.CommandOverhead+pos, int64(d.params.PageSize))
	d.head = lba + 1
	d.bytesRead += int64(d.params.PageSize)
	return pg.data, done, nil
}

// ReadRange reads count pages from start in IOUnitPages-sized requests,
// calling fn per page with the request's host arrival time, and returns
// the completion time of the final request.
func (d *Device) ReadRange(start, count int64, ready time.Duration, fn func(lba int64, data []byte, arrival time.Duration) error) (time.Duration, error) {
	if err := d.checkLBA(start); err != nil {
		return 0, err
	}
	if count > 0 {
		if err := d.checkLBA(start + count - 1); err != nil {
			return 0, err
		}
	}
	unit := int64(d.params.IOUnitPages)
	var last time.Duration
	for off := int64(0); off < count; off += unit {
		n := unit
		if off+n > count {
			n = count - off
		}
		first := start + off
		pos := d.positioning(first)
		arrival := d.media.Serve(ready+d.params.CommandOverhead+pos, n*int64(d.params.PageSize))
		d.head = first + n
		d.bytesRead += n * int64(d.params.PageSize)
		for i := int64(0); i < n; i++ {
			pg, ok := d.store[first+i]
			if !ok {
				return arrival, fmt.Errorf("%w: %d", ErrUnwritten, first+i)
			}
			if err := fn(first+i, pg.data, arrival); err != nil {
				return arrival, err
			}
		}
		last = arrival
	}
	return last, nil
}

// WritePage stores one page, returning its completion time.
func (d *Device) WritePage(lba int64, data []byte, ready time.Duration) (time.Duration, error) {
	if err := d.checkLBA(lba); err != nil {
		return 0, err
	}
	if len(data) != d.params.PageSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrPageSize, len(data))
	}
	pos := d.positioning(lba)
	done := d.media.Serve(ready+d.params.CommandOverhead+pos, int64(d.params.PageSize))
	d.head = lba + 1
	// Stored buffers are immutable: a rewrite replaces the buffer rather
	// than updating it in place, so clones can share page contents.
	buf := make([]byte, d.params.PageSize)
	copy(buf, data)
	d.store[lba] = stored{data: buf}
	d.bytesWritten += int64(d.params.PageSize)
	return done, nil
}

// Clone returns a disk with the same stored contents and fresh timing
// state (new media server, zeroed counters, parked head). Page buffers
// are shared — WritePage replaces rather than mutates them — while each
// clone writes into its own store map, so clones never disturb each
// other or the receiver.
func (d *Device) Clone() *Device {
	nd := &Device{
		params: d.params,
		media:  sim.NewServer("hdd-media", d.params.TransferRate),
		store:  make(map[int64]stored, len(d.store)),
		head:   -1,
	}
	for lba, pg := range d.store {
		nd.store[lba] = pg
	}
	return nd
}

// Checked reports whether buf is the page stored at lba and has passed
// its checksum since it was written.
func (d *Device) Checked(lba int64, buf []byte) bool {
	pg := d.store[lba]
	return pg.checked && holds(pg.data, buf)
}

// MarkChecked records that buf, the page stored at lba, passed its
// checksum. WritePage stores a fresh buffer, which clears the mark.
func (d *Device) MarkChecked(lba int64, buf []byte) {
	if pg, ok := d.store[lba]; ok && !pg.checked && holds(pg.data, buf) {
		d.store[lba] = stored{data: pg.data, checked: true}
	}
}

// holds reports whether buf is the stored buffer data itself.
func holds(data, buf []byte) bool {
	return len(data) > 0 && len(buf) == len(data) && &data[0] == &buf[0]
}

// SetTracer installs (or, with nil, removes) a per-request trace hook
// on the disk's media server.
func (d *Device) SetTracer(fn sim.TraceFunc) { d.media.SetTracer(fn) }

// ResourceGroups reports the disk's rate servers as metrics groups.
func (d *Device) ResourceGroups() []metrics.Group {
	return []metrics.Group{metrics.GroupOf("hdd-media", "bytes", d.media)}
}

// Report snapshots media utilization since the last ResetTiming,
// normalized over the elapsed window.
func (d *Device) Report(elapsed time.Duration) metrics.Report {
	return metrics.Snapshot(elapsed, d.ResourceGroups()...)
}

// Activity summarizes disk usage since the last ResetTiming.
type Activity struct {
	MediaBusy    time.Duration
	BytesRead    int64
	BytesWritten int64
	Seeks        int64
	Horizon      time.Duration
}

// Activity reports disk usage since the last ResetTiming.
func (d *Device) Activity() Activity {
	return Activity{
		MediaBusy:    d.media.BusyTime(),
		BytesRead:    d.bytesRead,
		BytesWritten: d.bytesWritten,
		Seeks:        d.seeks,
		Horizon:      d.media.Horizon(),
	}
}

// ResetTiming clears timing and counters, preserving stored data.
func (d *Device) ResetTiming() {
	d.media.Reset()
	d.bytesRead, d.bytesWritten, d.seeks = 0, 0, 0
	d.head = -1
}
