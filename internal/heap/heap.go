// Package heap implements heap files: tables stored as contiguous page
// extents on a simulated block device, the way the paper's workloads are
// stored ("we created a SQL Server heap table (without a clustered
// index)").
//
// A heap file owns an extent of logical pages, fills them through a
// page.Builder in either NSM or PAX layout, and scans them back with the
// device's I/O-unit-sized sequential reads. The BlockDevice interface is
// satisfied by both *ssd.Device and *hdd.Device, so the same file code
// runs on every device in the experiments.
package heap

import (
	"errors"
	"fmt"
	"time"

	"smartssd/internal/page"
	"smartssd/internal/schema"
)

// BlockDevice is the timed block-device surface heap files consume.
// *ssd.Device and *hdd.Device implement it.
type BlockDevice interface {
	// PageSize reports the device page size in bytes.
	PageSize() int
	// IOUnitPages reports the device's host I/O request size in pages.
	IOUnitPages() int
	// CapacityPages reports the addressable capacity in pages.
	CapacityPages() int64
	// ReadPage reads one page, returning data and host arrival time.
	ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error)
	// ReadRange reads count pages from start in I/O-unit requests,
	// calling fn per page with the request's arrival time.
	ReadRange(start, count int64, ready time.Duration, fn func(lba int64, data []byte, arrival time.Duration) error) (time.Duration, error)
	// WritePage writes one page, returning its completion time.
	WritePage(lba int64, data []byte, ready time.Duration) (time.Duration, error)
	// The device remembers which stored pages passed their checksum,
	// so a scan checksums each page once per write.
	page.CheckMemo
}

// Allocator hands out contiguous extents on one device. The zero value
// allocates from page zero.
type Allocator struct {
	next int64
}

// ErrNoSpace is reported when a device cannot hold a requested extent.
var ErrNoSpace = errors.New("heap: device out of space")

// Allocate reserves n contiguous pages on dev and reports the extent's
// first LBA.
func (a *Allocator) Allocate(dev BlockDevice, n int64) (int64, error) {
	if a.next+n > dev.CapacityPages() {
		return 0, fmt.Errorf("%w: want %d pages at %d, capacity %d",
			ErrNoSpace, n, a.next, dev.CapacityPages())
	}
	start := a.next
	a.next += n
	return start, nil
}

// Used reports how many pages have been allocated so far.
func (a *Allocator) Used() int64 { return a.next }

// Restore moves the allocation frontier to at least next, when
// reattaching files from a saved image.
func (a *Allocator) Restore(next int64) {
	if next > a.next {
		a.next = next
	}
}

// File is a heap file: tuples of one schema in one layout, stored on a
// contiguous extent of a device. Create one with Create, fill it with an
// Appender, then read it with Scan.
type File struct {
	name   string
	dev    BlockDevice
	schema *schema.Schema
	layout page.Layout

	startLBA   int64
	pages      int64 // pages written so far
	maxPages   int64 // extent size
	tupleCount int64
}

// Create allocates an extent of maxPages pages on dev for a heap file.
func Create(name string, dev BlockDevice, alloc *Allocator, s *schema.Schema, l page.Layout, maxPages int64) (*File, error) {
	if dev.PageSize() != page.PageSize {
		return nil, fmt.Errorf("heap: device page size %d, file format needs %d", dev.PageSize(), page.PageSize)
	}
	start, err := alloc.Allocate(dev, maxPages)
	if err != nil {
		return nil, err
	}
	return &File{
		name:     name,
		dev:      dev,
		schema:   s,
		layout:   l,
		startLBA: start,
		maxPages: maxPages,
	}, nil
}

// Open reattaches a heap file to an existing extent, e.g. when loading
// a saved system image. The caller supplies the metadata Create and the
// appenders originally produced.
func Open(name string, dev BlockDevice, s *schema.Schema, l page.Layout, startLBA, pages, maxPages, tupleCount int64) *File {
	return &File{
		name:       name,
		dev:        dev,
		schema:     s,
		layout:     l,
		startLBA:   startLBA,
		pages:      pages,
		maxPages:   maxPages,
		tupleCount: tupleCount,
	}
}

// Name reports the file (table) name.
func (f *File) Name() string { return f.name }

// Schema reports the tuple schema.
func (f *File) Schema() *schema.Schema { return f.schema }

// Layout reports the page layout.
func (f *File) Layout() page.Layout { return f.layout }

// StartLBA reports the extent's first page address.
func (f *File) StartLBA() int64 { return f.startLBA }

// Pages reports the number of pages written.
func (f *File) Pages() int64 { return f.pages }

// MaxPages reports the extent size.
func (f *File) MaxPages() int64 { return f.maxPages }

// TupleCount reports the number of tuples stored.
func (f *File) TupleCount() int64 { return f.tupleCount }

// Bytes reports the stored data volume (whole pages).
func (f *File) Bytes() int64 { return f.pages * int64(page.PageSize) }

// Device reports the device the file lives on.
func (f *File) Device() BlockDevice { return f.dev }

// TuplesPerPage reports the page capacity under the file's layout —
// e.g. the "51 tuples per data page" the paper cites for LINEITEM.
func (f *File) TuplesPerPage() int { return page.Capacity(f.schema, f.layout) }

// An Appender bulk-loads tuples into a heap file. Close flushes the
// final partial page. Appends are untimed (loads precede the measured
// cold runs; the experiment harness resets device timing afterwards).
type Appender struct {
	f       *File
	builder *page.Builder
	closed  bool
}

// NewAppender starts a bulk load at the file's current end.
func (f *File) NewAppender() *Appender {
	b := page.NewBuilder(f.schema, f.layout)
	b.Reset(uint32(f.pages))
	return &Appender{f: f, builder: b}
}

// Append adds one tuple, flushing a full page to the device as needed.
func (a *Appender) Append(t schema.Tuple) error {
	if a.closed {
		return errors.New("heap: append to closed appender")
	}
	if a.builder.Append(t) {
		a.f.tupleCount++
		return nil
	}
	if err := a.flush(); err != nil {
		return err
	}
	if !a.builder.Append(t) {
		return fmt.Errorf("heap: tuple does not fit in an empty %v page", a.f.layout)
	}
	a.f.tupleCount++
	return nil
}

func (a *Appender) flush() error {
	if a.builder.Count() == 0 {
		return nil
	}
	if a.f.pages >= a.f.maxPages {
		return fmt.Errorf("%w: file %q extent of %d pages is full", ErrNoSpace, a.f.name, a.f.maxPages)
	}
	lba := a.f.startLBA + a.f.pages
	if _, err := a.f.dev.WritePage(lba, a.builder.Finish(), 0); err != nil {
		return fmt.Errorf("heap: flush page %d of %q: %w", a.f.pages, a.f.name, err)
	}
	a.f.pages++
	a.builder.Reset(uint32(a.f.pages))
	return nil
}

// Close flushes the final partial page. The appender is unusable after.
func (a *Appender) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	return a.flush()
}

// Scan reads every page of the file sequentially, calling fn with a
// bound page reader and the page's host arrival time. The reader is
// reused across pages; fn must not retain it. Scan reports the virtual
// completion time of the last I/O.
func (f *File) Scan(ready time.Duration, fn func(r *page.Reader, arrival time.Duration) error) (time.Duration, error) {
	return f.ScanRange(0, f.pages, ready, fn)
}

// ScanRange reads pages [from, from+n) of the file sequentially, calling
// fn like Scan does. It reports the completion time of the last I/O.
func (f *File) ScanRange(from, n int64, ready time.Duration, fn func(r *page.Reader, arrival time.Duration) error) (time.Duration, error) {
	if from < 0 || from+n > f.pages {
		return 0, fmt.Errorf("heap: page range [%d,%d) out of file's %d pages", from, from+n, f.pages)
	}
	r := page.ReaderFor(f.schema)
	return f.dev.ReadRange(f.startLBA+from, n, ready,
		func(lba int64, data []byte, arrival time.Duration) error {
			if err := r.BindStored(f.dev, lba, data); err != nil {
				return fmt.Errorf("heap: page %d of %q: %w", lba-f.startLBA, f.name, err)
			}
			return fn(r, arrival)
		})
}

// ReadPageAt reads page index idx (0-based within the file), returning a
// new bound reader and the arrival time.
func (f *File) ReadPageAt(idx int64, ready time.Duration) (*page.Reader, time.Duration, error) {
	if idx < 0 || idx >= f.pages {
		return nil, 0, fmt.Errorf("heap: page index %d out of range [0,%d)", idx, f.pages)
	}
	lba := f.startLBA + idx
	data, at, err := f.dev.ReadPage(lba, ready)
	if err != nil {
		return nil, 0, err
	}
	r := page.ReaderFor(f.schema)
	if err := r.BindStored(f.dev, lba, data); err != nil {
		return nil, 0, err
	}
	return r, at, nil
}
