package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"

	"smartssd/internal/heap"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/ssd"
)

// A system image serializes an engine's SSD-resident state — the device
// parameters, every mapped page, and the table catalog — so a dataset
// generated once can be reloaded by the tools and examples without
// regenerating it. HDD-resident tables are not imaged (the HDD exists
// only as the Table 3 baseline).
//
// Format: a magic string, then a gob stream: header (device parameters
// and catalog), followed by {LBA, page bytes} records, terminated by a
// record with LBA -1.

const imageMagic = "SMARTSSD-IMG-1\n"

// Bounds on the device a decoded image header may ask LoadImage to
// build. The device's per-page and per-lane state is allocated from the
// header before any page record is read, so without them a few crafted
// bytes could demand any amount of memory. Both sit well above the
// default device's 524,288 pages, 8 channels and 3 cores.
const (
	maxImagePages = 1 << 22
	maxImageLanes = 1 << 10 // flash channels, and device CPU cores
)

type imageTable struct {
	Name       string
	Cols       []schema.Column
	Layout     page.Layout
	StartLBA   int64
	Pages      int64
	MaxPages   int64
	TupleCount int64
}

type imageHeader struct {
	Params ssd.Params
	Tables []imageTable
}

type imageRecord struct {
	LBA  int64
	Data []byte
}

// SaveImage writes the engine's SSD device contents and catalog to w.
func (e *Engine) SaveImage(w io.Writer) error {
	if _, err := io.WriteString(w, imageMagic); err != nil {
		return err
	}
	enc := gob.NewEncoder(w)
	hdr := imageHeader{Params: e.ssd.Params()}
	// Catalog order must not depend on map iteration: a saved image is
	// compared byte-for-byte by tests and cached by tools.
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := e.tables[name]
		if t.Target != OnSSD {
			continue
		}
		hdr.Tables = append(hdr.Tables, imageTable{
			Name:       name,
			Cols:       t.File.Schema().Columns(),
			Layout:     t.File.Layout(),
			StartLBA:   t.File.StartLBA(),
			Pages:      t.File.Pages(),
			MaxPages:   t.File.MaxPages(),
			TupleCount: t.File.TupleCount(),
		})
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("core: image header: %w", err)
	}
	err := e.ssd.MappedPages(func(lba int64, data []byte) error {
		return enc.Encode(imageRecord{LBA: lba, Data: data})
	})
	if err != nil {
		return fmt.Errorf("core: image pages: %w", err)
	}
	return enc.Encode(imageRecord{LBA: -1})
}

// LoadImage builds an engine from a system image written by SaveImage.
// The image's device parameters override cfg.SSD; the other Config
// fields (host, HDD, energy, cost model) apply as usual.
func LoadImage(cfg Config, r io.Reader) (*Engine, error) {
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("core: image magic: %w", err)
	}
	if string(magic) != imageMagic {
		return nil, errors.New("core: not a smartssd system image")
	}
	dec := gob.NewDecoder(r)
	var hdr imageHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("core: image header: %w", err)
	}
	if err := hdr.check(); err != nil {
		return nil, fmt.Errorf("core: image header: %w", err)
	}
	// The image dictates device geometry and timing, but fault injection
	// is a run-time choice of the loading caller, not a property of the
	// stored data.
	fc := cfg.SSD.Fault
	cfg.SSD = hdr.Params
	cfg.SSD.Fault = fc
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for {
		var rec imageRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("core: image record: %w", err)
		}
		if rec.LBA < 0 {
			break
		}
		if err := e.ssd.RestorePage(rec.LBA, rec.Data); err != nil {
			return nil, fmt.Errorf("core: restore lba %d: %w", rec.LBA, err)
		}
	}
	for _, t := range hdr.Tables {
		f := heap.Open(t.Name, e.ssd, schema.New(t.Cols...), t.Layout,
			t.StartLBA, t.Pages, t.MaxPages, t.TupleCount)
		e.tables[t.Name] = &Table{File: f, Target: OnSSD}
		e.ssdAlloc.Restore(t.StartLBA + t.MaxPages)
	}
	// An image taken after a crash carries the WAL region's pages;
	// replay committed transactions so the loaded engine is exactly the
	// committed-prefix state. Images with no log pages skip this
	// entirely (zero-update images load byte-identically to before the
	// durability layer existed).
	if _, err := e.Recover(); err != nil {
		return nil, err
	}
	e.ResetTiming()
	e.markRunBaseline()
	return e, nil
}

// check rejects a header that would make LoadImage panic or allocate
// without bound: a geometry or lane count past the bounds above, a
// column list schema.New would refuse, an unknown page layout, or a
// table extent outside the device.
func (h *imageHeader) check() error {
	p := h.Params
	g := p.Geometry
	pages := int64(1)
	for _, n := range []int{g.Channels, g.ChipsPerChannel, g.BlocksPerChip, g.PagesPerBlock} {
		if n < 1 || int64(n) > maxImagePages/pages {
			return fmt.Errorf("geometry %+v is not 1 to %d pages", g, maxImagePages)
		}
		pages *= int64(n)
	}
	if g.Channels > maxImageLanes {
		return fmt.Errorf("%d flash channels, more than %d", g.Channels, maxImageLanes)
	}
	if p.DeviceCPUCores < 1 || p.DeviceCPUCores > maxImageLanes {
		return fmt.Errorf("%d device CPU cores, want 1 to %d", p.DeviceCPUCores, maxImageLanes)
	}
	seen := make(map[string]bool, len(h.Tables))
	for _, t := range h.Tables {
		if seen[t.Name] {
			return fmt.Errorf("table %q listed twice", t.Name)
		}
		seen[t.Name] = true
		if err := schema.Check(t.Cols...); err != nil {
			return fmt.Errorf("table %q: %w", t.Name, err)
		}
		if t.Layout != page.NSM && t.Layout != page.PAX {
			return fmt.Errorf("table %q: unknown layout %v", t.Name, t.Layout)
		}
		if t.StartLBA < 0 || t.Pages < 0 || t.Pages > t.MaxPages || t.MaxPages > pages-t.StartLBA || t.TupleCount < 0 {
			return fmt.Errorf("table %q: extent of %d/%d pages at LBA %d (%d tuples) does not fit a %d-page device",
				t.Name, t.Pages, t.MaxPages, t.StartLBA, t.TupleCount, pages)
		}
	}
	return nil
}
