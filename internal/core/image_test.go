package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"strings"
	"testing"

	"smartssd/internal/page"
	"smartssd/internal/schema"
)

// smallImage returns a real SaveImage output: the small test device
// holding one single-page NSM table.
func smallImage(tb testing.TB) []byte {
	tb.Helper()
	e, err := New(Config{SSD: smallSSD()})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.CreateTable("dim", dimSchema(), page.NSM, 4, OnSSD); err != nil {
		tb.Fatal(err)
	}
	i := 0
	err = e.Load("dim", func() (schema.Tuple, bool) {
		if i >= 40 {
			return nil, false
		}
		i++
		return schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(int64(3 * i))}, true
	})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveImage(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rewriteHeader decodes a saved image, lets edit change its header, and
// re-encodes it with the same page records.
func rewriteHeader(tb testing.TB, img []byte, edit func(*imageHeader)) []byte {
	tb.Helper()
	dec := gob.NewDecoder(bytes.NewReader(img[len(imageMagic):]))
	var hdr imageHeader
	if err := dec.Decode(&hdr); err != nil {
		tb.Fatal(err)
	}
	edit(&hdr)
	var out bytes.Buffer
	out.WriteString(imageMagic)
	enc := gob.NewEncoder(&out)
	if err := enc.Encode(hdr); err != nil {
		tb.Fatal(err)
	}
	for {
		var rec imageRecord
		if err := dec.Decode(&rec); err != nil {
			tb.Fatal(err)
		}
		if err := enc.Encode(rec); err != nil {
			tb.Fatal(err)
		}
		if rec.LBA < 0 {
			return out.Bytes()
		}
	}
}

// hostileHeaders are header edits a corrupt or crafted image can carry;
// each must make LoadImage return an error, never panic or allocate the
// size it names.
var hostileHeaders = []struct {
	name string
	edit func(*imageHeader)
	want string
}{
	{"empty column name", func(h *imageHeader) { h.Tables[0].Cols[0].Name = "" }, "empty name"},
	{"duplicate column", func(h *imageHeader) { h.Tables[0].Cols[1].Name = h.Tables[0].Cols[0].Name }, "duplicate column"},
	{"negative device cores", func(h *imageHeader) { h.Params.DeviceCPUCores = -3 }, "device CPU cores"},
	{"unknown column kind", func(h *imageHeader) { h.Tables[0].Cols[0].Kind = 99 }, "unknown kind"},
	{"huge geometry", func(h *imageHeader) { h.Params.Geometry.BlocksPerChip = 1 << 40 }, "pages"},
	{"overflowing geometry", func(h *imageHeader) {
		h.Params.Geometry.Channels = 1 << 31
		h.Params.Geometry.ChipsPerChannel = 1 << 31
		h.Params.Geometry.BlocksPerChip = 1 << 31
	}, "pages"},
	{"extent past the device", func(h *imageHeader) { h.Tables[0].MaxPages = 1 << 50 }, "extent"},
	{"negative extent", func(h *imageHeader) { h.Tables[0].StartLBA = -4 }, "extent"},
	{"unknown layout", func(h *imageHeader) { h.Tables[0].Layout = 7 }, "layout"},
	{"duplicate table", func(h *imageHeader) { h.Tables = append(h.Tables, h.Tables[0]) }, "twice"},
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage(Config{}, bytes.NewReader([]byte("not an image at all........"))); err == nil {
		t.Fatal("garbage accepted as image")
	}
	if _, err := LoadImage(Config{}, bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted as image")
	}
	img := smallImage(t)
	if _, err := LoadImage(Config{}, bytes.NewReader(img)); err != nil {
		t.Fatalf("unedited image: %v", err)
	}
	for _, c := range hostileHeaders {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadImage(Config{}, bytes.NewReader(rewriteHeader(t, img, c.edit)))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadImage error = %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

// FuzzLoadImage feeds LoadImage arbitrary bytes behind a real image's
// prefix: it must return an engine or an error, never panic, and an
// engine it returns must save again.
func FuzzLoadImage(f *testing.F) {
	img := smallImage(f)
	f.Add(img)
	for _, c := range hostileHeaders {
		f.Add(rewriteHeader(f, img, c.edit))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := LoadImage(Config{DisableHDD: true}, bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := e.SaveImage(io.Discard); err != nil {
			t.Fatalf("loaded image does not save: %v", err)
		}
	})
}
