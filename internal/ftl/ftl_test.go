package ftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"smartssd/internal/nand"
	"smartssd/internal/sim"
)

func smallGeo() nand.Geometry {
	return nand.Geometry{
		Channels:        4,
		ChipsPerChannel: 1,
		BlocksPerChip:   8,
		PagesPerBlock:   8,
		PageSize:        256,
	}
}

func newFTL(t *testing.T, geo nand.Geometry, cfg Config) *FTL {
	t.Helper()
	arr, err := nand.NewArray(geo, nand.Timing{
		ReadLatency: 50 * time.Microsecond, ChannelRate: sim.MBps(200),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func pageOf(f *FTL, tag uint64) []byte {
	b := make([]byte, f.PageSize())
	binary.LittleEndian.PutUint64(b, tag)
	return b
}

func TestLogicalCapacityRespectsOverProvision(t *testing.T) {
	f := newFTL(t, smallGeo(), Config{OverProvision: 0.25})
	raw := smallGeo().TotalPages()
	if got, want := f.LogicalPages(), int64(float64(raw)*0.75); got != want {
		t.Fatalf("LogicalPages = %d, want %d", got, want)
	}
	if f.LogicalBytes() != f.LogicalPages()*256 {
		t.Fatal("LogicalBytes inconsistent")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFTL(t, smallGeo(), Config{})
	for l := LBA(0); l < 20; l++ {
		if err := f.Write(l, pageOf(f, uint64(l)+1000)); err != nil {
			t.Fatalf("Write(%d): %v", l, err)
		}
	}
	for l := LBA(0); l < 20; l++ {
		got, err := f.Read(l)
		if err != nil {
			t.Fatalf("Read(%d): %v", l, err)
		}
		if binary.LittleEndian.Uint64(got) != uint64(l)+1000 {
			t.Fatalf("Read(%d) returned wrong page", l)
		}
	}
}

func TestOverwriteRemaps(t *testing.T) {
	f := newFTL(t, smallGeo(), Config{})
	f.Write(5, pageOf(f, 1))
	p1, _ := f.Lookup(5)
	f.Write(5, pageOf(f, 2))
	p2, ok := f.Lookup(5)
	if !ok {
		t.Fatal("LBA 5 unmapped after overwrite")
	}
	if p1 == p2 {
		t.Fatal("overwrite did not allocate a fresh physical page")
	}
	got, _ := f.Read(5)
	if binary.LittleEndian.Uint64(got) != 2 {
		t.Fatal("overwrite did not take effect")
	}
	// Nothing reads the stale page again, so its bytes are released
	// rather than held until its block is erased.
	if stale, err := f.array.Read(p1); err != nil || stale != nil {
		t.Fatalf("stale page still holds %d bytes (err %v)", len(stale), err)
	}
}

func TestReadUnmapped(t *testing.T) {
	f := newFTL(t, smallGeo(), Config{})
	if _, err := f.Read(3); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
}

func TestLBABounds(t *testing.T) {
	f := newFTL(t, smallGeo(), Config{})
	if err := f.Write(LBA(f.LogicalPages()), pageOf(f, 0)); !errors.Is(err, ErrLBAOutOfRange) {
		t.Errorf("Write past end err = %v", err)
	}
	if _, err := f.Read(-1); !errors.Is(err, ErrLBAOutOfRange) {
		t.Errorf("Read(-1) err = %v", err)
	}
	if err := f.Trim(LBA(f.LogicalPages())); !errors.Is(err, ErrLBAOutOfRange) {
		t.Errorf("Trim past end err = %v", err)
	}
}

func TestTrim(t *testing.T) {
	f := newFTL(t, smallGeo(), Config{})
	f.Write(7, pageOf(f, 1))
	if err := f.Trim(7); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Lookup(7); ok {
		t.Fatal("LBA still mapped after Trim")
	}
	if _, err := f.Read(7); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read after trim err = %v", err)
	}
	// Trim of unmapped LBA is a no-op, not an error.
	if err := f.Trim(7); err != nil {
		t.Fatalf("double trim: %v", err)
	}
}

func TestSequentialWritesStripeAcrossChannels(t *testing.T) {
	geo := smallGeo()
	f := newFTL(t, geo, Config{})
	seen := make(map[int]bool)
	for l := LBA(0); l < LBA(geo.Channels); l++ {
		f.Write(l, pageOf(f, uint64(l)))
		p, _ := f.Lookup(l)
		seen[geo.Decompose(p).Channel] = true
	}
	if len(seen) != geo.Channels {
		t.Fatalf("first %d sequential writes hit %d channels, want all %d",
			geo.Channels, len(seen), geo.Channels)
	}
}

// Fill the device, then overwrite it repeatedly: GC must reclaim space
// and every LBA must remain readable with its latest contents.
func TestGarbageCollectionPreservesData(t *testing.T) {
	geo := smallGeo()
	f := newFTL(t, geo, Config{OverProvision: 0.25, GCLowWater: 2})
	n := f.LogicalPages()
	shadow := make(map[LBA]uint64)
	rng := rand.New(rand.NewSource(42))
	// Initial fill.
	for l := LBA(0); int64(l) < n; l++ {
		tag := rng.Uint64()
		if err := f.Write(l, pageOf(f, tag)); err != nil {
			t.Fatalf("fill Write(%d): %v", l, err)
		}
		shadow[l] = tag
	}
	// Random overwrites, 4x the device size, forcing GC.
	for i := int64(0); i < 4*n; i++ {
		l := LBA(rng.Int63n(n))
		tag := rng.Uint64()
		if err := f.Write(l, pageOf(f, tag)); err != nil {
			t.Fatalf("overwrite %d of lba %d: %v", i, l, err)
		}
		shadow[l] = tag
	}
	for l, tag := range shadow {
		got, err := f.Read(l)
		if err != nil {
			t.Fatalf("Read(%d) after GC churn: %v", l, err)
		}
		if binary.LittleEndian.Uint64(got) != tag {
			t.Fatalf("lba %d corrupted after GC churn", l)
		}
	}
	s := f.Stats()
	if s.GCRuns == 0 {
		t.Fatal("workload did not trigger GC; test is not exercising the collector")
	}
	if s.WriteAmplification < 1.0 {
		t.Fatalf("write amplification %.2f < 1", s.WriteAmplification)
	}
}

// A page GC relocates is programmed into a fresh physical page, so
// the record that it passed its checksum does not follow it: the next
// reader checks it again. Rewritten pages lose their record the same
// way.
func TestRelocatedPageIsCheckedAgain(t *testing.T) {
	f := newFTL(t, smallGeo(), Config{OverProvision: 0.25, GCLowWater: 2})
	n := f.LogicalPages()
	for l := LBA(0); int64(l) < n; l++ {
		if err := f.Write(l, pageOf(f, uint64(l))); err != nil {
			t.Fatal(err)
		}
	}
	for l := LBA(0); int64(l) < n; l++ {
		buf, err := f.Read(l)
		if err != nil {
			t.Fatal(err)
		}
		f.MarkChecked(l, buf)
		if !f.Checked(l, buf) {
			t.Fatalf("lba %d: mark did not stick", l)
		}
	}
	// Overwrite every LBA but 0 until GC relocates LBA 0.
	const cold = LBA(0)
	before, _ := f.Lookup(cold)
	oldBuf, _ := f.Read(cold)
	rng := rand.New(rand.NewSource(7))
	rewritten := make(map[LBA]bool)
	for i := int64(0); i < 8*n; i++ {
		if p, _ := f.Lookup(cold); p != before {
			break
		}
		l := LBA(1 + rng.Int63n(n-1))
		if err := f.Write(l, pageOf(f, uint64(l))); err != nil {
			t.Fatal(err)
		}
		rewritten[l] = true
	}
	if p, _ := f.Lookup(cold); p == before {
		t.Fatal("GC never relocated the cold page; test is not exercising relocation")
	}
	buf, err := f.Read(cold)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(buf) != uint64(cold) {
		t.Fatal("relocated page lost its contents")
	}
	if f.Checked(cold, buf) || f.Checked(cold, oldBuf) {
		t.Fatal("relocated page kept its checked mark")
	}
	f.MarkChecked(cold, buf)
	if !f.Checked(cold, buf) {
		t.Fatal("relocated page: mark did not stick")
	}
	for l := range rewritten {
		if buf, err := f.Read(l); err != nil || f.Checked(l, buf) {
			t.Fatalf("rewritten lba %d: err %v, checked %v", l, err, f.Checked(l, buf))
		}
	}
}

func TestStatsZeroValue(t *testing.T) {
	f := newFTL(t, smallGeo(), Config{})
	s := f.Stats()
	if s.HostWrites != 0 || s.WriteAmplification != 0 {
		t.Fatalf("fresh Stats = %+v", s)
	}
}

func TestSequentialReadAfterFullFill(t *testing.T) {
	f := newFTL(t, smallGeo(), Config{})
	n := f.LogicalPages()
	for l := LBA(0); int64(l) < n; l++ {
		if err := f.Write(l, pageOf(f, uint64(l))); err != nil {
			t.Fatalf("Write(%d/%d): %v", l, n, err)
		}
	}
	for l := LBA(0); int64(l) < n; l++ {
		got, err := f.Read(l)
		if err != nil {
			t.Fatalf("Read(%d): %v", l, err)
		}
		want := pageOf(f, uint64(l))
		if !bytes.Equal(got, want) {
			t.Fatalf("lba %d mismatch", l)
		}
	}
}

func TestExcessiveOverProvisionRejected(t *testing.T) {
	arr, _ := nand.NewArray(smallGeo(), nand.Timing{})
	if _, err := New(arr, Config{OverProvision: 0.9999}); err == nil {
		t.Fatal("FTL accepted over-provision that leaves no logical space")
	}
}

// A single-channel device with minimal over-provisioning forces the
// in-place compaction path: free blocks run out while stale pages sit in
// full blocks, and the FTL must reclaim via its RAM staging buffer
// rather than deadlock.
func TestCompactionUnderTightOverProvision(t *testing.T) {
	geo := nand.Geometry{
		Channels: 1, ChipsPerChannel: 1,
		BlocksPerChip: 4, PagesPerBlock: 4, PageSize: 128,
	}
	f := newFTL(t, geo, Config{OverProvision: 0.25, GCLowWater: 1})
	n := f.LogicalPages() // 12 of 16 raw pages
	shadow := make([]uint64, n)
	write := func(l LBA, tag uint64) {
		t.Helper()
		if err := f.Write(l, pageOf(f, tag)); err != nil {
			t.Fatalf("Write(%d, %d): %v", l, tag, err)
		}
		shadow[l] = tag
	}
	var tag uint64
	for l := LBA(0); int64(l) < n; l++ {
		tag++
		write(l, tag)
	}
	for round := 0; round < 8; round++ {
		for l := LBA(0); int64(l) < n; l++ {
			tag++
			write(l, tag)
		}
	}
	for l := LBA(0); int64(l) < n; l++ {
		got, err := f.Read(l)
		if err != nil {
			t.Fatalf("Read(%d): %v", l, err)
		}
		if binary.LittleEndian.Uint64(got) != shadow[l] {
			t.Fatalf("lba %d corrupted under compaction churn", l)
		}
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("tight workload never reclaimed a block")
	}
}
