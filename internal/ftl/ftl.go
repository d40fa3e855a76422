// Package ftl implements a page-mapped Flash Translation Layer: the
// firmware component that maps host Logical Block Addresses (LBAs) to
// Physical Block Addresses in the NAND array (§2 of the paper).
//
// The design is a straightforward page-level FTL of the kind embedded
// controllers run:
//
//   - A full page map (one entry per LBA) plus a reverse map for GC.
//   - Write allocation stripes consecutive writes round-robin across the
//     flash channels, then across chips, which is what makes the array's
//     channel-level parallelism visible to sequential I/O (and is the
//     source of the "internal bandwidth" the paper exploits).
//   - Over-provisioned blocks feed a per-channel free list; greedy
//     cost-based garbage collection reclaims the lowest-valid-count block
//     when a channel's free list runs low.
//
// The FTL performs data movement against the nand.Array (bit-exact) but
// no timing; the controller in package ssd charges time for the
// operations the FTL reports.
package ftl

import (
	"errors"
	"fmt"
	"sync/atomic"

	"smartssd/internal/fault"
	"smartssd/internal/nand"
)

// DefaultOverProvision is the fraction of raw capacity reserved for GC
// headroom when Config.OverProvision is zero.
const DefaultOverProvision = 0.125

// Config parameterizes the FTL.
type Config struct {
	// OverProvision is the fraction of raw flash reserved (invisible to
	// the host). Defaults to DefaultOverProvision.
	OverProvision float64
	// GCLowWater is the per-channel free-block count that triggers
	// garbage collection. Defaults to 2.
	GCLowWater int
	// MaxReadRetries bounds the read-retry ladder walked after a
	// transient NAND read error before the page is declared
	// uncorrectable. Defaults to 3.
	MaxReadRetries int
	// MaxProgramRetries bounds how many fresh page slots a single write
	// may consume when programs keep failing. Defaults to 4.
	MaxProgramRetries int
}

func (c *Config) fill() {
	if c.OverProvision <= 0 {
		c.OverProvision = DefaultOverProvision
	}
	if c.GCLowWater <= 0 {
		c.GCLowWater = 2
	}
	if c.MaxReadRetries <= 0 {
		c.MaxReadRetries = 3
	}
	if c.MaxProgramRetries <= 0 {
		c.MaxProgramRetries = 4
	}
}

// LBA is a host logical block (page) address.
type LBA int64

// Errors reported by FTL operations.
var (
	ErrLBAOutOfRange = errors.New("ftl: lba out of range")
	ErrUnmapped      = errors.New("ftl: read of unmapped lba")
	ErrDeviceFull    = errors.New("ftl: no free blocks (device full)")
)

// FTL is a page-mapped flash translation layer over a nand.Array.
// Not safe for concurrent use (the simulator is single-threaded).
type FTL struct {
	array *nand.Array
	geo   nand.Geometry
	cfg   Config

	logicalPages int64
	// The mapping tables store ppa+1 and lba+1, so zero — what make
	// hands out — means unmapped (l2p) or free/stale (p2l): a fresh
	// device never writes, and so never makes resident, the table tail no
	// LBA has reached (7.9 MB per device at the default geometry). Only
	// ppaOf, lbaOf, bind and unbind know the encoding.
	l2p []nand.PPA // LBA -> PPA+1
	p2l []LBA      // PPA -> LBA+1

	validCount []int            // valid pages per block
	freeBlocks [][]nand.BlockID // per channel
	active     []nand.BlockID   // open write block per channel
	frontier   []int            // next page index in active block, per channel
	nextChan   int              // round-robin write pointer

	hostReads  int64 // pages read on behalf of the host
	hostWrites int64 // pages written by the host
	gcWrites   int64 // pages relocated by GC
	gcRuns     int64
	collecting bool // guards against re-entrant GC during relocation

	inj                *fault.Injector       // nil unless fault injection is enabled
	badBlocks          map[nand.BlockID]bool // grown-bad blocks, retired from service
	readRetries        int64                 // NAND re-reads performed after transient errors
	recoveredReads     int64                 // reads that succeeded after at least one retry
	uncorrectableReads int64                 // reads lost after the retry ladder
	remappedPrograms   int64                 // page slots abandoned to program failures

	// cow marks the mapping tables, free lists, and bad-block set as
	// shared with at least one clone; the first mutating entry point
	// (Write, Trim) privatizes them. Lookups and reads never
	// privatize. Atomic so concurrent Clones of one read-only FTL stay
	// race-free.
	cow atomic.Bool
}

// New builds an FTL over array.
func New(array *nand.Array, cfg Config) (*FTL, error) {
	cfg.fill()
	geo := array.Geometry()
	raw := geo.TotalPages()
	logical := int64(float64(raw) * (1 - cfg.OverProvision))
	if logical < 1 {
		return nil, fmt.Errorf("ftl: over-provision %.2f leaves no logical space", cfg.OverProvision)
	}
	f := &FTL{
		array:        array,
		geo:          geo,
		cfg:          cfg,
		logicalPages: logical,
		l2p:          make([]nand.PPA, logical),
		p2l:          make([]LBA, raw),
		validCount:   make([]int, geo.TotalBlocks()),
		badBlocks:    make(map[nand.BlockID]bool),
		freeBlocks:   make([][]nand.BlockID, geo.Channels),
		active:       make([]nand.BlockID, geo.Channels),
		frontier:     make([]int, geo.Channels),
	}
	// Distribute blocks to per-channel free lists, then open one active
	// block per channel.
	for b := nand.BlockID(0); int64(b) < geo.TotalBlocks(); b++ {
		ch := geo.ChannelOf(b)
		f.freeBlocks[ch] = append(f.freeBlocks[ch], b)
	}
	for ch := 0; ch < geo.Channels; ch++ {
		blk, err := f.takeFree(ch)
		if err != nil {
			return nil, err
		}
		f.active[ch] = blk
		f.frontier[ch] = 0
	}
	return f, nil
}

// SetInjector attaches a fault injector to the FTL's reliability
// machinery (retry and remap bookkeeping). The same injector should be
// attached to the underlying nand.Array; a nil injector disables it.
func (f *FTL) SetInjector(inj *fault.Injector) { f.inj = inj }

// Clone returns an FTL over array with the same logical-to-physical
// mapping, free lists, write frontiers, and cumulative statistics as
// the receiver. The mapping tables are shared copy-on-write: both
// sides read the shared tables until one of them writes or trims, at
// which point that side deep-copies its tables first (privatize), so a
// clone's writes and garbage collection never disturb the original.
// Cloning is therefore O(1) in device size for read-only workloads.
// Concurrent Clones of one FTL are safe (the shared mark is atomic) as
// long as no sharer is mutating; concurrent use of the resulting
// clones is always safe. array should be a Clone of the receiver's
// array so both sides agree on page state; the clone keeps the
// receiver's injector until SetInjector replaces it.
func (f *FTL) Clone(array *nand.Array) *FTL {
	f.cow.Store(true)
	nf := &FTL{
		array:        array,
		geo:          f.geo,
		cfg:          f.cfg,
		logicalPages: f.logicalPages,
		l2p:          f.l2p,
		p2l:          f.p2l,
		validCount:   f.validCount,
		freeBlocks:   f.freeBlocks,
		active:       f.active,
		frontier:     f.frontier,
		nextChan:     f.nextChan,

		hostReads:  f.hostReads,
		hostWrites: f.hostWrites,
		gcWrites:   f.gcWrites,
		gcRuns:     f.gcRuns,
		collecting: f.collecting,

		inj:                f.inj,
		badBlocks:          f.badBlocks,
		readRetries:        f.readRetries,
		recoveredReads:     f.recoveredReads,
		uncorrectableReads: f.uncorrectableReads,
		remappedPrograms:   f.remappedPrograms,
	}
	nf.cow.Store(true)
	return nf
}

// privatize deep-copies the copy-on-write tables before the first
// mutation, detaching this FTL from any sharers. The free-list inner
// slices are copied too: takeFree reslices them and a later append
// would otherwise write into a backing array a sharer still reads.
func (f *FTL) privatize() {
	if !f.cow.Load() {
		return
	}
	f.l2p = append([]nand.PPA(nil), f.l2p...)
	f.p2l = append([]LBA(nil), f.p2l...)
	f.validCount = append([]int(nil), f.validCount...)
	f.active = append([]nand.BlockID(nil), f.active...)
	f.frontier = append([]int(nil), f.frontier...)
	fb := make([][]nand.BlockID, len(f.freeBlocks))
	for ch := range f.freeBlocks {
		fb[ch] = append([]nand.BlockID(nil), f.freeBlocks[ch]...)
	}
	f.freeBlocks = fb
	bad := make(map[nand.BlockID]bool, len(f.badBlocks))
	for b, v := range f.badBlocks {
		bad[b] = v
	}
	f.badBlocks = bad
	f.cow.Store(false)
}

// LogicalPages reports the host-visible capacity in pages.
func (f *FTL) LogicalPages() int64 { return f.logicalPages }

// LogicalBytes reports the host-visible capacity in bytes.
func (f *FTL) LogicalBytes() int64 { return f.logicalPages * int64(f.geo.PageSize) }

// PageSize reports the page size in bytes.
func (f *FTL) PageSize() int { return f.geo.PageSize }

func (f *FTL) checkLBA(l LBA) error {
	if l < 0 || int64(l) >= f.logicalPages {
		return fmt.Errorf("%w: %d (capacity %d pages)", ErrLBAOutOfRange, l, f.logicalPages)
	}
	return nil
}

// ppaOf reports the physical page LBA l maps to, if any.
func (f *FTL) ppaOf(l LBA) (nand.PPA, bool) { p := f.l2p[l]; return p - 1, p != 0 }

// lbaOf reports the LBA whose valid data physical page p holds, if any.
func (f *FTL) lbaOf(p nand.PPA) (LBA, bool) { l := f.p2l[p]; return l - 1, l != 0 }

func (f *FTL) bind(l LBA, p nand.PPA)   { f.l2p[l], f.p2l[p] = p+1, l+1 }
func (f *FTL) unbind(l LBA, p nand.PPA) { f.l2p[l], f.p2l[p] = 0, 0 }

func (f *FTL) takeFree(ch int) (nand.BlockID, error) {
	list := f.freeBlocks[ch]
	if len(list) == 0 {
		return 0, fmt.Errorf("%w: channel %d", ErrDeviceFull, ch)
	}
	blk := list[len(list)-1]
	f.freeBlocks[ch] = list[:len(list)-1]
	return blk, nil
}

// Lookup translates an LBA to its current physical page. The second
// result reports whether the LBA is mapped.
func (f *FTL) Lookup(l LBA) (nand.PPA, bool) {
	if f.checkLBA(l) != nil {
		return 0, false
	}
	return f.ppaOf(l)
}

// Read returns the current contents of LBA l. The slice aliases the
// NAND array's storage; callers must not modify it.
func (f *FTL) Read(l LBA) ([]byte, error) {
	if err := f.checkLBA(l); err != nil {
		return nil, err
	}
	p, ok := f.ppaOf(l)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnmapped, l)
	}
	f.hostReads++
	return f.readPhysical(p)
}

// Checked reports whether buf is the page stored at l and has passed
// its checksum since it was programmed there (see nand.Array.Checked).
func (f *FTL) Checked(l LBA, buf []byte) bool {
	p, ok := f.Lookup(l)
	return ok && f.array.Checked(p, buf)
}

// MarkChecked records that buf, the page stored at l, passed its
// checksum. Relocation and rewrites program a fresh physical page, so
// the mark lasts until l's contents move or change.
func (f *FTL) MarkChecked(l LBA, buf []byte) {
	if p, ok := f.Lookup(l); ok {
		f.array.MarkChecked(p, buf)
	}
}

// readPhysical reads one NAND page through the read-retry ladder:
// transient errors are retried up to MaxReadRetries times before the
// page is declared uncorrectable. Genuinely uncorrectable errors fail
// immediately (the injector makes them sticky, so retrying is futile).
func (f *FTL) readPhysical(p nand.PPA) ([]byte, error) {
	data, err := f.array.Read(p)
	if err == nil || !errors.Is(err, nand.ErrReadFault) {
		if err != nil && errors.Is(err, nand.ErrUncorrectable) {
			f.uncorrectableReads++
		}
		return data, err
	}
	for attempt := 1; attempt <= f.cfg.MaxReadRetries; attempt++ {
		f.readRetries++
		data, err = f.array.Read(p)
		if err == nil {
			f.recoveredReads++
			return data, nil
		}
		if errors.Is(err, nand.ErrUncorrectable) {
			f.uncorrectableReads++
			return nil, err
		}
		if !errors.Is(err, nand.ErrReadFault) {
			return nil, err
		}
	}
	// The retry ladder is exhausted: report the page as lost.
	f.uncorrectableReads++
	return nil, fmt.Errorf("ftl: %d read retries exhausted at ppa %d: %w",
		f.cfg.MaxReadRetries, p, nand.ErrUncorrectable)
}

// Write stores one page of data at LBA l, allocating a fresh physical
// page (striped across channels) and invalidating any prior mapping.
func (f *FTL) Write(l LBA, data []byte) error {
	if err := f.checkLBA(l); err != nil {
		return err
	}
	f.privatize()
	ppa, err := f.programRetry(f.allocate, data)
	if err != nil {
		return fmt.Errorf("ftl: program lba %d: %w", l, err)
	}
	f.invalidate(l)
	f.bind(l, ppa)
	f.validCount[f.geo.BlockOf(ppa)]++
	f.hostWrites++
	return nil
}

// Trim discards the mapping for LBA l, marking its physical page stale.
func (f *FTL) Trim(l LBA) error {
	if err := f.checkLBA(l); err != nil {
		return err
	}
	f.privatize()
	f.invalidate(l)
	return nil
}

func (f *FTL) invalidate(l LBA) {
	old, ok := f.ppaOf(l)
	if !ok {
		return
	}
	f.validCount[f.geo.BlockOf(old)]--
	f.unbind(l, old)
	f.array.Discard(old)
}

// programRetry programs data onto a freshly allocated page, remapping
// to the next page slot when a program fails. Each failure abandons
// the consumed slot (it stays unmapped and is reclaimed at erase) and
// allocation moves on; after MaxProgramRetries failures the write
// surfaces the NAND error.
func (f *FTL) programRetry(alloc func() (nand.PPA, error), data []byte) (nand.PPA, error) {
	var lastErr error
	for attempt := 0; attempt <= f.cfg.MaxProgramRetries; attempt++ {
		ppa, err := alloc()
		if err != nil {
			return 0, err
		}
		err = f.array.Program(ppa, data)
		if err == nil {
			return ppa, nil
		}
		if !errors.Is(err, nand.ErrProgramFail) {
			return 0, err
		}
		f.remappedPrograms++
		lastErr = err
	}
	return 0, fmt.Errorf("ftl: %d program remaps exhausted: %w", f.cfg.MaxProgramRetries, lastErr)
}

// allocate returns the next physical page on the round-robin channel
// frontier, running GC and rotating active blocks as needed.
func (f *FTL) allocate() (nand.PPA, error) {
	ch := f.nextChan
	f.nextChan = (f.nextChan + 1) % f.geo.Channels
	return f.allocateOn(ch)
}

func (f *FTL) allocateOn(ch int) (nand.PPA, error) {
	// Loop: GC relocation below can consume the entire fresh frontier,
	// in which case another block must be opened before the host write
	// can proceed.
	for f.frontier[ch] >= f.geo.PagesPerBlock {
		// Active block full: open a fresh one, then top up the free
		// list. GC runs while the frontier is fresh so relocation always
		// has space; the collecting guard keeps relocation's own
		// allocations from triggering nested collections.
		blk, err := f.takeFree(ch)
		if err != nil {
			// Free list empty. Stale pages may still exist but be
			// trapped in full blocks (including the active one) while
			// every other block is fully valid; reclaim one block in
			// place via a RAM staging buffer. Inside a collection this
			// would erase pages the collector is still reading, so
			// surface the error there instead.
			if f.collecting {
				return 0, err
			}
			if cerr := f.compactInPlace(ch); cerr != nil {
				return 0, cerr
			}
			continue
		}
		f.active[ch] = blk
		f.frontier[ch] = 0
		for !f.collecting && len(f.freeBlocks[ch]) < f.cfg.GCLowWater {
			before := len(f.freeBlocks[ch])
			gained, err := f.collectChannel(ch)
			// Stop on error, on a fully-valid victim (no stale space),
			// or when a collection made no net free-list progress —
			// high-valid victims can consume a block for relocation and
			// return only the erased victim, a net-zero cycle that must
			// not be allowed to spin. The host keeps writing into the
			// frontier either way; a genuinely full device surfaces as
			// ErrDeviceFull on a later takeFree.
			if err != nil || !gained || len(f.freeBlocks[ch]) <= before {
				break
			}
		}
	}
	p := f.geo.FirstPage(f.active[ch]) + nand.PPA(f.frontier[ch])
	f.frontier[ch]++
	return p, nil
}

// collectChannel reclaims the lowest-valid-count non-active block on
// channel ch: relocates its valid pages onto the channel's write
// frontier, erases it, and returns it to the free list. The gained
// result reports whether the victim had any stale pages — a fully valid
// victim reclaims no space, and callers must stop collecting.
func (f *FTL) collectChannel(ch int) (gained bool, err error) {
	f.collecting = true
	defer func() { f.collecting = false }()
	victim, valid, ok := f.pickVictim(ch)
	if !ok {
		return false, fmt.Errorf("%w: channel %d has no gc victim", ErrDeviceFull, ch)
	}
	if valid >= f.geo.PagesPerBlock {
		// Even the best victim is fully valid: relocating it would fill
		// exactly as much frontier as erasing it frees, a zero-gain
		// shuffle (and, repeated, a livelock). Decline to collect.
		return false, nil
	}
	gained = true
	first := f.geo.FirstPage(victim)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		src := first + nand.PPA(i)
		l, ok := f.lbaOf(src)
		if !ok {
			continue
		}
		data, err := f.readPhysical(src)
		if err != nil {
			return gained, fmt.Errorf("ftl: gc read: %w", err)
		}
		dst, err := f.programRetry(func() (nand.PPA, error) { return f.allocateOn(ch) }, data)
		if err != nil {
			return gained, fmt.Errorf("ftl: gc relocate: %w", err)
		}
		f.validCount[f.geo.BlockOf(src)]--
		f.unbind(l, src)
		f.bind(l, dst)
		f.validCount[f.geo.BlockOf(dst)]++
		f.gcWrites++
	}
	if err := f.array.Erase(victim); err != nil {
		if errors.Is(err, nand.ErrEraseFail) {
			// Grown bad block: its valid data is already relocated, so
			// retire it instead of returning it to the free list. The
			// capacity loss comes out of over-provisioning.
			f.badBlocks[victim] = true
			return gained, nil
		}
		return gained, fmt.Errorf("ftl: gc erase: %w", err)
	}
	f.freeBlocks[ch] = append(f.freeBlocks[ch], victim)
	f.gcRuns++
	return gained, nil
}

// pickVictim chooses the non-active, non-free block on ch with the
// fewest valid pages (greedy policy), reporting that count.
func (f *FTL) pickVictim(ch int) (nand.BlockID, int, bool) {
	return f.pickVictimWhere(ch, func(b nand.BlockID) bool { return b != f.active[ch] })
}

func (f *FTL) pickVictimWhere(ch int, eligible func(nand.BlockID) bool) (nand.BlockID, int, bool) {
	best := nand.BlockID(-1)
	bestValid := f.geo.PagesPerBlock + 1
	for b := nand.BlockID(0); int64(b) < f.geo.TotalBlocks(); b++ {
		if f.geo.ChannelOf(b) != ch || !eligible(b) {
			continue
		}
		if f.blockFree(b) || f.badBlocks[b] {
			continue
		}
		if v := f.validCount[b]; v < bestValid {
			best, bestValid = b, v
		}
	}
	return best, bestValid, best >= 0
}

// compactInPlace reclaims one block on ch without consuming a free
// block: the valid pages of the lowest-valid block (the active block
// included) are staged in controller RAM, the block is erased, and the
// pages are programmed back at its start. The compacted block becomes
// the channel's active block with its frontier after the survivors.
// It fails with ErrDeviceFull only when every block on ch is fully
// valid, i.e. the device genuinely has no reclaimable space.
func (f *FTL) compactInPlace(ch int) error {
	victim, valid, ok := f.pickVictimWhere(ch, func(nand.BlockID) bool { return true })
	if !ok || valid >= f.geo.PagesPerBlock {
		return fmt.Errorf("%w: channel %d has no stale pages to compact", ErrDeviceFull, ch)
	}
	type saved struct {
		l    LBA
		src  nand.PPA
		data []byte
	}
	first := f.geo.FirstPage(victim)
	keep := make([]saved, 0, valid)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		src := first + nand.PPA(i)
		l, ok := f.lbaOf(src)
		if !ok {
			continue
		}
		data, err := f.readPhysical(src)
		if err != nil {
			return fmt.Errorf("ftl: compact read: %w", err)
		}
		// Copy: erase below releases the array's page buffers.
		keep = append(keep, saved{l, src, append([]byte(nil), data...)})
		f.validCount[victim]--
		f.unbind(l, src)
	}
	if err := f.array.Erase(victim); err != nil {
		if errors.Is(err, nand.ErrEraseFail) {
			// The erase failed with the contents intact: restore the
			// mappings, retire the block as grown-bad, and compact a
			// different victim instead.
			for _, s := range keep {
				f.bind(s.l, s.src)
				f.validCount[victim]++
			}
			f.badBlocks[victim] = true
			return f.compactInPlace(ch)
		}
		return fmt.Errorf("ftl: compact erase: %w", err)
	}
	slot := 0
	for _, s := range keep {
		var dst nand.PPA
		for {
			if slot >= f.geo.PagesPerBlock {
				return fmt.Errorf("ftl: compact block %d ran out of slots remapping failed programs: %w",
					victim, nand.ErrProgramFail)
			}
			dst = first + nand.PPA(slot)
			slot++
			err := f.array.Program(dst, s.data)
			if err == nil {
				break
			}
			if !errors.Is(err, nand.ErrProgramFail) {
				return fmt.Errorf("ftl: compact program: %w", err)
			}
			f.remappedPrograms++
		}
		f.bind(s.l, dst)
		f.validCount[victim]++
		f.gcWrites++
	}
	f.active[ch] = victim
	f.frontier[ch] = slot
	f.gcRuns++
	return nil
}

func (f *FTL) blockFree(b nand.BlockID) bool {
	for _, fb := range f.freeBlocks[f.geo.ChannelOf(b)] {
		if fb == b {
			return true
		}
	}
	return false
}

// Stats summarizes FTL activity.
type Stats struct {
	HostReads  int64 // pages read on behalf of the host
	HostWrites int64 // pages written by the host
	GCWrites   int64 // pages relocated by garbage collection
	GCRuns     int64 // victim blocks reclaimed
	// WriteAmplification is (host+gc)/host page programs; 1.0 when no GC
	// has run, and 0 when nothing has been written.
	WriteAmplification float64

	// Reliability counters (all zero unless fault injection is on).
	ReadRetries        int64 // NAND re-reads after transient errors
	RecoveredReads     int64 // reads recovered by the retry ladder
	UncorrectableReads int64 // reads lost beyond ECC and retries
	RemappedPrograms   int64 // page slots abandoned to program failures
	GrownBadBlocks     int64 // blocks retired after erase failures
}

// Stats reports cumulative FTL activity.
func (f *FTL) Stats() Stats {
	s := Stats{
		HostReads:          f.hostReads,
		HostWrites:         f.hostWrites,
		GCWrites:           f.gcWrites,
		GCRuns:             f.gcRuns,
		ReadRetries:        f.readRetries,
		RecoveredReads:     f.recoveredReads,
		UncorrectableReads: f.uncorrectableReads,
		RemappedPrograms:   f.remappedPrograms,
		GrownBadBlocks:     int64(len(f.badBlocks)),
	}
	if f.hostWrites > 0 {
		s.WriteAmplification = float64(f.hostWrites+f.gcWrites) / float64(f.hostWrites)
	}
	return s
}
