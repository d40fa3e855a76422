// Package nand models a NAND flash memory array: the persistent medium
// at the bottom of the SSD simulator (Figure 2 of the paper).
//
// The model captures the properties that matter for query-processing
// experiments:
//
//   - Geometry: channels × chips × blocks × pages, with the page as the
//     unit of read/program and the block as the unit of erase.
//   - Physical constraints: a page must be erased before it can be
//     programmed, pages within a block are programmed in order, and data
//     really is stored and returned bit-exact (queries run on real bytes).
//   - Timing constants: cell-to-register read latency, program and erase
//     latencies, and the channel bus transfer rate — consumed by the SSD
//     controller (package ssd) which owns scheduling.
//
// Addressing uses a linear physical page address (PPA). The mapping
// between a PPA and its (channel, chip, block, page) coordinates is
// chip-major: a block's pages are contiguous within one chip, so channel
// interleaving is the FTL's job (it stripes consecutive writes across
// channels), just as in real controllers.
package nand

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"smartssd/internal/fault"
	"smartssd/internal/sim"
)

// Geometry describes the physical organization of the flash array.
type Geometry struct {
	Channels        int // independent flash channels
	ChipsPerChannel int // dies per channel (chip-level interleaving)
	BlocksPerChip   int // erase blocks per die
	PagesPerBlock   int // pages per erase block
	PageSize        int // bytes per page
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	if g.Channels < 1 || g.ChipsPerChannel < 1 || g.BlocksPerChip < 1 ||
		g.PagesPerBlock < 1 || g.PageSize < 1 {
		return fmt.Errorf("nand: non-positive geometry field: %+v", g)
	}
	return nil
}

// Chips reports the total number of dies.
func (g Geometry) Chips() int { return g.Channels * g.ChipsPerChannel }

// PagesPerChip reports the number of pages on one die.
func (g Geometry) PagesPerChip() int { return g.BlocksPerChip * g.PagesPerBlock }

// TotalPages reports the number of physical pages in the array.
func (g Geometry) TotalPages() int64 {
	return int64(g.Chips()) * int64(g.PagesPerChip())
}

// TotalBytes reports the raw capacity of the array.
func (g Geometry) TotalBytes() int64 { return g.TotalPages() * int64(g.PageSize) }

// TotalBlocks reports the number of erase blocks in the array.
func (g Geometry) TotalBlocks() int64 { return int64(g.Chips()) * int64(g.BlocksPerChip) }

// PPA is a linear physical page address in [0, TotalPages).
type PPA int64

// Addr is the decomposed coordinate form of a PPA.
type Addr struct {
	Channel int
	Chip    int // chip index within its channel
	Block   int // block index within its chip
	Page    int // page index within its block
}

// Decompose splits a PPA into coordinates. Chip-major layout: all pages
// of a block are contiguous on one chip.
func (g Geometry) Decompose(p PPA) Addr {
	pageInChip := int(int64(p) % int64(g.PagesPerChip()))
	chipIdx := int(int64(p) / int64(g.PagesPerChip()))
	return Addr{
		Channel: chipIdx / g.ChipsPerChannel,
		Chip:    chipIdx % g.ChipsPerChannel,
		Block:   pageInChip / g.PagesPerBlock,
		Page:    pageInChip % g.PagesPerBlock,
	}
}

// Compose is the inverse of Decompose.
func (g Geometry) Compose(a Addr) PPA {
	chipIdx := a.Channel*g.ChipsPerChannel + a.Chip
	return PPA(int64(chipIdx)*int64(g.PagesPerChip()) +
		int64(a.Block)*int64(g.PagesPerBlock) + int64(a.Page))
}

// BlockID identifies an erase block globally.
type BlockID int64

// BlockOf reports the erase block containing p.
func (g Geometry) BlockOf(p PPA) BlockID {
	return BlockID(int64(p) / int64(g.PagesPerBlock))
}

// FirstPage reports the PPA of the first page in block b.
func (g Geometry) FirstPage(b BlockID) PPA {
	return PPA(int64(b) * int64(g.PagesPerBlock))
}

// ChannelOf reports the channel that block b's chip hangs off.
func (g Geometry) ChannelOf(b BlockID) int {
	return g.Decompose(g.FirstPage(b)).Channel
}

// Timing holds the NAND operation latencies and channel bus rate. These
// are consumed by the controller's schedulers in package ssd.
type Timing struct {
	// ReadLatency is tR: cell array to chip page register.
	ReadLatency time.Duration
	// ProgramLatency is tPROG: page register to cell array.
	ProgramLatency time.Duration
	// EraseLatency is tBERS: whole-block erase.
	EraseLatency time.Duration
	// ChannelRate is the flash channel bus bandwidth (register <->
	// controller), shared by all chips on one channel.
	ChannelRate sim.Rate
}

// PageState tracks the NAND lifecycle of one physical page.
type PageState uint8

const (
	// Erased pages may be programmed.
	Erased PageState = iota
	// Programmed pages hold valid data and must be erased (with their
	// whole block) before reprogramming.
	Programmed
)

// Errors reported by the array's physical-constraint checks.
var (
	ErrOutOfRange     = errors.New("nand: address out of range")
	ErrNotErased      = errors.New("nand: program to non-erased page")
	ErrProgramOrder   = errors.New("nand: out-of-order program within block")
	ErrReadErased     = errors.New("nand: read of erased page")
	ErrWrongPageSize  = errors.New("nand: payload is not one page")
	ErrBlockOutOfSpan = errors.New("nand: block id out of range")
)

// Errors reported by the array's reliability model (injected faults).
var (
	// ErrReadFault is a transient bit error: a re-read of the same page
	// through the FTL's retry ladder may succeed.
	ErrReadFault = errors.New("nand: transient read error")
	// ErrUncorrectable is a read error beyond ECC: the page's data is
	// lost and every retry fails the same way.
	ErrUncorrectable = errors.New("nand: uncorrectable read error")
	// ErrProgramFail is a page program failure; the page slot is
	// consumed and the FTL must remap the write elsewhere.
	ErrProgramFail = errors.New("nand: program failure")
	// ErrEraseFail is a block erase failure; the block is grown-bad and
	// must be retired by the FTL.
	ErrEraseFail = errors.New("nand: erase failure")
)

// Array is the flash medium: geometry plus per-page data and state.
// It enforces NAND physical constraints but performs no timing; the
// controller (package ssd) charges Timing costs against its schedulers.
//
// An Array is not safe for concurrent use; the simulator is
// single-threaded by design (deterministic virtual time).
type Array struct {
	geo    Geometry
	timing Timing
	data   [][]byte    // per PPA; nil until programmed
	state  []PageState // per PPA
	// writeFrontier tracks the next in-order programmable page per block.
	writeFrontier []int
	eraseCount    []int64 // per block, for wear accounting
	// checked holds one bit per PPA: set once the page's current
	// contents passed a reader's checksum, cleared when Program or
	// Erase replaces them. Sharers of a copy-on-write slice set bits
	// concurrently, so every access is atomic.
	checked  []atomic.Uint64
	reads    int64
	programs int64
	erases   int64
	// Cumulative cell-operation time at the array's Timing, for the
	// metrics layer. This mirrors what the controller charges against
	// its schedulers; the array itself still performs no timing.
	senseTime   time.Duration
	programTime time.Duration
	eraseTime   time.Duration
	inj         *fault.Injector // nil unless fault injection is enabled
	// cow marks the per-page and per-block slices as shared with at
	// least one clone. The first mutating operation (Program, Erase)
	// privatizes them. Reads never privatize: sharers only ever mutate
	// their own private copies, so shared slices are immutable. Atomic
	// so concurrent Clones of one read-only array stay race-free.
	cow atomic.Bool
}

// NewArray builds a flash array with the given geometry and timing.
func NewArray(geo Geometry, timing Timing) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	n := geo.TotalPages()
	return &Array{
		geo:           geo,
		timing:        timing,
		data:          make([][]byte, n),
		state:         make([]PageState, n),
		writeFrontier: make([]int, geo.TotalBlocks()),
		eraseCount:    make([]int64, geo.TotalBlocks()),
		checked:       make([]atomic.Uint64, (n+63)/64),
	}, nil
}

// SetInjector attaches a fault injector to the array. A nil injector
// (the default) restores the fault-free medium.
func (a *Array) SetInjector(inj *fault.Injector) { a.inj = inj }

// Clone returns an array with the same geometry, contents, lifecycle
// state, and wear counters. Page buffers are shared, not copied: a
// programmed page's buffer is never mutated in place (Program requires
// the Erased state, and Erase drops the buffer before a slot can be
// reused), so clones reading the same PPA concurrently see immutable
// bytes. The outer per-page and per-block slices are shared
// copy-on-write: both sides keep reading the shared slices until one
// of them programs or erases, at which point that side privatizes its
// copies first. Cloning is therefore O(1) in array size for read-only
// workloads. Concurrent Clones of one array are safe (the shared mark
// is atomic) as long as no sharer is mutating; concurrent use of the
// resulting clones is always safe. The clone keeps the receiver's
// injector; callers wiring an isolated fault domain attach their own
// with SetInjector.
func (a *Array) Clone() *Array {
	a.cow.Store(true)
	c := &Array{
		geo:           a.geo,
		timing:        a.timing,
		data:          a.data,
		state:         a.state,
		writeFrontier: a.writeFrontier,
		eraseCount:    a.eraseCount,
		checked:       a.checked,
		reads:         a.reads,
		programs:      a.programs,
		erases:        a.erases,
		senseTime:     a.senseTime,
		programTime:   a.programTime,
		eraseTime:     a.eraseTime,
		inj:           a.inj,
	}
	c.cow.Store(true)
	return c
}

// privatize deep-copies the copy-on-write slices before the first
// mutation, detaching this array from any sharers. Inner page buffers
// stay shared — they are immutable once programmed (see Clone).
func (a *Array) privatize() {
	if !a.cow.Load() {
		return
	}
	a.data = append([][]byte(nil), a.data...)
	a.state = append([]PageState(nil), a.state...)
	a.writeFrontier = append([]int(nil), a.writeFrontier...)
	a.eraseCount = append([]int64(nil), a.eraseCount...)
	checked := make([]atomic.Uint64, len(a.checked))
	for i := range checked {
		checked[i].Store(a.checked[i].Load())
	}
	a.checked = checked
	a.cow.Store(false)
}

// Geometry reports the array's physical organization.
func (a *Array) Geometry() Geometry { return a.geo }

// Timing reports the array's operation latencies.
func (a *Array) Timing() Timing { return a.timing }

func (a *Array) checkPPA(p PPA) error {
	if p < 0 || int64(p) >= a.geo.TotalPages() {
		return fmt.Errorf("%w: ppa %d", ErrOutOfRange, p)
	}
	return nil
}

// Read returns the stored contents of page p. The returned slice aliases
// the array's storage; callers must not modify it.
func (a *Array) Read(p PPA) ([]byte, error) {
	if err := a.checkPPA(p); err != nil {
		return nil, err
	}
	if a.state[p] != Programmed {
		return nil, fmt.Errorf("%w: ppa %d", ErrReadErased, p)
	}
	a.reads++
	a.senseTime += a.timing.ReadLatency
	if fail, uncorrectable := a.inj.ReadError(uint64(p)); fail {
		if uncorrectable {
			return nil, fmt.Errorf("%w: ppa %d", ErrUncorrectable, p)
		}
		return nil, fmt.Errorf("%w: ppa %d", ErrReadFault, p)
	}
	return a.data[p], nil
}

// Program writes one page of data to p, enforcing erased-state and
// in-order-within-block constraints. The data is copied.
func (a *Array) Program(p PPA, data []byte) error {
	if err := a.checkPPA(p); err != nil {
		return err
	}
	if len(data) != a.geo.PageSize {
		return fmt.Errorf("%w: got %d bytes, page is %d", ErrWrongPageSize, len(data), a.geo.PageSize)
	}
	if a.state[p] != Erased {
		return fmt.Errorf("%w: ppa %d", ErrNotErased, p)
	}
	b := a.geo.BlockOf(p)
	inBlock := a.geo.Decompose(p).Page
	if inBlock != a.writeFrontier[b] {
		return fmt.Errorf("%w: ppa %d is page %d of block %d, frontier %d",
			ErrProgramOrder, p, inBlock, b, a.writeFrontier[b])
	}
	a.privatize()
	a.setChecked(p, false)
	if a.inj.ProgramFail() {
		// A failed program still consumes the page slot: the cells are
		// in an indeterminate state and may not be reprogrammed until
		// the block is erased, so the frontier advances past the page.
		a.state[p] = Programmed
		a.data[p] = make([]byte, a.geo.PageSize)
		a.writeFrontier[b]++
		a.programs++
		a.programTime += a.timing.ProgramLatency
		return fmt.Errorf("%w: ppa %d", ErrProgramFail, p)
	}
	buf := a.data[p]
	if buf == nil {
		buf = make([]byte, a.geo.PageSize)
		a.data[p] = buf
	}
	copy(buf, data)
	a.state[p] = Programmed
	a.writeFrontier[b]++
	a.programs++
	a.programTime += a.timing.ProgramLatency
	return nil
}

// Erase resets every page of block b to Erased.
func (a *Array) Erase(b BlockID) error {
	if b < 0 || int64(b) >= a.geo.TotalBlocks() {
		return fmt.Errorf("%w: block %d", ErrBlockOutOfSpan, b)
	}
	if a.inj.EraseFail() {
		// The block keeps its current contents; the FTL retires it as
		// grown-bad instead of reusing it.
		return fmt.Errorf("%w: block %d", ErrEraseFail, b)
	}
	a.privatize()
	first := a.geo.FirstPage(b)
	for i := 0; i < a.geo.PagesPerBlock; i++ {
		p := first + PPA(i)
		a.state[p] = Erased
		a.data[p] = nil // release memory for simulation thrift
		a.setChecked(p, false)
	}
	a.writeFrontier[b] = 0
	a.eraseCount[b]++
	a.erases++
	a.eraseTime += a.timing.EraseLatency
	return nil
}

// Discard drops the stored bytes of page p once the FTL no longer maps
// it. Real flash keeps them until the block is erased, but nothing
// reads a page no logical address maps, so the simulator releases the
// memory now: without this, every overwrite would keep its old page
// alive until garbage collection, which a roomy device may never run.
// The page stays Programmed until Erase.
func (a *Array) Discard(p PPA) {
	if a.checkPPA(p) != nil || a.data[p] == nil {
		return
	}
	a.privatize()
	a.data[p] = nil
	a.setChecked(p, false)
}

// Checked reports whether buf is the page stored at p and has been
// marked checked since p was last programmed. A stored page is never
// modified in place, so a checksum that passed once holds until then.
func (a *Array) Checked(p PPA, buf []byte) bool {
	return a.holds(p, buf) && a.checked[p>>6].Load()&(1<<(p&63)) != 0
}

// MarkChecked records that buf, the page stored at p, passed its
// checksum. It does nothing when buf is not what p stores.
func (a *Array) MarkChecked(p PPA, buf []byte) {
	if a.holds(p, buf) {
		a.setChecked(p, true)
	}
}

// holds reports whether buf is page p's stored buffer itself.
func (a *Array) holds(p PPA, buf []byte) bool {
	if p < 0 || int64(p) >= a.geo.TotalPages() {
		return false
	}
	d := a.data[p]
	return len(d) > 0 && len(buf) == len(d) && &d[0] == &buf[0]
}

// setChecked sets or clears p's checked bit.
func (a *Array) setChecked(p PPA, on bool) {
	w, bit := &a.checked[p>>6], uint64(1)<<(p&63)
	for {
		old := w.Load()
		v := old &^ bit
		if on {
			v = old | bit
		}
		if v == old || w.CompareAndSwap(old, v) {
			return
		}
	}
}

// State reports the lifecycle state of page p.
func (a *Array) State(p PPA) PageState {
	if err := a.checkPPA(p); err != nil {
		panic(err)
	}
	return a.state[p]
}

// EraseCount reports how many times block b has been erased.
func (a *Array) EraseCount(b BlockID) int64 { return a.eraseCount[b] }

// Stats summarizes operation counts for wear and traffic reporting.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
	// SenseTime, ProgramTime and EraseTime are the cumulative cell time
	// the operations above spent at the array's Timing — how long the
	// medium itself was occupied, before channel and bus transfers.
	SenseTime   time.Duration
	ProgramTime time.Duration
	EraseTime   time.Duration
	// MaxEraseCount and MinEraseCount bound block wear across the array.
	MaxEraseCount int64
	MinEraseCount int64
}

// Stats reports cumulative operation counts and wear spread.
func (a *Array) Stats() Stats {
	s := Stats{
		Reads: a.reads, Programs: a.programs, Erases: a.erases,
		SenseTime: a.senseTime, ProgramTime: a.programTime, EraseTime: a.eraseTime,
	}
	if len(a.eraseCount) > 0 {
		s.MinEraseCount = a.eraseCount[0]
		for _, c := range a.eraseCount {
			if c > s.MaxEraseCount {
				s.MaxEraseCount = c
			}
			if c < s.MinEraseCount {
				s.MinEraseCount = c
			}
		}
	}
	return s
}
