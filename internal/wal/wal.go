// Package wal implements a checksummed, LSN-ordered write-ahead log on
// simulated device pages, with group commit and ARIES-style redo
// replay on open.
//
// The log owns a fixed region at the top of the device's logical
// address space (Region). Log pages are written strictly sequentially
// and never rewritten: each Flush seals the pending records into fresh
// pages, so the durable log is always an LSN-prefix of everything ever
// appended. A checkpoint (Reset) trims the region and bumps the epoch
// after the buffer manager has force-written all data pages the log
// covers.
//
// Two checksums guard two failure modes. The per-page CRC detects torn
// writes (a power cut or silent partial program leaves a prefix of the
// page); the per-record CRC detects in-flash corruption of a page that
// still passes its page CRC (a bit flipped before the page checksum
// sealed). Recovery treats a bad page at the log tail as the expected
// power-cut truncation point, and any damage *before* later valid
// pages — or any record-CRC failure — as a hard, typed error that is
// never silently replayed.
//
// All log timestamps are LSNs and simulated device times; nothing in
// this package reads the wall clock.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"smartssd/internal/fault"
)

// Typed sentinels. All are surfaced %w-wrapped with context.
var (
	// ErrPowerLost reports a durable write refused or interrupted by a
	// power-cut fault. The caller must stop issuing writes and recover
	// via Open after RestorePower.
	ErrPowerLost = errors.New("wal: power lost")
	// ErrTornWrite reports mid-log damage on open: a torn or missing
	// page that valid later pages prove was once fully written. Unlike
	// a torn tail (expected after a power cut, silently truncated),
	// mid-log damage means committed records were lost and replay must
	// not proceed.
	ErrTornWrite = errors.New("wal: torn write inside the log")
	// ErrCorruptRecord reports a log record whose checksum fails inside
	// a page whose page checksum passes: in-flash corruption, never a
	// crash artifact, never silently replayed.
	ErrCorruptRecord = errors.New("wal: corrupt log record")
	// ErrRecordTooLarge reports a record that cannot fit in one log page.
	ErrRecordTooLarge = errors.New("wal: record too large for one log page")
	// ErrLogFull reports that the log region is exhausted; the caller
	// must checkpoint (flush data pages, then Reset).
	ErrLogFull = errors.New("wal: log region full")
)

// Device is the page-granular durable medium the log writes to.
// *ssd.Device satisfies it.
type Device interface {
	PageSize() int
	CapacityPages() int64
	Mapped(lba int64) bool
	ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error)
	WritePage(lba int64, data []byte, ready time.Duration) (time.Duration, error)
	Trim(lba int64) error
}

// Region reports the log extent — start LBA and page count — reserved
// at the top of a device with the given logical capacity: 1/32 of the
// device, clamped to [4, 1024] pages (smaller devices give up half).
func Region(capacity int64) (start, pages int64) {
	pages = capacity / 32
	if pages < 4 {
		pages = 4
	}
	if pages > 1024 {
		pages = 1024
	}
	if pages > capacity/2 {
		pages = capacity / 2
	}
	if pages < 1 {
		pages = 1
	}
	return capacity - pages, pages
}

// Log page header layout.
const (
	pageMagic      = 0x57414C47 // "WALG"
	pageHeaderSize = 24

	offPageMagic = 0  // uint32
	offPageEpoch = 4  // uint32
	offPageSeq   = 8  // uint32: page index within the region
	offPageUsed  = 12 // uint16: payload bytes in use
	// bytes 14..20 reserved, zero
	offPageCRC = 20 // uint32: Castagnoli over the page, CRC field zeroed
)

// Record wire layout: size uint16 | crc uint32 | body, where body is
// lsn uint64 | txn uint64 | type uint8 | payload.
const (
	recPrefixSize = 6  // size + crc
	recBodyFixed  = 17 // lsn + txn + type
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RecordType discriminates log records.
type RecordType uint8

const (
	// RecBegin marks the first record of a transaction.
	RecBegin RecordType = 1 + iota
	// RecUpdate carries one tuple after-image (redo-only logging).
	RecUpdate
	// RecCommit marks a transaction durable. A transaction with no
	// commit record is treated as never having happened.
	RecCommit
)

// Record is one log entry. Update records carry the redo after-image:
// the encoded tuple bytes to install at (Table, PageIdx, Slot).
type Record struct {
	LSN  uint64
	Txn  uint64
	Type RecordType

	// Update payload (zero for Begin/Commit).
	Table   string
	PageIdx uint32
	Slot    uint16
	Tuple   []byte
}

// encodeBody appends the record body (without size/crc prefix) to dst.
func (r Record) encodeBody(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = binary.LittleEndian.AppendUint64(dst, r.Txn)
	dst = append(dst, byte(r.Type))
	if r.Type == RecUpdate {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Table)))
		dst = append(dst, r.Table...)
		dst = binary.LittleEndian.AppendUint32(dst, r.PageIdx)
		dst = binary.LittleEndian.AppendUint16(dst, r.Slot)
		dst = append(dst, r.Tuple...)
	}
	return dst
}

// decodeBody parses a record body. Every access is bounds-checked so
// arbitrary bytes decode to an error, never a panic.
func decodeBody(body []byte) (Record, error) {
	var r Record
	if len(body) < recBodyFixed {
		return r, fmt.Errorf("%w: body %d bytes, need %d", ErrCorruptRecord, len(body), recBodyFixed)
	}
	r.LSN = binary.LittleEndian.Uint64(body[0:])
	r.Txn = binary.LittleEndian.Uint64(body[8:])
	r.Type = RecordType(body[16])
	rest := body[recBodyFixed:]
	switch r.Type {
	case RecBegin, RecCommit:
		if len(rest) != 0 {
			return r, fmt.Errorf("%w: %v record with %d payload bytes", ErrCorruptRecord, r.Type, len(rest))
		}
	case RecUpdate:
		if len(rest) < 2 {
			return r, fmt.Errorf("%w: update record truncated", ErrCorruptRecord)
		}
		nameLen := int(binary.LittleEndian.Uint16(rest[0:]))
		rest = rest[2:]
		if len(rest) < nameLen+6 {
			return r, fmt.Errorf("%w: update record truncated", ErrCorruptRecord)
		}
		r.Table = string(rest[:nameLen])
		rest = rest[nameLen:]
		r.PageIdx = binary.LittleEndian.Uint32(rest[0:])
		r.Slot = binary.LittleEndian.Uint16(rest[4:])
		r.Tuple = append([]byte(nil), rest[6:]...)
	default:
		return r, fmt.Errorf("%w: unknown record type %d", ErrCorruptRecord, r.Type)
	}
	return r, nil
}

// String reports the conventional name of the record type.
func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "begin"
	case RecUpdate:
		return "update"
	case RecCommit:
		return "commit"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Stats counts the log's durable-write activity. The recovery sweep
// uses PageWrites (plus the caller's guarded data writes) as the bound
// on meaningful power-cut points.
type Stats struct {
	PageWrites uint64 // log page write attempts (including faulted ones)
	Flushes    uint64 // Flush calls that wrote at least one page
	Appends    uint64 // records appended
	Resets     uint64 // checkpoints taken
}

// Log is the writer side. Not safe for concurrent use; the transaction
// manager serializes access.
type Log struct {
	dev     Device
	inj     *fault.Injector
	start   int64
	pages   int64
	epoch   uint32
	nextSeq uint32 // next region-relative page index to write
	nextLSN uint64
	pending []Record
	stats   Stats
}

// Create activates a fresh log on dev, trimming any stale pages in the
// region (an engine clone inherits the original's mapped log pages;
// they describe the original's transactions, not the clone's).
func Create(dev Device, inj *fault.Injector) (*Log, error) {
	start, pages := Region(dev.CapacityPages())
	l := &Log{dev: dev, inj: inj, start: start, pages: pages, epoch: 1, nextLSN: 1}
	if err := l.trimRegion(); err != nil {
		return nil, err
	}
	return l, nil
}

// Start reports the first LBA of the log region.
func (l *Log) Start() int64 { return l.start }

// Pages reports the log region size in pages.
func (l *Log) Pages() int64 { return l.pages }

// Stats reports a snapshot of the write counters; a nil log — one never
// activated — has written nothing.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	return l.stats
}

// NextLSN reports the LSN the next appended record will receive.
func (l *Log) NextLSN() uint64 { return l.nextLSN }

func (l *Log) trimRegion() error {
	for i := int64(0); i < l.pages; i++ {
		lba := l.start + i
		if !l.dev.Mapped(lba) {
			continue
		}
		if err := l.dev.Trim(lba); err != nil {
			return fmt.Errorf("wal: trim log page %d: %w", lba, err)
		}
	}
	return nil
}

// maxBody reports the largest record body one log page can hold.
func (l *Log) maxBody() int {
	return l.dev.PageSize() - pageHeaderSize - recPrefixSize
}

// Append assigns the next LSN to r and queues it for the next Flush.
// Nothing is durable until Flush returns.
func (l *Log) Append(r Record) (uint64, error) {
	body := r.encodeBody(nil)
	if len(body) > l.maxBody() {
		return 0, fmt.Errorf("%w: %d-byte body, page holds %d", ErrRecordTooLarge, len(body), l.maxBody())
	}
	r.LSN = l.nextLSN
	l.nextLSN++
	l.pending = append(l.pending, r)
	l.stats.Appends++
	return r.LSN, nil
}

// PendingRecords reports how many appended records await Flush.
func (l *Log) PendingRecords() int { return len(l.pending) }

// Flush seals every pending record into fresh log pages and writes
// them to the device in sequence, starting no earlier than ready. The
// returned time is when the last page write completes — the commit
// acknowledgement time shared by every transaction in the group.
//
// Fault semantics (drawn from the injector per page): a power cut
// persists at most a prefix of the current page and fails the flush
// with ErrPowerLost; a torn write persists a prefix silently (the
// flush still succeeds — recovery must detect it); a corruption fault
// flips one payload byte before the page checksum seals.
func (l *Log) Flush(ready time.Duration) (time.Duration, error) {
	if len(l.pending) == 0 {
		return ready, nil
	}
	pageSize := l.dev.PageSize()
	payload := pageSize - pageHeaderSize
	buf := make([]byte, pageSize)
	used := 0
	wrote := false
	var scratch []byte

	flushPage := func() error {
		if used == 0 {
			return nil
		}
		if int64(l.nextSeq) >= l.pages {
			return fmt.Errorf("%w: %d pages used", ErrLogFull, l.pages)
		}
		binary.LittleEndian.PutUint32(buf[offPageMagic:], pageMagic)
		binary.LittleEndian.PutUint32(buf[offPageEpoch:], l.epoch)
		binary.LittleEndian.PutUint32(buf[offPageSeq:], l.nextSeq)
		binary.LittleEndian.PutUint16(buf[offPageUsed:], uint16(used))

		l.stats.PageWrites++
		f := l.inj.WALPageWrite(pageSize)
		if f.Lost {
			return fmt.Errorf("wal: flush: %w", ErrPowerLost)
		}
		if f.CorruptAt >= 0 && !f.Cut {
			// Flip one byte of the in-use payload before the page
			// checksum seals: the page CRC will pass, the record CRC
			// underneath will not.
			buf[pageHeaderSize+f.CorruptAt%used] ^= 0xFF
		}
		binary.LittleEndian.PutUint32(buf[offPageCRC:], 0)
		crc := crc32.Checksum(buf, crcTable)
		binary.LittleEndian.PutUint32(buf[offPageCRC:], crc)

		lba := l.start + int64(l.nextSeq)
		if f.Cut || f.Torn {
			// Persist only a prefix of the bytes in use, and never the
			// page checksum — the controller seals it last, so an
			// interrupted write always reads back as invalid.
			keep := f.KeepBytes % (pageHeaderSize + used)
			torn := make([]byte, pageSize)
			copy(torn, buf[:keep])
			binary.LittleEndian.PutUint32(torn[offPageCRC:], 0)
			if keep > 0 {
				if _, err := l.dev.WritePage(lba, torn, ready); err != nil {
					return fmt.Errorf("wal: write log page %d: %w", lba, err)
				}
			}
			if f.Cut {
				return fmt.Errorf("wal: flush: power cut during log page %d write: %w", lba, ErrPowerLost)
			}
			// Torn: silent. The flush appears to succeed.
			l.nextSeq++
			wrote = true
			return nil
		}
		done, err := l.dev.WritePage(lba, buf, ready)
		if err != nil {
			return fmt.Errorf("wal: write log page %d: %w", lba, err)
		}
		ready = done
		l.nextSeq++
		wrote = true
		return nil
	}

	for _, r := range l.pending {
		scratch = r.encodeBody(scratch[:0])
		need := recPrefixSize + len(scratch)
		if used+need > payload {
			if err := flushPage(); err != nil {
				return ready, err
			}
			for i := range buf {
				buf[i] = 0
			}
			used = 0
		}
		off := pageHeaderSize + used
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(scratch)))
		binary.LittleEndian.PutUint32(buf[off+2:], crc32.Checksum(scratch, crcTable))
		copy(buf[off+recPrefixSize:], scratch)
		used += need
	}
	if err := flushPage(); err != nil {
		return ready, err
	}
	l.pending = l.pending[:0]
	if wrote {
		l.stats.Flushes++
	}
	return ready, nil
}

// Reset checkpoints the log: the caller has force-written every data
// page the log covers, so the records are no longer needed. The region
// is trimmed and the epoch bumped; LSNs keep counting.
func (l *Log) Reset() error {
	if err := l.trimRegion(); err != nil {
		return err
	}
	l.epoch++
	l.nextSeq = 0
	l.pending = l.pending[:0]
	l.stats.Resets++
	return nil
}

// GuardDataWrite consults the injector before a durable data-page
// write (a buffer-pool flush, a replicated apply). It shares the
// power-cut counter with WAL page writes, so a cut-point sweep covers
// crashes mid-log and mid-apply alike. The write must not proceed on
// error; data pages are page-atomic in this model (a cut write never
// partially reaches media).
func GuardDataWrite(inj *fault.Injector) error {
	cut, lost := inj.GuardedWrite()
	switch {
	case cut:
		return fmt.Errorf("wal: power cut during data page write: %w", ErrPowerLost)
	case lost:
		return fmt.Errorf("wal: data page write with power out: %w", ErrPowerLost)
	}
	return nil
}
