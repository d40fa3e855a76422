// Package page implements the two on-device page layouts the paper
// evaluates: the traditional N-ary Storage Model (NSM) with slotted
// pages, and the PAX layout [Ailamaki et al., VLDB 2001] in which all
// values of a column are grouped together within the page.
//
// Both layouts share an 8 KB page size (PageSize) and a 16-byte header,
// and both store the fixed-width tuples produced by package schema. The
// layouts are bit-compatible targets of the same Builder API and are read
// back through the same Reader API, so host and device operators are
// layout-agnostic at the call-site and pay layout-specific costs only in
// the cost model.
//
// NSM page:
//
//	[header][tuple 0][tuple 1]...            ...[slot n-1]...[slot 0]
//	records grow from the left, a 2-byte slot directory grows from the
//	right; slot i holds the byte offset of tuple i.
//
// PAX page:
//
//	[header][minipage col0][minipage col1]...[minipage colk]
//	each minipage is a dense array of capacity fixed-width values;
//	tuple i's value for column j lives at minipage(j) + i*width(j).
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"smartssd/internal/schema"
)

// PageSize is the fixed page size in bytes, matching both the flash page
// and the database page size used in the paper's prototype.
const PageSize = 8192

// HeaderSize is the fixed page header size in bytes.
const HeaderSize = 16

// Layout selects the record organization within a page.
type Layout uint8

const (
	// NSM is the N-ary Storage Model: whole tuples stored contiguously
	// in a slotted page.
	NSM Layout = iota
	// PAX groups all values of each column together within the page.
	PAX
)

// String reports the conventional name of the layout.
func (l Layout) String() string {
	switch l {
	case NSM:
		return "NSM"
	case PAX:
		return "PAX"
	default:
		return fmt.Sprintf("Layout(%d)", uint8(l))
	}
}

// Header field offsets within a page.
const (
	offMagic  = 0 // uint16
	offLayout = 2 // uint8
	offVer    = 3 // uint8
	offCount  = 4 // uint16
	offWidth  = 6 // uint16: tuple width (sanity check against schema)
	offPageNo = 8 // uint32
	offCRC    = 12
)

const (
	magic   = 0xDBA5
	version = 1
)

// Errors reported by the Reader constructors and Bind.
var (
	ErrBadMagic    = errors.New("page: bad magic")
	ErrBadChecksum = errors.New("page: checksum mismatch")
	ErrBadLayout   = errors.New("page: unknown layout")
	ErrBadSize     = errors.New("page: wrong page size")
	ErrSchema      = errors.New("page: tuple width does not match schema")
	ErrBadCount    = errors.New("page: tuple count exceeds page capacity")
	ErrBadSlot     = errors.New("page: slot points outside the record area")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zeroCRC stands in for the checksum field when a page is verified. It
// is package-level and never written: a local would escape through
// crc32.Update and cost every Bind a heap allocation.
var zeroCRC [4]byte

// Capacity reports the number of fixed-width tuples of schema s that fit
// in one page under the given layout. NSM pays a 2-byte slot per tuple;
// PAX packs minipages densely.
func Capacity(s *schema.Schema, l Layout) int {
	usable := PageSize - HeaderSize
	switch l {
	case NSM:
		return usable / (s.TupleWidth() + 2)
	case PAX:
		return usable / s.TupleWidth()
	default:
		panic(fmt.Sprintf("page: unknown layout %v", l))
	}
}

// paxMinipageOffset reports the byte offset of column col's minipage for
// a page with the given tuple capacity.
func paxMinipageOffset(s *schema.Schema, capacity, col int) int {
	// Columns are laid out in schema order; column j's minipage starts
	// after capacity values of every earlier column.
	return HeaderSize + capacity*s.Offset(col)
}

// A Builder fills pages of one schema and layout. The zero value is not
// usable; construct with NewBuilder. A Builder is reused across pages via
// Reset, and is not safe for concurrent use.
type Builder struct {
	schema   *schema.Schema
	layout   Layout
	capacity int
	buf      []byte
	count    int
	pageNo   uint32
	scratch  []byte
}

// NewBuilder returns a Builder producing pages of s under layout l.
func NewBuilder(s *schema.Schema, l Layout) *Builder {
	if l != NSM && l != PAX {
		panic(fmt.Sprintf("page: unknown layout %v", l))
	}
	return &Builder{
		schema:   s,
		layout:   l,
		capacity: Capacity(s, l),
		buf:      make([]byte, PageSize),
	}
}

// Capacity reports the per-page tuple capacity for this builder.
func (b *Builder) Capacity() int { return b.capacity }

// Count reports the number of tuples appended since the last Reset.
func (b *Builder) Count() int { return b.count }

// Reset clears the builder to start a new page with the given page
// number (a diagnostic identity stamped into the header).
func (b *Builder) Reset(pageNo uint32) {
	for i := range b.buf {
		b.buf[i] = 0
	}
	b.count = 0
	b.pageNo = pageNo
}

// Append adds tuple t to the page under construction. It reports false,
// without modifying the page, when the page is full.
func (b *Builder) Append(t schema.Tuple) bool {
	if b.count >= b.capacity {
		return false
	}
	switch b.layout {
	case NSM:
		off := HeaderSize + b.count*b.schema.TupleWidth()
		b.scratch = b.schema.EncodeTuple(b.scratch[:0], t)
		copy(b.buf[off:], b.scratch)
		slotOff := PageSize - 2*(b.count+1)
		binary.LittleEndian.PutUint16(b.buf[slotOff:], uint16(off))
	case PAX:
		for col := 0; col < b.schema.NumColumns(); col++ {
			w := b.schema.Column(col).Width()
			off := paxMinipageOffset(b.schema, b.capacity, col) + b.count*w
			b.scratch = b.schema.EncodeValue(b.scratch[:0], col, t[col])
			copy(b.buf[off:], b.scratch)
		}
	}
	b.count++
	return true
}

// Finish seals the page (header + checksum) and returns the page bytes.
// The returned slice aliases the builder's internal buffer and is only
// valid until the next Reset; callers persisting the page must copy it.
func (b *Builder) Finish() []byte {
	binary.LittleEndian.PutUint16(b.buf[offMagic:], magic)
	b.buf[offLayout] = byte(b.layout)
	b.buf[offVer] = version
	binary.LittleEndian.PutUint16(b.buf[offCount:], uint16(b.count))
	binary.LittleEndian.PutUint16(b.buf[offWidth:], uint16(b.schema.TupleWidth()))
	binary.LittleEndian.PutUint32(b.buf[offPageNo:], b.pageNo)
	binary.LittleEndian.PutUint32(b.buf[offCRC:], 0)
	crc := crc32.Checksum(b.buf, crcTable)
	binary.LittleEndian.PutUint32(b.buf[offCRC:], crc)
	return b.buf
}

// A Reader decodes a sealed page. Construct with NewReader, which
// validates the header; the Reader then provides random access to tuples
// and individual column values without copying.
type Reader struct {
	schema   *schema.Schema
	layout   Layout
	capacity int
	buf      []byte
	count    int
}

// NewReader wraps buf, a sealed page of schema s, validating the header
// and checksum.
func NewReader(s *schema.Schema, buf []byte) (*Reader, error) {
	r := ReaderFor(s)
	if err := r.Bind(buf); err != nil {
		return nil, err
	}
	return r, nil
}

// ReaderFor returns an unbound Reader for schema s. Bind must be called
// before any access; scans use one ReaderFor + repeated Bind to avoid
// per-page allocation.
func ReaderFor(s *schema.Schema) *Reader { return &Reader{schema: s} }

// Bind points an existing Reader at a new page buffer, validating it.
// Reusing a Reader across the pages of a scan avoids per-page allocation.
func (r *Reader) Bind(buf []byte) error { return r.bind(buf, true) }

// A CheckMemo is a device's record of which stored pages have passed
// their checksum since they were last written. *ssd.Device and
// *hdd.Device implement it: their stored page buffers are never
// modified in place, so a pass holds until the page is written again.
type CheckMemo interface {
	// Checked reports whether buf is the page stored at lba and has
	// passed its checksum since it was written.
	Checked(lba int64, buf []byte) bool
	// MarkChecked records that buf, the page stored at lba, passed.
	MarkChecked(lba int64, buf []byte)
}

// BindStored is Bind for buf, the page m stores at lba, as a scan read
// it: the checksum is computed only when m has no record of the page
// passing it since it was written, and a pass is recorded. Every other
// check runs on every bind, since it depends on the reader's schema.
func (r *Reader) BindStored(m CheckMemo, lba int64, buf []byte) error {
	if m.Checked(lba, buf) {
		return r.bind(buf, false)
	}
	if err := r.bind(buf, true); err != nil {
		return err
	}
	m.MarkChecked(lba, buf)
	return nil
}

// bind validates buf and points r at it, verifying the checksum when
// crc is set.
func (r *Reader) bind(buf []byte, crc bool) error {
	if len(buf) != PageSize {
		return fmt.Errorf("%w: %d bytes", ErrBadSize, len(buf))
	}
	if binary.LittleEndian.Uint16(buf[offMagic:]) != magic {
		return ErrBadMagic
	}
	l := Layout(buf[offLayout])
	if l != NSM && l != PAX {
		return fmt.Errorf("%w: %d", ErrBadLayout, buf[offLayout])
	}
	if int(binary.LittleEndian.Uint16(buf[offWidth:])) != r.schema.TupleWidth() {
		return fmt.Errorf("%w: page says %d, schema says %d", ErrSchema,
			binary.LittleEndian.Uint16(buf[offWidth:]), r.schema.TupleWidth())
	}
	// Verify without touching buf: the checksum was computed with the
	// CRC field zeroed, so feed the zeros from a scratch word instead of
	// writing them into the page. Page buffers alias device storage that
	// concurrent readers (engine clones) may share; Bind must not write.
	if crc {
		stored := binary.LittleEndian.Uint32(buf[offCRC:])
		sum := crc32.Checksum(buf[:offCRC], crcTable)
		sum = crc32.Update(sum, crcTable, zeroCRC[:])
		sum = crc32.Update(sum, crcTable, buf[offCRC+4:])
		if sum != stored {
			return fmt.Errorf("%w: stored %#x computed %#x", ErrBadChecksum, stored, sum)
		}
	}
	// A checksum only proves the page is what was written; check that
	// what was written can be decoded, so no accessor reads outside buf.
	count := int(binary.LittleEndian.Uint16(buf[offCount:]))
	capacity := Capacity(r.schema, l)
	if count > capacity {
		return fmt.Errorf("%w: %d tuples, capacity %d", ErrBadCount, count, capacity)
	}
	if l == NSM {
		end := PageSize - 2*count - r.schema.TupleWidth()
		for i := 0; i < count; i++ {
			if off := int(binary.LittleEndian.Uint16(buf[PageSize-2*(i+1):])); off < HeaderSize || off > end {
				return fmt.Errorf("%w: slot %d at offset %d", ErrBadSlot, i, off)
			}
		}
	}
	r.layout = l
	r.capacity = capacity
	r.buf = buf
	r.count = count
	return nil
}

// Layout reports the page's record organization.
func (r *Reader) Layout() Layout { return r.layout }

// Schema reports the schema the Reader decodes.
func (r *Reader) Schema() *schema.Schema { return r.schema }

// Count reports the number of tuples stored in the page.
func (r *Reader) Count() int { return r.count }

// PageNo reports the page number stamped at build time.
func (r *Reader) PageNo() uint32 {
	return binary.LittleEndian.Uint32(r.buf[offPageNo:])
}

// Data reports the underlying page bytes (aliased, not copied).
func (r *Reader) Data() []byte { return r.buf }

// Tuple decodes tuple i into dst (grown as needed) and returns it.
// Char values alias the page buffer.
func (r *Reader) Tuple(dst schema.Tuple, i int) schema.Tuple {
	if i < 0 || i >= r.count {
		panic(fmt.Sprintf("page: tuple index %d out of range [0,%d)", i, r.count))
	}
	switch r.layout {
	case NSM:
		off := r.nsmTupleOffset(i)
		return r.schema.DecodeTuple(dst, r.buf[off:off+r.schema.TupleWidth()])
	default: // PAX
		if cap(dst) < r.schema.NumColumns() {
			dst = make(schema.Tuple, r.schema.NumColumns())
		}
		dst = dst[:r.schema.NumColumns()]
		for col := range dst {
			dst[col] = r.Column(i, col)
		}
		return dst
	}
}

func (r *Reader) nsmTupleOffset(i int) int {
	slotOff := PageSize - 2*(i+1)
	return int(binary.LittleEndian.Uint16(r.buf[slotOff:]))
}

// Column returns the value of column col for tuple i. For PAX pages this
// touches only that column's minipage; for NSM it indexes into the
// record. Char values alias the page buffer.
func (r *Reader) Column(i, col int) schema.Value {
	if i < 0 || i >= r.count {
		panic(fmt.Sprintf("page: tuple index %d out of range [0,%d)", i, r.count))
	}
	switch r.layout {
	case NSM:
		off := r.nsmTupleOffset(i)
		return r.schema.DecodeColumn(r.buf[off:off+r.schema.TupleWidth()], col)
	default: // PAX
		c := r.schema.Column(col)
		w := c.Width()
		off := paxMinipageOffset(r.schema, r.capacity, col) + i*w
		switch c.Kind {
		case schema.Int32, schema.Date:
			return schema.Value{Int: int64(int32(binary.LittleEndian.Uint32(r.buf[off:])))}
		case schema.Int64:
			return schema.Value{Int: int64(binary.LittleEndian.Uint64(r.buf[off:]))}
		default: // Char
			return schema.Value{Bytes: r.buf[off : off+w]}
		}
	}
}

// Int64Column calls fn for each tuple's integer value of column col,
// in tuple order. It is the streaming fast path device-side predicate
// evaluation uses on PAX minipages (and works, more expensively, on NSM).
// It panics if the column is a Char column.
func (r *Reader) Int64Column(col int, fn func(i int, v int64)) {
	c := r.schema.Column(col)
	if c.Kind == schema.Char {
		panic(fmt.Sprintf("page: Int64Column on CHAR column %q", c.Name))
	}
	for i := 0; i < r.count; i++ {
		fn(i, r.Column(i, col).Int)
	}
}

// Int64ColumnInto bulk-decodes column col of every tuple in the page
// into dst (grown as needed) and returns dst[:Count]. It hoists the
// schema lookup and offset arithmetic Column performs per call out of
// the loop: on PAX pages this is a tight sweep over one minipage, on
// NSM a strided decode through the slot directory. It panics if the
// column is a Char column.
func (r *Reader) Int64ColumnInto(col int, dst []int64) []int64 {
	c := r.schema.Column(col)
	if c.Kind == schema.Char {
		panic(fmt.Sprintf("page: Int64ColumnInto on CHAR column %q", c.Name))
	}
	if cap(dst) < r.count {
		dst = make([]int64, r.count)
	}
	dst = dst[:r.count]
	switch r.layout {
	case NSM:
		fieldOff := r.schema.Offset(col)
		if c.Kind == schema.Int64 {
			for i := 0; i < r.count; i++ {
				off := r.nsmTupleOffset(i) + fieldOff
				dst[i] = int64(binary.LittleEndian.Uint64(r.buf[off:]))
			}
		} else {
			for i := 0; i < r.count; i++ {
				off := r.nsmTupleOffset(i) + fieldOff
				dst[i] = int64(int32(binary.LittleEndian.Uint32(r.buf[off:])))
			}
		}
	default: // PAX
		base := paxMinipageOffset(r.schema, r.capacity, col)
		if c.Kind == schema.Int64 {
			mp := r.buf[base : base+8*r.count]
			for i := 0; i < r.count; i++ {
				dst[i] = int64(binary.LittleEndian.Uint64(mp[8*i:]))
			}
		} else {
			mp := r.buf[base : base+4*r.count]
			for i := 0; i < r.count; i++ {
				dst[i] = int64(int32(binary.LittleEndian.Uint32(mp[4*i:])))
			}
		}
	}
	return dst
}

// Int64ColumnAt decodes column col of each tuple in rows, ascending
// indexes below Count, into dst[row], leaving dst's other elements as
// they were: Int64ColumnInto restricted to a selection, so a scan
// decodes only the rows still selected. dst must hold Count elements.
// It panics if the column is a Char column.
func (r *Reader) Int64ColumnAt(col int, rows []int32, dst []int64) {
	c := r.schema.Column(col)
	if c.Kind == schema.Char {
		panic(fmt.Sprintf("page: Int64ColumnAt on CHAR column %q", c.Name))
	}
	dst = dst[:r.count]
	switch r.layout {
	case NSM:
		fieldOff := r.schema.Offset(col)
		if c.Kind == schema.Int64 {
			for _, i := range rows {
				off := r.nsmTupleOffset(int(i)) + fieldOff
				dst[i] = int64(binary.LittleEndian.Uint64(r.buf[off:]))
			}
		} else {
			for _, i := range rows {
				off := r.nsmTupleOffset(int(i)) + fieldOff
				dst[i] = int64(int32(binary.LittleEndian.Uint32(r.buf[off:])))
			}
		}
	default: // PAX
		base := paxMinipageOffset(r.schema, r.capacity, col)
		if c.Kind == schema.Int64 {
			mp := r.buf[base : base+8*r.count]
			for _, i := range rows {
				dst[i] = int64(binary.LittleEndian.Uint64(mp[8*int(i):]))
			}
		} else {
			mp := r.buf[base : base+4*r.count]
			for _, i := range rows {
				dst[i] = int64(int32(binary.LittleEndian.Uint32(mp[4*int(i):])))
			}
		}
	}
}

// BytesColumnInto bulk-decodes Char column col of every tuple into dst
// (grown as needed) and returns dst[:Count]. The element slices alias
// the page buffer, exactly like Column; callers retaining them past the
// page's reuse must copy. It panics on a non-Char column.
func (r *Reader) BytesColumnInto(col int, dst [][]byte) [][]byte {
	c := r.schema.Column(col)
	if c.Kind != schema.Char {
		panic(fmt.Sprintf("page: BytesColumnInto on %v column %q", c.Kind, c.Name))
	}
	if cap(dst) < r.count {
		dst = make([][]byte, r.count)
	}
	dst = dst[:r.count]
	w := c.Len
	switch r.layout {
	case NSM:
		fieldOff := r.schema.Offset(col)
		for i := 0; i < r.count; i++ {
			off := r.nsmTupleOffset(i) + fieldOff
			dst[i] = r.buf[off : off+w]
		}
	default: // PAX
		base := paxMinipageOffset(r.schema, r.capacity, col)
		for i := 0; i < r.count; i++ {
			off := base + i*w
			dst[i] = r.buf[off : off+w]
		}
	}
	return dst
}

// ReplaceTuple overwrites tuple i of the sealed page in buf with the
// encoded tuple bytes (schema.EncodeTuple format) and reseals the
// checksum. It is the redo-apply primitive crash recovery uses to
// install a WAL after-image without rebuilding the whole page. The
// page is modified in place; buf must not alias storage concurrent
// readers are scanning.
func ReplaceTuple(s *schema.Schema, buf []byte, i int, tuple []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("%w: %d bytes", ErrBadSize, len(buf))
	}
	if binary.LittleEndian.Uint16(buf[offMagic:]) != magic {
		return ErrBadMagic
	}
	l := Layout(buf[offLayout])
	if l != NSM && l != PAX {
		return fmt.Errorf("%w: %d", ErrBadLayout, buf[offLayout])
	}
	if int(binary.LittleEndian.Uint16(buf[offWidth:])) != s.TupleWidth() {
		return fmt.Errorf("%w: page says %d, schema says %d", ErrSchema,
			binary.LittleEndian.Uint16(buf[offWidth:]), s.TupleWidth())
	}
	if len(tuple) != s.TupleWidth() {
		return fmt.Errorf("%w: after-image is %d bytes, schema tuple is %d",
			ErrSchema, len(tuple), s.TupleWidth())
	}
	count := int(binary.LittleEndian.Uint16(buf[offCount:]))
	if i < 0 || i >= count {
		return fmt.Errorf("page: replace tuple %d out of range [0,%d)", i, count)
	}
	switch l {
	case NSM:
		slotOff := PageSize - 2*(i+1)
		off := int(binary.LittleEndian.Uint16(buf[slotOff:]))
		if off < HeaderSize || off+s.TupleWidth() > PageSize-2*count {
			return fmt.Errorf("page: slot %d points outside the record area (offset %d)", i, off)
		}
		copy(buf[off:off+s.TupleWidth()], tuple)
	case PAX:
		// EncodeTuple is the per-column concatenation of EncodeValue,
		// so each minipage cell is the matching fixed-width slice of
		// the encoded tuple.
		capacity := Capacity(s, PAX)
		for col := 0; col < s.NumColumns(); col++ {
			w := s.Column(col).Width()
			cell := paxMinipageOffset(s, capacity, col) + i*w
			copy(buf[cell:cell+w], tuple[s.Offset(col):s.Offset(col)+w])
		}
	}
	binary.LittleEndian.PutUint32(buf[offCRC:], 0)
	crc := crc32.Checksum(buf, crcTable)
	binary.LittleEndian.PutUint32(buf[offCRC:], crc)
	return nil
}

// Columns decodes chosen columns of a table's pages into one
// schema.Batch, refilled in place page after page: CHAR columns as
// [][]byte aliasing the page, decoded with each page, and numeric
// columns as []int64, decoded on demand (see schema.Batch) at the rows
// a kernel reads. Its vectors are carved once, at page capacity, from
// an arena.
type Columns struct {
	Batch    *schema.Batch
	r        *Reader // the page of the last Decode
	chars    []int
	charVecs [][][]byte
	all      []int32
}

// NewColumns plans the decode of columns cols (repeats ignored) of
// pages of schema s in layout l, carving the vectors from arena.
func NewColumns(s *schema.Schema, l Layout, cols []int, arena *schema.TupleArena) *Columns {
	capacity := Capacity(s, l)
	c := &Columns{Batch: schema.NewBatch(s.NumColumns()), all: arena.Sel(capacity)}
	for _, col := range cols {
		switch {
		case c.Batch.Int64Vec(col) != nil || c.Batch.BytesVec(col) != nil:
		case s.Column(col).Kind == schema.Char:
			vec := arena.ByteVecs(capacity)
			c.Batch.SetBytesVec(col, vec)
			c.chars, c.charVecs = append(c.chars, col), append(c.charVecs, vec)
		default:
			c.Batch.SetInt64Vec(col, arena.Ints(capacity))
		}
	}
	c.Batch.SetDecoder(c)
	return c
}

// Decode makes the bound page r the batch's rows, decodes its CHAR
// columns, and reports the selection of all its rows, valid until the
// next Decode. r must stay bound to the page while the batch is read.
func (c *Columns) Decode(r *Reader) []int32 {
	c.r = r
	c.Batch.SetLen(r.Count())
	for k, col := range c.chars {
		r.BytesColumnInto(col, c.charVecs[k])
	}
	sel := c.all[:r.Count()]
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// DecodeInt64 implements schema.Decoder over the page of the last
// Decode.
func (c *Columns) DecodeInt64(col int, rows []int32, vec []int64) {
	if rows == nil {
		c.r.Int64ColumnInto(col, vec)
		return
	}
	c.r.Int64ColumnAt(col, rows, vec)
}
