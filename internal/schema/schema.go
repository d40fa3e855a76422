// Package schema defines table schemas, column types, and the tuple codec
// shared by the NSM and PAX page layouts.
//
// Following the paper's workload preparation (§4.1.1), all columns are
// fixed width: variable-length strings become fixed-length CHAR(n),
// decimals are stored as integers scaled by 100, and dates are stored as
// the number of days since the epoch. Fixed-width tuples are what make
// in-device predicate evaluation cheap, and they make both page codecs
// exact-offset computable.
package schema

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"
)

// Kind enumerates the supported column types.
type Kind uint8

const (
	// Int32 is a 32-bit signed integer (also used for scaled decimals).
	Int32 Kind = iota + 1
	// Int64 is a 64-bit signed integer.
	Int64
	// Date is a 32-bit signed day count since 1970-01-01.
	Date
	// Char is a fixed-length, space-padded byte string.
	Char
)

// String reports the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Int32:
		return "INT32"
	case Int64:
		return "INT64"
	case Date:
		return "DATE"
	case Char:
		return "CHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Column describes one fixed-width column.
type Column struct {
	Name string
	Kind Kind
	// Len is the byte length for Char columns; ignored otherwise.
	Len int
}

// Width reports the encoded byte width of the column.
func (c Column) Width() int {
	switch c.Kind {
	case Int32, Date:
		return 4
	case Int64:
		return 8
	case Char:
		return c.Len
	default:
		panic(fmt.Sprintf("schema: unknown kind %v", c.Kind))
	}
}

// Schema is an ordered list of columns plus precomputed offsets.
// Build one with New; the zero value is not usable.
type Schema struct {
	cols    []Column
	offsets []int
	width   int
	byName  map[string]int
}

// Check reports why cols cannot form a schema: an empty or duplicate
// column name, an unknown kind, or a Char column with a non-positive
// length. Callers building a schema from untrusted input (a decoded
// image) check first; New panics on the same errors.
func Check(cols ...Column) error {
	_, err := build(cols)
	return err
}

// New builds a Schema from cols. It panics on any error Check reports,
// since schemas are program constants and such errors are always bugs.
func New(cols ...Column) *Schema {
	s, err := build(cols)
	if err != nil {
		panic(err.Error())
	}
	return s
}

func build(cols []Column) (*Schema, error) {
	s := &Schema{
		cols:    append([]Column(nil), cols...),
		offsets: make([]int, len(cols)),
		byName:  make(map[string]int, len(cols)),
	}
	off := 0
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate column %q", c.Name)
		}
		switch c.Kind {
		case Int32, Int64, Date:
		case Char:
			if c.Len <= 0 {
				return nil, fmt.Errorf("schema: CHAR column %q needs positive Len", c.Name)
			}
		default:
			return nil, fmt.Errorf("schema: column %q has unknown kind %v", c.Name, c.Kind)
		}
		s.byName[c.Name] = i
		s.offsets[i] = off
		off += c.Width()
	}
	s.width = off
	return s, nil
}

// NumColumns reports the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Columns reports a copy of the column list, for serialization.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Column reports the i'th column descriptor.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// ColumnIndex reports the index of the named column, or -1 if absent.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustColumnIndex is like ColumnIndex but panics on an unknown name.
// Query construction in this repo uses program-constant column names.
func (s *Schema) MustColumnIndex(name string) int {
	i := s.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("schema: no column %q", name))
	}
	return i
}

// Offset reports the byte offset of column i within an encoded tuple.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// TupleWidth reports the fixed encoded width of one tuple in bytes.
func (s *Schema) TupleWidth() int { return s.width }

// Project returns a new Schema containing the named subset of columns,
// in the given order.
func (s *Schema) Project(names ...string) *Schema {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = s.cols[s.MustColumnIndex(n)]
	}
	return New(cols...)
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
		if c.Kind == Char {
			fmt.Fprintf(&b, "(%d)", c.Len)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Concat reports the schema of l's columns followed by r's: a join's
// combined row. An r column whose name is taken gets suffix appended
// until it is unique.
func Concat(l, r *Schema, suffix string) *Schema {
	cols := append(l.Columns(), r.cols...)
	seen := map[string]bool{}
	for i := range cols {
		for seen[cols[i].Name] {
			cols[i].Name += suffix
		}
		seen[cols[i].Name] = true
	}
	return New(cols...)
}

// Value is a single column value. Numeric kinds use Int; Char uses Bytes.
// The zero Value is a zero of whatever kind the schema assigns it.
type Value struct {
	Int   int64
	Bytes []byte
}

// IntVal returns a numeric Value.
func IntVal(v int64) Value { return Value{Int: v} }

// StrVal returns a Char Value. The bytes are not copied.
func StrVal(s string) Value { return Value{Bytes: []byte(s)} }

// DateVal returns a Date Value for the given calendar day (UTC).
func DateVal(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{Int: int64(t.Unix() / 86400)}
}

// Days reports the day count of a Date value built with DateVal.
func (v Value) Days() int64 { return v.Int }

// Tuple is a decoded row: one Value per schema column.
type Tuple []Value

// EncodeTuple appends the fixed-width encoding of t (under s) to dst and
// returns the extended slice. Char values shorter than the column width
// are space padded; longer values are truncated.
func (s *Schema) EncodeTuple(dst []byte, t Tuple) []byte {
	if len(t) != len(s.cols) {
		panic(fmt.Sprintf("schema: tuple has %d values, schema has %d columns", len(t), len(s.cols)))
	}
	for i, c := range s.cols {
		switch c.Kind {
		case Int32, Date:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(t[i].Int)))
		case Int64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(t[i].Int))
		case Char:
			b := t[i].Bytes
			if len(b) > c.Len {
				b = b[:c.Len]
			}
			dst = append(dst, b...)
			for j := len(b); j < c.Len; j++ {
				dst = append(dst, ' ')
			}
		}
	}
	return dst
}

// DecodeTuple decodes one fixed-width tuple from buf into dst (which is
// grown as needed) and returns it. Char values alias buf; callers that
// retain them across page reuse must copy.
func (s *Schema) DecodeTuple(dst Tuple, buf []byte) Tuple {
	if len(buf) < s.width {
		panic(fmt.Sprintf("schema: buffer %d bytes, tuple needs %d", len(buf), s.width))
	}
	if cap(dst) < len(s.cols) {
		dst = make(Tuple, len(s.cols))
	}
	dst = dst[:len(s.cols)]
	for i, c := range s.cols {
		off := s.offsets[i]
		switch c.Kind {
		case Int32, Date:
			dst[i] = Value{Int: int64(int32(binary.LittleEndian.Uint32(buf[off:])))}
		case Int64:
			dst[i] = Value{Int: int64(binary.LittleEndian.Uint64(buf[off:]))}
		case Char:
			dst[i] = Value{Bytes: buf[off : off+c.Len]}
		}
	}
	return dst
}

// DecodeColumn decodes column col of the encoded tuple in buf.
func (s *Schema) DecodeColumn(buf []byte, col int) Value {
	c := s.cols[col]
	off := s.offsets[col]
	switch c.Kind {
	case Int32, Date:
		return Value{Int: int64(int32(binary.LittleEndian.Uint32(buf[off:])))}
	case Int64:
		return Value{Int: int64(binary.LittleEndian.Uint64(buf[off:]))}
	case Char:
		return Value{Bytes: buf[off : off+c.Len]}
	default:
		panic(fmt.Sprintf("schema: unknown kind %v", c.Kind))
	}
}

// EncodeValue appends the fixed-width encoding of v as column col.
func (s *Schema) EncodeValue(dst []byte, col int, v Value) []byte {
	c := s.cols[col]
	switch c.Kind {
	case Int32, Date:
		return binary.LittleEndian.AppendUint32(dst, uint32(int32(v.Int)))
	case Int64:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Int))
	case Char:
		b := v.Bytes
		if len(b) > c.Len {
			b = b[:c.Len]
		}
		dst = append(dst, b...)
		for j := len(b); j < c.Len; j++ {
			dst = append(dst, ' ')
		}
		return dst
	default:
		panic(fmt.Sprintf("schema: unknown kind %v", c.Kind))
	}
}

// Equal reports whether two values of the same kind are equal. Char
// comparison ignores trailing spaces, matching SQL CHAR semantics.
func Equal(k Kind, a, b Value) bool {
	if k == Char {
		return compareChar(a.Bytes, b.Bytes) == 0
	}
	return a.Int == b.Int
}

// Compare orders two values of the same kind: -1, 0, or +1.
func Compare(k Kind, a, b Value) int {
	if k == Char {
		return compareChar(a.Bytes, b.Bytes)
	}
	switch {
	case a.Int < b.Int:
		return -1
	case a.Int > b.Int:
		return 1
	default:
		return 0
	}
}

func compareChar(a, b []byte) int {
	a = trimTrailingSpaces(a)
	b = trimTrailingSpaces(b)
	switch {
	case string(a) < string(b):
		return -1
	case string(a) > string(b):
		return 1
	default:
		return 0
	}
}

func trimTrailingSpaces(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == ' ' {
		b = b[:len(b)-1]
	}
	return b
}

// FormatValue renders v as a string according to kind k.
func FormatValue(k Kind, v Value) string {
	switch k {
	case Char:
		return string(trimTrailingSpaces(v.Bytes))
	case Date:
		t := time.Unix(v.Int*86400, 0).UTC()
		return t.Format("2006-01-02")
	default:
		return fmt.Sprintf("%d", v.Int)
	}
}
