package schema

import (
	"fmt"
	"math/bits"
	"slices"
)

// KeyTable is an open-addressing hash table over fixed-width keys of
// a set number of uint64 words — the one table behind every join build side,
// grouping and partial-result merge. It gives each distinct key a dense
// id, 0, 1, 2, … in first-seen order, and can file rows under a key in
// chains that keep insertion order (a build side with duplicate keys).
//
// It is wall-clock machinery only: the simulated cost of a build,
// probe or group fold is charged by callers from cost-model constants,
// never from what the table did. Reset a table before its first use.
// Not safe for concurrent use.
type KeyTable struct {
	width int
	n     int      // distinct keys
	keys  []uint64 // key of id g at keys[g*width : (g+1)*width]
	slots []int32  // id+1 of the key filed in the slot; 0 marks it free
	shift uint     // 64 - log2(len(slots)): hashes index by their top bits
	// Row chains: head[g] and tail[g] are the first and last row filed
	// under id g, next[r] the row after r; -1 ends a chain.
	head, tail, next []int32
}

const (
	fib          = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	minKeySlots  = 64                 // small group tables stay collision-light at a quarter KB
	maxKeyFillPc = 50                 // grow before more than half the slots are taken
)

// Reset empties the table for keys of width words, keeping its memory.
func (t *KeyTable) Reset(width int) {
	if width < 1 {
		panic(fmt.Sprintf("schema: key width %d", width))
	}
	t.width = width
	t.n = 0
	t.keys = t.keys[:0]
	t.head, t.tail, t.next = t.head[:0], t.tail[:0], t.next[:0]
	if len(t.slots) == 0 {
		t.setSlots(minKeySlots)
	} else {
		clear(t.slots)
	}
}

// Reserve sizes the table for n distinct keys (and n chained rows)
// without growth, from a bound the caller knows such as a table's
// extent. Exceeding it later still works; the table grows.
func (t *KeyTable) Reserve(n int) {
	if n <= 0 {
		return
	}
	t.keys = slices.Grow(t.keys, n*t.width)
	t.head, t.tail, t.next = slices.Grow(t.head, n), slices.Grow(t.tail, n), slices.Grow(t.next, n)
	if need := slotsFor(n); need > len(t.slots) {
		t.rehash(need)
	}
}

// Len reports the number of distinct keys.
func (t *KeyTable) Len() int { return t.n }

// key reports the words of the key with id g.
func (t *KeyTable) key(g int32) []uint64 {
	return t.keys[int(g)*t.width : (int(g)+1)*t.width]
}

// Insert files key (the table's width in words) and reports its id and whether it was
// new. New keys get the next id in sequence.
func (t *KeyTable) Insert(key []uint64) (int32, bool) {
	if len(key) != t.width {
		panic(fmt.Sprintf("schema: key of %d words in a %d-word table", len(key), t.width))
	}
	if t.width == 1 {
		return t.Insert1(key[0])
	}
	t.ensureRoom()
	mask := len(t.slots) - 1
	for i := int(hashWords(key) >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			g := t.add()
			t.keys = append(t.keys, key...)
			t.slots[i] = g + 1
			return g, true
		}
		if wordsEqual(t.key(s-1), key) {
			return s - 1, false
		}
	}
}

// Insert1 is Insert for a one-word table.
func (t *KeyTable) Insert1(k uint64) (int32, bool) {
	t.ensureRoom()
	mask := len(t.slots) - 1
	for i := int((k * fib) >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			g := t.add()
			t.keys = append(t.keys, k)
			t.slots[i] = g + 1
			return g, true
		}
		if t.keys[s-1] == k {
			return s - 1, false
		}
	}
}

// InsertBatch1 is Insert1 over a vector: it files every key of keys
// in order and writes each one's id to ids. Ids at or above the
// table's Len before the call are new, numbered in first-seen order.
func (t *KeyTable) InsertBatch1(keys []uint64, ids []int32) {
	slots, mask := t.slots, len(t.slots)-1
	for k, key := range keys {
		i := int((key * fib) >> t.shift)
		for {
			s := slots[i]
			if s == 0 {
				ids[k], _ = t.Insert1(key) // may grow the slots
				slots, mask = t.slots, len(t.slots)-1
				break
			}
			if t.keys[s-1] == key {
				ids[k] = s - 1
				break
			}
			i = (i + 1) & mask
		}
	}
}

// Find1 reports the id of one-word key k, or -1 when it was never
// inserted.
func (t *KeyTable) Find1(k uint64) int32 {
	mask := len(t.slots) - 1
	for i := int((k * fib) >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.keys[s-1] == k {
			return s - 1
		}
	}
}

// AddRow1 files the next row — rows are numbered 0, 1, 2, … in the
// order they are added — under one-word key k, at the end of k's chain,
// and reports the row number.
func (t *KeyTable) AddRow1(k uint64) int32 {
	g, added := t.Insert1(k)
	r := int32(len(t.next))
	t.next = append(t.next, -1)
	if added {
		t.head[g] = r
	} else {
		t.next[t.tail[g]] = r
	}
	t.tail[g] = r
	return r
}

// Chain1 reports the first row filed under one-word key k, or -1.
// Next walks the rest of the chain in insertion order.
func (t *KeyTable) Chain1(k uint64) int32 {
	if g := t.Find1(k); g >= 0 {
		return t.head[g]
	}
	return -1
}

// Next reports the row filed after row r under the same key, or -1.
func (t *KeyTable) Next(r int32) int32 { return t.next[r] }

// add allocates the next id and its (empty) chain.
func (t *KeyTable) add() int32 {
	g := int32(t.n)
	t.n++
	t.head = append(t.head, -1)
	t.tail = append(t.tail, -1)
	return g
}

func (t *KeyTable) ensureRoom() {
	if (t.n+1)*100 > len(t.slots)*maxKeyFillPc {
		t.rehash(2 * len(t.slots))
	}
}

// rehash moves every key into a slot array of size (a power of two).
func (t *KeyTable) rehash(size int) {
	t.setSlots(size)
	mask := size - 1
	for g := 0; g < t.n; g++ {
		var h uint64
		if t.width == 1 {
			h = t.keys[g] * fib
		} else {
			h = hashWords(t.key(int32(g)))
		}
		i := int(h >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(g) + 1
	}
}

func (t *KeyTable) setSlots(size int) {
	if cap(t.slots) >= size {
		t.slots = t.slots[:size]
		clear(t.slots)
	} else {
		t.slots = make([]int32, size)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// slotsFor reports the power-of-two slot count that holds n keys
// within the fill bound.
func slotsFor(n int) int {
	size := minKeySlots
	for n*100 > size*maxKeyFillPc {
		size *= 2
	}
	return size
}

// hashWords mixes a multi-word key; the caller indexes by the top bits.
func hashWords(key []uint64) uint64 {
	h := uint64(len(key))
	for _, w := range key {
		h = (bits.RotateLeft64(h, 29) ^ w) * fib
	}
	return h
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// KeyLayout packs the fixed-width encodings of a list of columns — the
// bytes EncodeValue writes, concatenated in list order — into
// little-endian uint64 words, zero-padded to a whole word: the key
// format of KeyTable. Two values pack equal exactly when their
// encodings are equal, so CHAR keys compare with trailing spaces
// ignored, as SQL CHAR comparison does.
type KeyLayout struct {
	cols []int  // source column indexes
	char []bool // whether each is a CHAR column
	// offs[i] is the byte offset of column i within the key;
	// offs[len(cols)] is the key's length in bytes.
	offs  []int
	words int
}

// KeyLayout builds the packing of columns cols of s.
func (s *Schema) KeyLayout(cols []int) *KeyLayout {
	l := &KeyLayout{cols: slices.Clone(cols), offs: []int{0}}
	for i, c := range cols {
		l.char = append(l.char, s.Column(c).Kind == Char)
		l.offs = append(l.offs, l.offs[i]+s.Column(c).Width())
	}
	l.words = (l.offs[len(cols)] + 7) / 8
	return l
}

// Words reports the packed key width in words.
func (l *KeyLayout) Words() int { return l.words }

// Cols reports the source column of each key position.
func (l *KeyLayout) Cols() []int { return l.cols }

// PackValue ORs key position i's encoding of v into the key in dst,
// which must start zeroed.
func (l *KeyLayout) PackValue(dst []uint64, i int, v Value) {
	off, n := l.offs[i], l.offs[i+1]-l.offs[i]
	if l.char[i] {
		for j := 0; j < n; j++ {
			c := byte(' ')
			if j < len(v.Bytes) {
				c = v.Bytes[j]
			}
			dst[(off+j)>>3] |= uint64(c) << (8 * uint((off+j)&7))
		}
		return
	}
	mask := uint64(1)<<(8*n) - 1 // all ones when n is 8
	w, s := uint64(v.Int)&mask, 8*uint(off&7)
	dst[off>>3] |= w << s
	if off&7+n > 8 { // the value straddles two words
		dst[off>>3+1] |= w >> (64 - s)
	}
}

// PackBatch packs the key of every selected row of b, column by column:
// the key of sel[k] fills dst[k*Words() : (k+1)*Words()]. dst is
// cleared first. Every key column must be populated in b.
func (l *KeyLayout) PackBatch(dst []uint64, b *Batch, sel []int32) {
	clear(dst)
	w := l.words
	for i, c := range l.cols {
		off, n := l.offs[i], l.offs[i+1]-l.offs[i]
		wi, s := off>>3, uint(off&7)*8
		switch char := l.char[i]; {
		case off&7+n > 8: // the column straddles words
			for k, r := range sel {
				l.PackValue(dst[k*w:(k+1)*w], i, b.Value(c, int(r)))
			}
		case char && n == 1: // flag columns: the common case
			vec := b.BytesVec(c)
			for k, r := range sel {
				v := uint64(' ')
				if len(vec[r]) > 0 {
					v = uint64(vec[r][0])
				}
				dst[k*w+wi] |= v << s
			}
		case char:
			vec := b.BytesVec(c)
			for k, r := range sel {
				dst[k*w+wi] |= charWord(vec[r], n) << s
			}
		default:
			vec := b.Int64Vec(c)
			mask := uint64(1)<<(8*n) - 1 // all ones when n is 8
			for k, r := range sel {
				dst[k*w+wi] |= (uint64(vec[r]) & mask) << s
			}
		}
	}
}

// charWord reports the encoding of b as a CHAR(n) value, n at most 8,
// as a little-endian word.
func charWord(b []byte, n int) uint64 {
	var v uint64
	for j := n - 1; j >= 0; j-- {
		c := byte(' ')
		if j < len(b) {
			c = b[j]
		}
		v = v<<8 | uint64(c)
	}
	return v
}
