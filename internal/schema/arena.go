package schema

// TupleArena batch-allocates tuple copies: values and Char backing
// bytes are carved from chunked slabs instead of one heap object per
// tuple, cutting the executor's per-tuple allocation count on paths
// that must retain tuples past their emit window (hash-join build
// sides, collected result rows).
//
// Tuples returned by Clone stay valid for the arena's lifetime; the
// arena only ever carves forward, so earlier clones are never
// overwritten. Not safe for concurrent use.
type TupleArena struct {
	vals  []Value
	bytes []byte
	ints  []int64
	sels  []int32
	bvecs [][]byte
	// Carves landing in abandoned slabs, accumulated at growth time.
	// Reset adds the live slab's length to recover the cycle's total
	// demand and right-sizes the retained slab to it, so a reused
	// arena reaches zero-allocation steady state after one cycle
	// instead of re-laddering through doubling slabs.
	valsLost, bytesLost, intsLost, selsLost, bvecsLost int
}

const (
	arenaValChunk  = 4096
	arenaByteChunk = 16384
)

// Reset discards every carve while retaining one slab of each kind,
// sized to the whole cycle's demand: when carves spilled across
// doubling slabs, the retained slab is replaced by a single one big
// enough for everything the cycle used, so the next cycle allocates
// nothing instead of re-laddering. Carve methods rely on slab memory
// being zero, so retained live prefixes are cleared (fresh slabs are
// born zero); the byte slab is exempt because cloned bytes are always
// fully overwritten. Clearing vals also drops Bytes pointers so the
// old backing arrays can be collected.
//
// Tuples carved before Reset are invalidated: the next carves reuse
// their memory.
func (a *TupleArena) Reset() {
	if d := a.valsLost + len(a.vals); cap(a.vals) < d {
		a.vals = make([]Value, 0, d)
	} else {
		clear(a.vals)
		a.vals = a.vals[:0]
	}
	if d := a.bytesLost + len(a.bytes); cap(a.bytes) < d {
		a.bytes = make([]byte, 0, d)
	} else {
		a.bytes = a.bytes[:0]
	}
	if d := a.intsLost + len(a.ints); cap(a.ints) < d {
		a.ints = make([]int64, 0, d)
	} else {
		clear(a.ints)
		a.ints = a.ints[:0]
	}
	if d := a.selsLost + len(a.sels); cap(a.sels) < d {
		a.sels = make([]int32, 0, d)
	} else {
		clear(a.sels)
		a.sels = a.sels[:0]
	}
	if d := a.bvecsLost + len(a.bvecs); cap(a.bvecs) < d {
		a.bvecs = make([][]byte, 0, d)
	} else {
		clear(a.bvecs)
		a.bvecs = a.bvecs[:0]
	}
	a.valsLost, a.bytesLost, a.intsLost, a.selsLost, a.bvecsLost = 0, 0, 0, 0, 0
}

// Reserve ensures capacity for vals value slots and bytes slab bytes
// ahead of a build whose demand is known (a hash-join build side of a
// known cardinality), replacing the doubling ladder with one
// right-sized slab. Reserving on a warm arena whose retained slab
// already fits is free. Zero arguments are ignored.
func (a *TupleArena) Reserve(vals, bytes int) {
	if vals > 0 && cap(a.vals)-len(a.vals) < vals {
		a.valsLost += len(a.vals)
		a.vals = make([]Value, 0, max(arenaValChunk, vals))
	}
	if bytes > 0 && cap(a.bytes)-len(a.bytes) < bytes {
		a.bytesLost += len(a.bytes)
		a.bytes = make([]byte, 0, max(arenaByteChunk, bytes))
	}
}

// Clone deep-copies t (Char bytes included) into the arena.
func (a *TupleArena) Clone(t Tuple) Tuple {
	if cap(a.vals)-len(a.vals) < len(t) {
		a.valsLost += len(a.vals)
		a.vals = make([]Value, 0, max(arenaValChunk, len(t), 2*cap(a.vals)))
	}
	n := len(a.vals)
	out := a.vals[n : n+len(t) : n+len(t)]
	a.vals = a.vals[:n+len(t)]
	copy(out, t)
	for i := range out {
		if out[i].Bytes != nil {
			out[i].Bytes = a.cloneBytes(out[i].Bytes)
		}
	}
	return Tuple(out)
}

// CloneBytes copies b into the arena's byte slab.
func (a *TupleArena) CloneBytes(b []byte) []byte { return a.cloneBytes(b) }

func (a *TupleArena) cloneBytes(b []byte) []byte {
	if cap(a.bytes)-len(a.bytes) < len(b) {
		a.bytesLost += len(a.bytes)
		a.bytes = make([]byte, 0, max(arenaByteChunk, len(b), 2*cap(a.bytes)))
	}
	n := len(a.bytes)
	out := a.bytes[n : n+len(b) : n+len(b)]
	a.bytes = a.bytes[:n+len(b)]
	copy(out, b)
	return out
}

// Ints carves a zeroed int64 slice (column vectors).
func (a *TupleArena) Ints(n int) []int64 {
	if cap(a.ints)-len(a.ints) < n {
		a.intsLost += len(a.ints)
		a.ints = make([]int64, 0, max(arenaValChunk, n, 2*cap(a.ints)))
	}
	ln := len(a.ints)
	out := a.ints[ln : ln+n : ln+n]
	a.ints = a.ints[:ln+n]
	return out
}

// Sel carves a zeroed int32 slice — the selection vectors and row-index
// buffers of the vectorized executor.
func (a *TupleArena) Sel(n int) []int32 {
	if cap(a.sels)-len(a.sels) < n {
		a.selsLost += len(a.sels)
		a.sels = make([]int32, 0, max(arenaValChunk, n, 2*cap(a.sels)))
	}
	ln := len(a.sels)
	out := a.sels[ln : ln+n : ln+n]
	a.sels = a.sels[:ln+n]
	return out
}

// ByteVecs carves a zeroed [][]byte slice — the CHAR column vectors of a
// columnar Batch. The element slices installed by callers typically
// alias page buffers; Reset clears them so the pages can be collected.
func (a *TupleArena) ByteVecs(n int) [][]byte {
	if cap(a.bvecs)-len(a.bvecs) < n {
		a.bvecsLost += len(a.bvecs)
		a.bvecs = make([][]byte, 0, max(arenaValChunk, n, 2*cap(a.bvecs)))
	}
	ln := len(a.bvecs)
	out := a.bvecs[ln : ln+n : ln+n]
	a.bvecs = a.bvecs[:ln+n]
	return out
}
