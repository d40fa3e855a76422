package schema

// Batch is a columnar view of a run of tuples — one fixed-capacity
// vector per referenced column, decoded page-at-a-time by the executor,
// plus a selection vector of surviving row indexes. Vectors are carved
// from a TupleArena and reused across pages, so a steady-state scan
// decodes columns into the same backing memory for every page.
//
// Only the columns a query references are populated: numeric columns
// (Int32, Int64, Date) as []int64 — matching the widening the scalar
// decode path performs — and Char columns as [][]byte whose elements
// alias the page buffer. Unpopulated columns stay nil.
//
// A batch with a Decoder fills its numeric vectors on demand: after
// each SetLen, Int64At decodes a column only at the rows a kernel asks
// for, and Int64Vec and Value decode it in full, once per run.
//
// Batch implements the vectorized evaluator's column-source contract
// (expr.BatchSource) structurally, so compiled kernels run over it
// without an adapter.
type Batch struct {
	n    int
	ints [][]int64
	strs [][][]byte
	// Sel is the current selection: indexes into the column vectors of
	// the rows still alive after filtering, in ascending order.
	Sel []int32
	dec Decoder
	// full marks the numeric vectors dec filled for every row of the
	// current run.
	full []bool
}

// A Decoder fills a Batch's numeric vectors from the rows it holds.
type Decoder interface {
	// DecodeInt64 writes column col's value of each row in rows into
	// vec[row], or of every row when rows is nil.
	DecodeInt64(col int, rows []int32, vec []int64)
}

// NewBatch returns a Batch for schemas of up to cols columns, with no
// vectors attached.
func NewBatch(cols int) *Batch {
	return &Batch{ints: make([][]int64, cols), strs: make([][][]byte, cols)}
}

// Len reports the row count of the underlying page run (not the
// selection length).
func (b *Batch) Len() int { return b.n }

// SetLen records the row count of the batch. Attached vectors are
// sliced to it on access; with a decoder, each is stale until asked for.
func (b *Batch) SetLen(n int) {
	b.n = n
	clear(b.full)
}

// SetDecoder makes b fill its numeric vectors through d on demand.
func (b *Batch) SetDecoder(d Decoder) {
	b.dec = d
	b.full = make([]bool, len(b.ints))
}

// SetInt64Vec attaches v as column col's numeric vector.
func (b *Batch) SetInt64Vec(col int, v []int64) { b.ints[col] = v }

// SetBytesVec attaches v as column col's CHAR vector.
func (b *Batch) SetBytesVec(col int, v [][]byte) { b.strs[col] = v }

// Int64Vec reports column col's numeric vector, filled for every row
// (nil when not populated).
func (b *Batch) Int64Vec(col int) []int64 {
	v := b.ints[col]
	if v == nil {
		return nil
	}
	v = v[:b.n]
	if b.dec != nil && !b.full[col] {
		b.dec.DecodeInt64(col, nil, v)
		b.full[col] = true
	}
	return v
}

// Int64At reports column col's numeric vector filled at least at the
// rows of sel, an ascending selection of the batch's rows (nil when not
// populated). Other rows may hold stale values, so callers index it
// only by the rows of sel.
func (b *Batch) Int64At(col int, sel []int32) []int64 {
	if len(sel) == b.n {
		return b.Int64Vec(col)
	}
	v := b.ints[col]
	if v == nil {
		return nil
	}
	v = v[:b.n]
	if b.dec != nil && !b.full[col] && len(sel) > 0 {
		b.dec.DecodeInt64(col, sel, v)
	}
	return v
}

// BytesVec reports column col's CHAR vector (nil when not populated).
func (b *Batch) BytesVec(col int) [][]byte {
	if v := b.strs[col]; v != nil {
		return v[:b.n]
	}
	return nil
}

// Value reassembles row i of column col as a scalar Value, using
// whichever vector is populated. It is the bridge scalar consumers
// (group-key encoding, group tuples) use on top of a decoded batch.
func (b *Batch) Value(col int, i int) Value {
	if v := b.Int64Vec(col); v != nil {
		return Value{Int: v[i]}
	}
	return Value{Bytes: b.strs[col][i]}
}
