package plan

import (
	"slices"

	"smartssd/internal/page"
	"smartssd/internal/schema"
)

// Join is the simple hash join both runtimes run, the host executor and
// the in-device program alike. Its build side files every build row
// under its key in a schema.KeyTable, duplicate keys chained in
// insertion order, beside the build columns the query reads, decoded
// into vectors indexed by build row. A probe looks up a page's keys
// against it, and a gather expands the rows that hit into their
// (probe row, build row) pairs, in row-then-chain order, and gathers
// the columns the query reads into one batch over the combined row:
// the probe table's columns first, then the build table's.
//
// Keys are numeric: a CHAR key column reads as zero, as Value.Int does.
// Join is wall-clock machinery; callers charge builds and probes from
// cost-model constants. Not safe for concurrent use.
type Join struct {
	keys   schema.KeyTable
	key    int // the build key column
	np     int // probe columns; build column c is combined column np+c
	gather []int
	read   []int // the build columns gathered
	copy   bool  // copy CHAR build values into chars instead of aliasing
	cols   *page.Columns
	build  *schema.Batch // the read build columns, indexed by build row
	ints   [][]int64
	strs   [][][]byte
	vecs   schema.TupleArena // backs cols
	chars  schema.TupleArena

	keyBuf             []int64
	heads              []int32 // heads[i]: the first build row filed under probe row i's key
	hits               []int32
	pairRow, pairBuild []int32
	pairs              *schema.Batch
	gInts              [][]int64
	gStrs              [][][]byte
	pairSel            []int32
}

// Reset empties j, keeping its memory, for a build on column key of
// pages of schema s in layout l, sized for n rows. Probes will gather
// the combined columns gather, where build column c is column np+c.
// With copyChars, CHAR build values are copied out of the build pages;
// without, they alias them, which suits pages nothing rewrites while
// the join runs.
func (j *Join) Reset(s *schema.Schema, l page.Layout, key, n, np int, gather []int, copyChars bool) {
	j.keys.Reset(1)
	j.keys.Reserve(n)
	j.key, j.np, j.gather, j.copy = key, np, gather, copyChars
	j.read = j.read[:0]
	for _, c := range gather {
		if c >= np {
			j.read = append(j.read, c-np)
		}
	}
	j.vecs.Reset()
	j.chars.Reset()
	j.cols = page.NewColumns(s, l, j.read, &j.vecs)
	j.build = schema.NewBatch(s.NumColumns())
	j.pairs = schema.NewBatch(np + s.NumColumns())
	j.ints = resize(j.ints, s.NumColumns())
	j.strs = resize(j.strs, s.NumColumns())
	for _, c := range j.read {
		if s.Column(c).Kind == schema.Char {
			j.strs[c] = slices.Grow(j.strs[c][:0], n)
		} else {
			j.ints[c] = slices.Grow(j.ints[c][:0], n)
		}
	}
	j.gInts = resize(j.gInts, len(gather))
	j.gStrs = resize(j.gStrs, len(gather))
}

// resize reports a slice of length n over v's memory when it fits; its
// elements are unspecified.
func resize[T any](v []T, n int) []T {
	return slices.Grow(v[:0], n)[:n]
}

// AddPage files every row of the bound build page r under its key and
// appends its read columns to the build side.
func (j *Join) AddPage(r *page.Reader) {
	j.keyBuf = KeyColumn(r, j.key, j.keyBuf)
	for _, k := range j.keyBuf {
		j.keys.AddRow1(uint64(k))
	}
	j.cols.Decode(r)
	for _, c := range j.read {
		if vec := j.cols.Batch.Int64Vec(c); vec != nil {
			j.ints[c] = append(j.ints[c], vec...)
			j.build.SetInt64Vec(c, j.ints[c])
			continue
		}
		for _, b := range j.cols.Batch.BytesVec(c) {
			if j.copy {
				b = j.chars.CloneBytes(b)
			}
			j.strs[c] = append(j.strs[c], b)
		}
		j.build.SetBytesVec(c, j.strs[c])
	}
	j.build.SetLen(j.build.Len() + r.Count())
}

// Probe looks up key column key of the bound probe page r for every row
// of sel, in order. It reports the rows whose key is filed — the rows
// Gather may expand — and how many (row, build row) pairs they make.
// The result is valid until the next Probe.
func (j *Join) Probe(r *page.Reader, key int, sel []int32) ([]int32, int64) {
	j.keyBuf = KeyColumn(r, key, j.keyBuf)
	j.heads = resize(j.heads, r.Count())
	j.hits = j.hits[:0]
	var pairs int64
	for _, i := range sel {
		h := j.keys.Chain1(uint64(j.keyBuf[i]))
		if h < 0 {
			continue
		}
		j.heads[i] = h
		j.hits = append(j.hits, i)
		for ; h >= 0; h = j.keys.Next(h) {
			pairs++
		}
	}
	return j.hits, pairs
}

// Gather expands rows — hits of the last Probe, in order — into their
// pairs, row then chain, and gathers each pair's gathered columns into
// one batch over the combined row: probe columns from probe, build
// columns from the build side. It reports the batch and the selection
// of all its pairs, valid until the next Gather.
func (j *Join) Gather(probe *schema.Batch, rows []int32) (*schema.Batch, []int32) {
	j.pairRow, j.pairBuild = j.pairRow[:0], j.pairBuild[:0]
	for _, i := range rows {
		for h := j.heads[i]; h >= 0; h = j.keys.Next(h) {
			j.pairRow = append(j.pairRow, i)
			j.pairBuild = append(j.pairBuild, h)
		}
	}
	n := len(j.pairRow)
	j.pairs.SetLen(n)
	for k, c := range j.gather {
		src, col, idx := probe, c, j.pairRow
		if c >= j.np {
			src, col, idx = j.build, c-j.np, j.pairBuild
		}
		if vec := src.Int64Vec(col); vec != nil {
			j.gInts[k] = gatherInto(j.gInts[k], vec, idx)
			j.pairs.SetInt64Vec(c, j.gInts[k])
		} else {
			j.gStrs[k] = gatherInto(j.gStrs[k], src.BytesVec(col), idx)
			j.pairs.SetBytesVec(c, j.gStrs[k])
		}
	}
	j.pairSel = resize(j.pairSel, n)
	for k := range j.pairSel {
		j.pairSel[k] = int32(k)
	}
	return j.pairs, j.pairSel
}

// PairRows reports the probe row of each pair of the last Gather.
func (j *Join) PairRows() []int32 { return j.pairRow }

// gatherInto sets dst to src[idx[0]], src[idx[1]], … in place.
func gatherInto[T any](dst, src []T, idx []int32) []T {
	dst = resize(dst, len(idx))
	for k, i := range idx {
		dst[k] = src[i]
	}
	return dst
}

// KeyColumn decodes join-key column col of the bound page r into dst.
// Keys are numeric values: a CHAR key has none and reads as zero.
func KeyColumn(r *page.Reader, col int, dst []int64) []int64 {
	if r.Schema().Column(col).Kind != schema.Char {
		return r.Int64ColumnInto(col, dst)
	}
	dst = resize(dst, r.Count())
	clear(dst)
	return dst
}
