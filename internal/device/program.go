package device

import (
	"fmt"
	"time"

	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/ssd"
)

// TableRef locates a heap table on the device for an in-device program:
// extent, schema, and layout (the program parameters passed with OPEN).
type TableRef struct {
	Name     string
	Schema   *schema.Schema
	Layout   page.Layout
	StartLBA int64
	Pages    int64
}

// RefOf builds a TableRef for a heap file (which must live on the same
// device the program will run on).
func RefOf(f *heap.File) TableRef {
	return TableRef{
		Name:     f.Name(),
		Schema:   f.Schema(),
		Layout:   f.Layout(),
		StartLBA: f.StartLBA(),
		Pages:    f.Pages(),
	}
}

// maxTuples bounds the table's row count by its extent: every page full.
func (t TableRef) maxTuples() int64 {
	return t.Pages * int64(page.Capacity(t.Schema, t.Layout))
}

// JoinSpec asks the program to build a hash table over Build and probe
// it with each scanned tuple — the paper's simple hash join, with the
// build side small enough for device DRAM (Figures 4 and 6).
type JoinSpec struct {
	Build TableRef
	// BuildKey is the key column index within Build's schema.
	BuildKey int
	// ProbeKey is the key column index within the scanned table's schema.
	ProbeKey int
}

// Query is a user-defined program for the Smart SSD: a scan of Table,
// optionally probing a JoinSpec hash table, filtered by Filter, and
// producing either projected Output columns or scalar Aggs.
//
// Filter, Output, and Agg expressions are evaluated over the combined
// row: the scanned table's columns first (indexes 0..n-1), then — when
// Join is set — the build table's columns (indexes n..). The program
// pipelines the probe with the residual predicate per scanned tuple,
// matching the paper's Figure 4 plan.
type Query struct {
	Table  TableRef
	Join   *JoinSpec
	Filter expr.Expr
	Output []plan.OutputCol
	Aggs   []plan.AggSpec
	// GroupBy lists combined-row column indexes to group the
	// aggregates by (requires Aggs; empty means a scalar aggregate).
	// Group state lives in device DRAM, so the group count must stay
	// small — TPC-H Q1's six groups are the intended scale.
	GroupBy []int
}

func (q Query) validate() error {
	if q.Table.Schema == nil || q.Table.Pages < 0 {
		return fmt.Errorf("%w: missing table", ErrInvalidQuery)
	}
	if len(q.Output) == 0 && len(q.Aggs) == 0 {
		return fmt.Errorf("%w: no output columns or aggregates", ErrInvalidQuery)
	}
	if len(q.Output) > 0 && len(q.Aggs) > 0 {
		return fmt.Errorf("%w: both projection and aggregation requested", ErrInvalidQuery)
	}
	if len(q.GroupBy) > 0 {
		if len(q.Aggs) == 0 {
			return fmt.Errorf("%w: GROUP BY without aggregates", ErrInvalidQuery)
		}
		n := q.combinedSchema().NumColumns()
		for _, g := range q.GroupBy {
			if g < 0 || g >= n {
				return fmt.Errorf("%w: group column %d out of range", ErrInvalidQuery, g)
			}
		}
	}
	if q.Join != nil {
		if q.Join.Build.Schema == nil {
			return fmt.Errorf("%w: join without build table", ErrInvalidQuery)
		}
		if q.Join.BuildKey < 0 || q.Join.BuildKey >= q.Join.Build.Schema.NumColumns() {
			return fmt.Errorf("%w: build key column %d out of range", ErrInvalidQuery, q.Join.BuildKey)
		}
		if q.Join.ProbeKey < 0 || q.Join.ProbeKey >= q.Table.Schema.NumColumns() {
			return fmt.Errorf("%w: probe key column %d out of range", ErrInvalidQuery, q.Join.ProbeKey)
		}
	}
	return nil
}

// memoryEstimate reports the DRAM bytes the program needs: the join
// hash table (entries plus tuple payloads) and the result staging
// buffer. This is the grant checked at OPEN.
func (q Query) memoryEstimate(c CostModel) int64 {
	var need int64 = DefaultChunkBytes * 2 // double-buffered result staging
	if q.Join != nil {
		need += q.Join.Build.maxTuples() * (int64(q.Join.Build.Schema.TupleWidth()) + c.HashEntryBytes)
	}
	return need
}

// OutputSchema reports the schema of the program's result rows.
func (q Query) OutputSchema() *schema.Schema {
	if len(q.Aggs) > 0 {
		combined := q.combinedSchema()
		cols := make([]schema.Column, 0, len(q.GroupBy)+len(q.Aggs))
		for _, g := range q.GroupBy {
			cols = append(cols, combined.Column(g))
		}
		for _, a := range q.Aggs {
			cols = append(cols, schema.Column{Name: a.Name, Kind: schema.Int64})
		}
		return schema.New(cols...)
	}
	combined := q.combinedSchema()
	cols := make([]schema.Column, len(q.Output))
	for i, c := range q.Output {
		k := c.E.Kind()
		w := 0
		if k == schema.Char {
			if col, ok := c.E.(expr.Col); ok {
				w = combined.Column(col.Index).Len
			} else {
				w = 32
			}
		}
		cols[i] = schema.Column{Name: c.Name, Kind: k, Len: w}
	}
	return schema.New(cols...)
}

// combinedSchema reports the row layout expressions evaluate over:
// scanned columns, then build columns.
func (q Query) combinedSchema() *schema.Schema {
	if q.Join == nil {
		return q.Table.Schema
	}
	n := q.Table.Schema.NumColumns() + q.Join.Build.Schema.NumColumns()
	cols := make([]schema.Column, 0, n)
	seen := map[string]bool{}
	for i := 0; i < q.Table.Schema.NumColumns(); i++ {
		c := q.Table.Schema.Column(i)
		seen[c.Name] = true
		cols = append(cols, c)
	}
	for i := 0; i < q.Join.Build.Schema.NumColumns(); i++ {
		c := q.Join.Build.Schema.Column(i)
		for seen[c.Name] {
			c.Name += "_b"
		}
		seen[c.Name] = true
		cols = append(cols, c)
	}
	return schema.New(cols...)
}

// Explain renders the in-device plan, Figure 4/6 style.
func (q Query) Explain() string {
	s := fmt.Sprintf("DeviceProgram on %s (%v, %d pages)\n", q.Table.Name, q.Table.Layout, q.Table.Pages)
	s += fmt.Sprintf("  scan %s\n", q.Table.Name)
	if q.Join != nil {
		s += fmt.Sprintf("  hash probe %s (build %s.%s in device DRAM)\n",
			q.Table.Schema.Column(q.Join.ProbeKey).Name,
			q.Join.Build.Name, q.Join.Build.Schema.Column(q.Join.BuildKey).Name)
	}
	if q.Filter != nil {
		s += fmt.Sprintf("  filter %s\n", q.Filter)
	}
	if len(q.Aggs) > 0 {
		s += "  aggregate "
		for i, a := range q.Aggs {
			if i > 0 {
				s += ", "
			}
			if a.Kind == plan.Count {
				s += "COUNT(*)"
			} else {
				s += fmt.Sprintf("%v(%s)", a.Kind, a.E)
			}
		}
		if len(q.GroupBy) > 0 {
			combined := q.combinedSchema()
			s += " group by "
			for i, g := range q.GroupBy {
				if i > 0 {
					s += ", "
				}
				s += combined.Column(g).Name
			}
		}
		s += "\n"
	} else {
		s += "  project "
		for i, c := range q.Output {
			if i > 0 {
				s += ", "
			}
			s += c.Name
		}
		s += "\n"
	}
	s += "  ship results to host (GET)\n"
	return s
}

// joinedRow adapts a scanned tuple (inside a bound page) plus an
// optional matched build tuple to expr.Row under the combined schema.
// It is passed by pointer so the expr.Row conversion never
// heap-allocates per tuple.
type joinedRow struct {
	r     *page.Reader
	i     int
	np    int // number of probe (scanned) columns
	build schema.Tuple
}

func (j *joinedRow) Col(c int) schema.Value {
	if c < j.np {
		return j.r.Column(j.i, c)
	}
	return j.build[c-j.np]
}

// chunk is one GET-retrievable result piece.
type chunk struct {
	rows      []schema.Tuple
	bytes     int64
	shippedAt time.Duration
}

// result is a completed program's staged output.
type result struct {
	chunks []chunk
	end    time.Duration
	// stats
	buildRows int64
	probeRows int64
	outRows   int64
}

// stager accumulates result rows and ships chunks over the host link as
// they fill. Staged rows are carved from an arena the result retains,
// so staging a row costs no per-row heap allocation.
type stager struct {
	dev      *ssd.Device
	rowBytes int64
	limit    int64
	cur      chunk
	out      []chunk
	lastShip time.Duration
	arena    schema.TupleArena
}

func (st *stager) add(t schema.Tuple, ready time.Duration) {
	st.cur.rows = append(st.cur.rows, st.arena.Clone(t))
	st.cur.bytes += st.rowBytes
	if st.cur.bytes >= st.limit {
		st.ship(ready)
	}
}

// ship transfers the current chunk to the host at the given readiness.
func (st *stager) ship(ready time.Duration) {
	if st.cur.bytes == 0 && len(st.cur.rows) == 0 {
		return
	}
	at := st.dev.ShipToHost(st.cur.bytes, ready)
	st.cur.shippedAt = at
	st.out = append(st.out, st.cur)
	st.cur = chunk{}
	if at > st.lastShip {
		st.lastShip = at
	}
}

// progTuning carries the runtime's execution knobs into a program run:
// the scalar-path override and the cross-run compiled-kernel cache.
type progTuning struct {
	scalar  bool
	kernels map[string]*expr.BatchExpr
}

// compileCached compiles e for vectorized evaluation through the
// runtime's kernel cache, probing by canonical key so a long-lived
// runtime compiles each distinct expression once.
func compileCached(cache map[string]*expr.BatchExpr, e expr.Expr) (*expr.BatchExpr, bool) {
	if cache == nil {
		return expr.CompileBatch(e)
	}
	key, ok := expr.BatchKey(e)
	if !ok {
		return nil, false
	}
	if be := cache[key]; be != nil {
		return be, true
	}
	be, ok := expr.CompileBatch(e)
	if !ok {
		return nil, false
	}
	cache[key] = be
	return be, true
}

// vecProg is the vectorized form of a no-join device scan: compiled
// filter/aggregate/output kernels plus the columnar batch their decoded
// column vectors live in, carved once at page capacity and refilled in
// place page after page. Charged cycles are computed closed-form from
// the page's row count and the selection length — the per-page
// DeviceCompute charge is an order-free sum, so the totals are
// byte-identical to the scalar loop's.
type vecProg struct {
	filter   *expr.BatchExpr // nil when the query has no filter
	aggK     []*expr.BatchExpr
	outK     []*expr.BatchExpr
	batch    *schema.Batch
	ident    []int32
	intCols  []int
	intVecs  [][]int64
	charCols []int
	charVecs [][][]byte
	vals     [][]int64  // agg kernel outputs, per spec
	outI     [][]int64  // projection kernel outputs
	outB     [][][]byte // CHAR projection kernel outputs
}

// newVecProg compiles the vectorized scan for a no-join query,
// reporting false when any expression is outside the batch compiler's
// class (the program then runs the scalar loop).
func newVecProg(q Query, cache map[string]*expr.BatchExpr, arena *schema.TupleArena) (*vecProg, bool) {
	v := &vecProg{}
	var cols []int
	if q.Filter != nil {
		k, ok := compileCached(cache, q.Filter)
		if !ok {
			return nil, false
		}
		v.filter = k
		cols = expr.AppendDistinctColumns(cols, q.Filter)
	}
	if len(q.Aggs) > 0 {
		v.aggK = make([]*expr.BatchExpr, len(q.Aggs))
		v.vals = make([][]int64, len(q.Aggs))
		for i, a := range q.Aggs {
			if a.E == nil {
				continue
			}
			k, ok := compileCached(cache, a.E)
			if !ok {
				return nil, false
			}
			v.aggK[i] = k
			cols = expr.AppendDistinctColumns(cols, a.E)
		}
		cols = append(cols, q.GroupBy...)
	} else {
		v.outK = make([]*expr.BatchExpr, len(q.Output))
		v.outI = make([][]int64, len(q.Output))
		v.outB = make([][][]byte, len(q.Output))
		for i, c := range q.Output {
			k, ok := compileCached(cache, c.E)
			if !ok {
				return nil, false
			}
			v.outK[i] = k
			cols = expr.AppendDistinctColumns(cols, c.E)
		}
	}
	// Global dedupe: AppendDistinctColumns only dedupes within one call.
	seen := 0
	for _, c := range cols {
		dup := false
		for i := 0; i < seen; i++ {
			if cols[i] == c {
				dup = true
				break
			}
		}
		if !dup {
			cols[seen] = c
			seen++
		}
	}
	cols = cols[:seen]

	capacity := page.Capacity(q.Table.Schema, q.Table.Layout)
	v.batch = schema.NewBatch(q.Table.Schema.NumColumns())
	v.ident = arena.Sel(capacity)
	for _, c := range cols {
		if q.Table.Schema.Column(c).Kind == schema.Char {
			vec := arena.ByteVecs(capacity)
			v.batch.SetBytesVec(c, vec)
			v.charCols = append(v.charCols, c)
			v.charVecs = append(v.charVecs, vec)
		} else {
			vec := arena.Ints(capacity)
			v.batch.SetInt64Vec(c, vec)
			v.intCols = append(v.intCols, c)
			v.intVecs = append(v.intVecs, vec)
		}
	}
	return v, true
}

// bind decodes the planned columns of the bound page into the batch's
// vectors, in place, and refreshes the identity selection.
func (v *vecProg) bind(r *page.Reader) []int32 {
	n := r.Count()
	v.batch.SetLen(n)
	for k, c := range v.intCols {
		r.Int64ColumnInto(c, v.intVecs[k])
	}
	for k, c := range v.charCols {
		r.BytesColumnInto(c, v.charVecs[k])
	}
	sel := v.ident[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	if v.filter != nil {
		sel = v.filter.Select(v.batch, sel)
	}
	return sel
}

// runProgram executes a validated query inside the device: fetch pages
// over the internal path, charge the embedded CPU, stage and ship
// results. It returns the staged chunks and the completion time.
func runProgram(dev *ssd.Device, cost CostModel, chunkBytes int64, q Query, tun progTuning) (*result, error) {
	outSchema := q.OutputSchema()
	res := &result{}
	st := &stager{dev: dev, rowBytes: int64(outSchema.TupleWidth()), limit: chunkBytes}

	// Phase 1: build the join hash table from the build table, fetched
	// over the internal path and inserted on the embedded CPU.
	var ht map[int64][]schema.Tuple
	var buildDone time.Duration
	// Build tuples and group state live for the whole scan; an arena
	// batches their backing allocations.
	var arena schema.TupleArena
	np := q.Table.Schema.NumColumns()
	if q.Join != nil {
		b := q.Join.Build
		// The extent bounds the build side's cardinality: size the table
		// and the arena slabs once instead of walking their doubling
		// ladders on every run (wall clock only; nothing is charged).
		n := int(b.maxTuples())
		ht = make(map[int64][]schema.Tuple, n)
		charBytes := 0
		for _, col := range b.Schema.Columns() {
			if col.Kind == schema.Char {
				charBytes += col.Len
			}
		}
		arena.Reserve(n*b.Schema.NumColumns(), n*charBytes)
		keyAccess := cost.valueCycles(b.Layout)
		r := page.ReaderFor(b.Schema)
		for p := int64(0); p < b.Pages; p++ {
			data, at, err := dev.FetchPage(b.StartLBA+p, 0)
			if err != nil {
				return nil, fmt.Errorf("build fetch: %w", err)
			}
			if err := r.Bind(data); err != nil {
				return nil, fmt.Errorf("build page %d: %w", p, err)
			}
			n := int64(r.Count())
			cycles := cost.PageCycles + n*(cost.TupleCycles+keyAccess+cost.HashBuildCycles)
			done := dev.DeviceCompute(cycles, at)
			if done > buildDone {
				buildDone = done
			}
			var tup schema.Tuple
			for i := 0; i < r.Count(); i++ {
				tup = r.Tuple(tup, i)
				key := tup[q.Join.BuildKey].Int
				ht[key] = append(ht[key], arena.Clone(tup))
				res.buildRows++
			}
		}
	}

	// Phase 2: scan the main table; per tuple: probe (if joining),
	// residual filter, then output or aggregate.
	filterCycles := cost.exprTupleCycles(q.Filter, q.Table.Layout)
	probeAccess := cost.valueCycles(q.Table.Layout)
	var outOps int64
	var outCols int
	for _, c := range q.Output {
		outOps += int64(c.E.Ops())
		outCols += len(expr.DistinctColumns(c.E))
	}
	var aggOps int64
	var aggCols int
	for _, a := range q.Aggs {
		if a.E != nil {
			aggOps += int64(a.E.Ops())
			aggCols += len(expr.DistinctColumns(a.E))
		}
	}
	valueCycles := cost.valueCycles(q.Table.Layout)
	emitRowCycles := cost.ResultTupleCycles + st.rowBytes*cost.ResultByteCycles

	// Aggregate state: one slot for scalar aggregation, a DRAM-resident
	// group table when GroupBy is set.
	aggVals := make([]int64, len(q.Aggs))
	aggSeen := make([]bool, len(q.Aggs))
	type groupState struct {
		group schema.Tuple
		vals  []int64
		seen  []bool
	}
	var groups map[string]*groupState
	var groupOrder []string
	var states []groupState // chunked so *groupState pointers stay stable
	newState := func() *groupState {
		if len(states) == cap(states) {
			states = make([]groupState, 0, max(64, 2*cap(states)))
		}
		states = append(states, groupState{
			group: arena.Tuple(len(q.GroupBy)),
			vals:  arena.Ints(len(q.Aggs)),
			seen:  arena.Bools(len(q.Aggs)),
		})
		return &states[len(states)-1]
	}
	combined := q.combinedSchema()
	var keyBuf []byte
	if len(q.GroupBy) > 0 {
		groups = make(map[string]*groupState)
	}

	outRow := make(schema.Tuple, len(q.Output))
	r := page.ReaderFor(q.Table.Schema)
	var scanEnd time.Duration
	// The program prefetches into a bounded DRAM window rather than
	// enqueueing the whole scan at once: the fetch for page p is issued
	// when page p-prefetchDepth has been consumed. This respects the
	// device DRAM grant and shares the flash channels fairly with any
	// concurrent host I/O (hybrid execution, other sessions). The window
	// must cover the fetch+compute round-trip latency (about 120us, or
	// about 14 pages of steady-state work) or the loop becomes
	// latency-bound; 32 pages (a 256 KB window) leaves ample slack.
	const prefetchDepth = 32
	var consumeRing [prefetchDepth]time.Duration
	// Per-page scratch, reused across pages.
	type pending struct {
		i     int
		build schema.Tuple
	}
	var emitted []pending
	noBuild := []schema.Tuple{nil}
	row := &joinedRow{np: np}
	// Vectorized no-join scan: compiled kernels over columnar batches,
	// with the page's whole charge computed closed-form from the row
	// count and selection length. Falls back to the scalar loop when an
	// expression is outside the batch compiler's class.
	var vp *vecProg
	if q.Join == nil && !tun.scalar {
		vp, _ = newVecProg(q, tun.kernels, &arena)
	}
	// Joined scans keep the scalar per-row loop (the residual filter may
	// reference build columns), but read the probe-key column in bulk.
	var keyVec []int64
	if q.Join != nil && !tun.scalar && q.Table.Schema.Column(q.Join.ProbeKey).Kind != schema.Char {
		keyVec = arena.Ints(page.Capacity(q.Table.Schema, q.Table.Layout))
	}
	for p := int64(0); p < q.Table.Pages; p++ {
		issue := consumeRing[p%prefetchDepth]
		data, at, err := dev.FetchPage(q.Table.StartLBA+p, issue)
		if err != nil {
			return nil, fmt.Errorf("scan fetch: %w", err)
		}
		if err := r.Bind(data); err != nil {
			return nil, fmt.Errorf("scan page %d: %w", p, err)
		}
		ready := at
		if buildDone > ready {
			ready = buildDone
		}

		n := int64(r.Count())
		if vp != nil {
			sel := vp.bind(r)
			res.probeRows += n
			cycles := cost.PageCycles + n*cost.TupleCycles
			if q.Filter != nil {
				cycles += n * filterCycles
			}
			k := int64(len(sel))
			if len(q.Aggs) > 0 {
				per := aggOps*cost.OpCycles + int64(aggCols)*valueCycles +
					int64(len(q.Aggs))*cost.AggCycles
				if groups != nil {
					per += int64(len(q.GroupBy))*valueCycles + cost.HashProbeCycles
				}
				cycles += k * per
			} else {
				cycles += k * (outOps*cost.OpCycles + int64(outCols)*valueCycles + emitRowCycles)
			}
			done := dev.DeviceCompute(cycles, ready)
			consumeRing[p%prefetchDepth] = done
			if done > scanEnd {
				scanEnd = done
			}
			if len(q.Aggs) > 0 {
				for i, kn := range vp.aggK {
					if kn != nil {
						vp.vals[i] = kn.EvalInt64(vp.batch, sel, vp.vals[i])
					}
				}
				for pi, ri := range sel {
					vals, seen := aggVals, aggSeen
					if groups != nil {
						keyBuf = keyBuf[:0]
						for _, g := range q.GroupBy {
							keyBuf = combined.EncodeValue(keyBuf, g, vp.batch.Value(g, int(ri)))
						}
						gs, ok := groups[string(keyBuf)]
						if !ok {
							gs = newState()
							for gi, g := range q.GroupBy {
								gv := vp.batch.Value(g, int(ri))
								if gv.Bytes != nil {
									gv.Bytes = arena.CloneBytes(gv.Bytes)
								}
								gs.group[gi] = gv
							}
							groups[string(keyBuf)] = gs
							groupOrder = append(groupOrder, string(keyBuf))
						}
						vals, seen = gs.vals, gs.seen
					}
					for i, a := range q.Aggs {
						switch a.Kind {
						case plan.Count:
							vals[i]++
						case plan.Sum:
							vals[i] += vp.vals[i][pi]
						case plan.Min:
							if v := vp.vals[i][pi]; !seen[i] || v < vals[i] {
								vals[i] = v
							}
						case plan.Max:
							if v := vp.vals[i][pi]; !seen[i] || v > vals[i] {
								vals[i] = v
							}
						}
						seen[i] = true
					}
					res.outRows++
				}
			} else {
				// Projection is deferred past the page's compute charge,
				// exactly like the scalar loop's pending-emit list.
				for i, kn := range vp.outK {
					if kn.Kind() == schema.Char {
						vp.outB[i] = kn.EvalBytes(vp.batch, sel, vp.outB[i])
					} else {
						vp.outI[i] = kn.EvalInt64(vp.batch, sel, vp.outI[i])
					}
				}
				for pi := range sel {
					for c, kn := range vp.outK {
						if kn.Kind() == schema.Char {
							outRow[c] = schema.Value{Bytes: vp.outB[c][pi]}
						} else {
							outRow[c] = schema.Value{Int: vp.outI[c][pi]}
						}
					}
					res.outRows++
					st.add(outRow, done)
				}
			}
			continue
		}
		var keys []int64
		if keyVec != nil {
			keys = r.Int64ColumnInto(q.Join.ProbeKey, keyVec)
		}
		cycles := cost.PageCycles + n*cost.TupleCycles
		emitted = emitted[:0]

		for i := 0; i < r.Count(); i++ {
			res.probeRows++
			var builds []schema.Tuple
			if q.Join != nil {
				// Probe first: the device program pipelines the hash
				// probe with the residual predicate (Figure 4).
				cycles += probeAccess + cost.HashProbeCycles
				var key int64
				if keys != nil {
					key = keys[i]
				} else {
					key = r.Column(i, q.Join.ProbeKey).Int
				}
				builds = ht[key]
				if len(builds) == 0 {
					continue
				}
			} else {
				builds = noBuild
			}
			for _, b := range builds {
				row.r, row.i, row.build = r, i, b
				if q.Filter != nil {
					cycles += filterCycles
					if q.Filter.Eval(row).Int == 0 {
						continue
					}
				}
				if len(q.Aggs) > 0 {
					cycles += aggOps*cost.OpCycles + int64(aggCols)*valueCycles +
						int64(len(q.Aggs))*cost.AggCycles
					vals, seen := aggVals, aggSeen
					if groups != nil {
						// Hash the group key into the DRAM group table:
						// one extra value access per group column plus a
						// probe-priced lookup.
						cycles += int64(len(q.GroupBy))*valueCycles + cost.HashProbeCycles
						keyBuf = keyBuf[:0]
						for _, g := range q.GroupBy {
							keyBuf = combined.EncodeValue(keyBuf, g, row.Col(g))
						}
						gs, ok := groups[string(keyBuf)]
						if !ok {
							gs = newState()
							for gi, g := range q.GroupBy {
								v := row.Col(g)
								if v.Bytes != nil {
									v.Bytes = arena.CloneBytes(v.Bytes)
								}
								gs.group[gi] = v
							}
							groups[string(keyBuf)] = gs
							groupOrder = append(groupOrder, string(keyBuf))
						}
						vals, seen = gs.vals, gs.seen
					}
					foldAggs(q.Aggs, row, vals, seen)
					res.outRows++
					continue
				}
				cycles += outOps*cost.OpCycles + int64(outCols)*valueCycles + emitRowCycles
				emitted = append(emitted, pending{i: i, build: b})
			}
		}

		done := dev.DeviceCompute(cycles, ready)
		consumeRing[p%prefetchDepth] = done
		if done > scanEnd {
			scanEnd = done
		}
		for _, e := range emitted {
			row.r, row.i, row.build = r, e.i, e.build
			for c, oc := range q.Output {
				outRow[c] = oc.E.Eval(row)
			}
			res.outRows++
			st.add(outRow, done)
		}
	}

	// Final aggregate rows and result flush: one row per group in
	// first-seen order, or exactly one scalar row (even over empty
	// input).
	switch {
	case len(q.Aggs) > 0 && groups != nil:
		aggRow := make(schema.Tuple, len(q.GroupBy)+len(q.Aggs))
		for _, key := range groupOrder {
			g := groups[key]
			done := dev.DeviceCompute(emitRowCycles, scanEnd)
			if done > scanEnd {
				scanEnd = done
			}
			copy(aggRow, g.group)
			for i, v := range g.vals {
				aggRow[len(q.GroupBy)+i] = schema.IntVal(v)
			}
			st.add(aggRow, scanEnd)
		}
	case len(q.Aggs) > 0:
		aggRow := make(schema.Tuple, len(q.Aggs))
		for i := range q.Aggs {
			aggRow[i] = schema.IntVal(aggVals[i])
		}
		done := dev.DeviceCompute(emitRowCycles, scanEnd)
		if done > scanEnd {
			scanEnd = done
		}
		st.add(aggRow, scanEnd)
	}
	st.ship(scanEnd)

	res.chunks = st.out
	res.end = scanEnd
	if st.lastShip > res.end {
		res.end = st.lastShip
	}
	return res, nil
}

func foldAggs(aggs []plan.AggSpec, row expr.Row, vals []int64, seen []bool) {
	for i, a := range aggs {
		switch a.Kind {
		case plan.Count:
			vals[i]++
		case plan.Sum:
			vals[i] += a.E.Eval(row).Int
		case plan.Min:
			v := a.E.Eval(row).Int
			if !seen[i] || v < vals[i] {
				vals[i] = v
			}
		case plan.Max:
			v := a.E.Eval(row).Int
			if !seen[i] || v > vals[i] {
				vals[i] = v
			}
		}
		seen[i] = true
	}
}
