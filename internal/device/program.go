package device

import (
	"fmt"
	"slices"
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
		return plan.AggSchema(q.combinedSchema(), q.GroupBy, q.Aggs)
	}
	return plan.ProjectSchema(q.combinedSchema(), q.Output)
}

// combinedSchema reports the row layout expressions evaluate over:
// scanned columns, then build columns.
func (q Query) combinedSchema() *schema.Schema {
	if q.Join == nil {
		return q.Table.Schema
	}
	return schema.Concat(q.Table.Schema, q.Join.Build.Schema, "_b")
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

// usedColumns reports the combined-row columns the program reads
// besides the join keys: filter, outputs, aggregates, and group keys.
func (q Query) usedColumns() []int {
	var cols []int
	if q.Filter != nil {
		cols = expr.AppendDistinctColumns(cols, q.Filter)
	}
	return distinct(append(cols, q.foldColumns()...))
}

// foldColumns reports the combined-row columns read to fold or project
// a surviving row: the outputs, the aggregate inputs, and group keys.
func (q Query) foldColumns() []int {
	var cols []int
	for _, c := range q.Output {
		cols = expr.AppendDistinctColumns(cols, c.E)
	}
	for _, a := range q.Aggs {
		if a.E != nil {
			cols = expr.AppendDistinctColumns(cols, a.E)
		}
	}
	return distinct(append(cols, q.GroupBy...))
}

// distinct drops repeats from cols in place, keeping first occurrences.
func distinct(cols []int) []int {
	out := cols[:0]
	for _, c := range cols {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// buildTable is a join's build side in device DRAM: every build row
// filed under its key in a KeyTable, duplicate keys chained in
// insertion order, and the build columns the program reads, decoded
// column by column into a batch indexed by build row. CHAR values
// alias the device's page buffers, which nothing writes during a run.
type buildTable struct {
	keys schema.KeyTable
	cols *schema.Batch
}

// keyColumn decodes join-key column col of the bound page into dst.
// Keys are numeric values: a CHAR key has none and reads as zero, as
// Value.Int does on the per-row path.
func keyColumn(r *page.Reader, col int, dst []int64) []int64 {
	if r.Schema().Column(col).Kind != schema.Char {
		return r.Int64ColumnInto(col, dst)
	}
	dst = slices.Grow(dst[:0], r.Count())[:r.Count()]
	clear(dst)
	return dst
}

// joinedRow adapts a scanned tuple (inside a bound page) plus an
// optional matched build row to expr.Row under the combined schema.
// It is passed by pointer so the expr.Row conversion never
// heap-allocates per tuple.
type joinedRow struct {
	r  *page.Reader
	i  int
	np int // number of probe (scanned) columns
	b  *buildTable
	br int32 // the matched build row
}

func (j *joinedRow) Col(c int) schema.Value {
	if c < j.np {
		return j.r.Column(j.i, c)
	}
	return j.b.cols.Value(c-j.np, int(j.br))
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
	// matched counts the rows that passed the probe and filter: folded
	// into the aggregates, or projected and staged.
	matched int64
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

// vecProg is the vectorized form of a device scan: compiled
// filter/aggregate/output kernels plus the columnar batch their decoded
// column vectors live in, carved once at page capacity and refilled in
// place page after page. A join probes the page's whole key vector,
// filters the rows that hit, and gathers the surviving (row, build row)
// pairs, in row-then-chain order, into a batch over the combined row,
// which the aggregate and output kernels then run over. The page's
// cycles are computed closed-form from the row, pair and survivor
// counts — the per-page DeviceCompute charge is an order-free sum, so
// the totals are byte-identical to the per-row loop's.
type vecProg struct {
	filter *expr.BatchExpr // nil when the query has no filter
	aggK   []*expr.BatchExpr
	outK   []*expr.BatchExpr
	cols   *page.Columns // the scanned table's columns
	outI   [][]int64     // projection kernel outputs
	outB   [][][]byte    // CHAR projection kernel outputs

	// Joins only.
	probeKey  int
	keys      []int64
	heads     []int32 // first build row filed under row i's key
	hits      []int32 // rows whose key is in the build table
	pairRow   []int32
	pairBuild []int32
	pairs     *schema.Batch // the surviving pairs' combined rows
	gather    []int         // combined columns gathered into pairs
	gInts     [][]int64
	gStrs     [][][]byte
	pairSel   []int32
}

// newVecProg compiles the vectorized scan, reporting false when any
// expression is outside the batch compiler's class, or when a join's
// filter reads build columns (the program then runs the per-row loop).
func newVecProg(q Query, cache map[string]*expr.BatchExpr, arena *schema.TupleArena) (*vecProg, bool) {
	v := &vecProg{}
	np := q.Table.Schema.NumColumns()
	var cols []int // the scanned table's columns to decode
	if q.Filter != nil {
		k, ok := expr.CompileCached(cache, q.Filter)
		if !ok {
			return nil, false
		}
		v.filter = k
		cols = expr.AppendDistinctColumns(cols, q.Filter)
		if q.Join != nil && slices.ContainsFunc(cols, func(c int) bool { return c >= np }) {
			return nil, false
		}
	}
	if len(q.Aggs) > 0 {
		v.aggK = make([]*expr.BatchExpr, len(q.Aggs))
		for i, a := range q.Aggs {
			if a.E == nil {
				continue
			}
			k, ok := expr.CompileCached(cache, a.E)
			if !ok {
				return nil, false
			}
			v.aggK[i] = k
		}
	} else {
		v.outK = make([]*expr.BatchExpr, len(q.Output))
		v.outI = make([][]int64, len(q.Output))
		v.outB = make([][][]byte, len(q.Output))
		for i, c := range q.Output {
			k, ok := expr.CompileCached(cache, c.E)
			if !ok {
				return nil, false
			}
			v.outK[i] = k
		}
	}
	fold := q.foldColumns()
	for _, c := range fold {
		if c < np {
			cols = append(cols, c)
		}
	}
	v.cols = page.NewColumns(q.Table.Schema, q.Table.Layout, cols, arena)
	if q.Join != nil {
		v.probeKey = q.Join.ProbeKey
		v.heads = arena.Sel(page.Capacity(q.Table.Schema, q.Table.Layout))
		v.pairs = schema.NewBatch(q.combinedSchema().NumColumns())
		v.gather = fold
		v.gInts = make([][]int64, len(fold))
		v.gStrs = make([][][]byte, len(fold))
	}
	return v, true
}

// bind decodes the bound page and selects the rows passing the filter.
// It is the no-join path; see probe for joins.
func (v *vecProg) bind(r *page.Reader) []int32 {
	sel := v.cols.Decode(r)
	if v.filter != nil {
		sel = v.filter.Select(v.cols.Batch, sel)
	}
	return sel
}

// probe runs the bound page's rows through the join: it probes the
// whole key vector, filters the rows that hit, and gathers the
// surviving pairs into the pairs batch. It reports how many pairs the
// probe found (each is one filter evaluation on the per-row path) and
// the selection over the pairs batch.
func (v *vecProg) probe(r *page.Reader, bt *buildTable, np int) (int64, []int32) {
	v.cols.Decode(r)
	v.keys = keyColumn(r, v.probeKey, v.keys)
	v.hits = v.hits[:0]
	var pairs int64
	for i, k := range v.keys {
		h := bt.keys.Chain1(uint64(k))
		if h < 0 {
			continue
		}
		v.heads[i] = h
		v.hits = append(v.hits, int32(i))
		for ; h >= 0; h = bt.keys.Next(h) {
			pairs++
		}
	}
	sel := v.hits
	if v.filter != nil {
		sel = v.filter.Select(v.cols.Batch, sel)
	}
	v.pairRow, v.pairBuild = v.pairRow[:0], v.pairBuild[:0]
	for _, i := range sel {
		for h := v.heads[i]; h >= 0; h = bt.keys.Next(h) {
			v.pairRow = append(v.pairRow, i)
			v.pairBuild = append(v.pairBuild, h)
		}
	}
	n := len(v.pairRow)
	v.pairs.SetLen(n)
	for k, c := range v.gather {
		src, col, idx := v.cols.Batch, c, v.pairRow
		if c >= np {
			src, col, idx = bt.cols, c-np, v.pairBuild
		}
		if vec := src.Int64Vec(col); vec != nil {
			v.gInts[k] = gatherInto(v.gInts[k], vec, idx)
			v.pairs.SetInt64Vec(c, v.gInts[k])
		} else {
			v.gStrs[k] = gatherInto(v.gStrs[k], src.BytesVec(col), idx)
			v.pairs.SetBytesVec(c, v.gStrs[k])
		}
	}
	v.pairSel = slices.Grow(v.pairSel[:0], n)[:n]
	for k := range v.pairSel {
		v.pairSel[k] = int32(k)
	}
	return pairs, v.pairSel
}

// gatherInto sets dst to src[idx[0]], src[idx[1]], … in place.
func gatherInto[T any](dst, src []T, idx []int32) []T {
	dst = slices.Grow(dst[:0], len(idx))[:len(idx)]
	for k, i := range idx {
		dst[k] = src[i]
	}
	return dst
}

// stage projects the selected rows of b and stages them, ready at done.
func (v *vecProg) stage(st *stager, b *schema.Batch, sel []int32, out schema.Tuple, done time.Duration) {
	for i, kn := range v.outK {
		if kn.Kind() == schema.Char {
			v.outB[i] = kn.EvalBytes(b, sel, v.outB[i])
		} else {
			v.outI[i] = kn.EvalInt64(b, sel, v.outI[i])
		}
	}
	for k := range sel {
		for c, kn := range v.outK {
			if kn.Kind() == schema.Char {
				out[c] = schema.Value{Bytes: v.outB[c][k]}
			} else {
				out[c] = schema.Value{Int: v.outI[c][k]}
			}
		}
		st.add(out, done)
	}
}

// program is one run of a validated query inside the device.
type program struct {
	dev  *ssd.Device
	cost CostModel
	q    Query
	np   int // scanned columns; build columns follow in the combined row
	res  *result
	st   *stager

	build     *buildTable // nil without a join
	buildDone time.Duration
	groups    *plan.Groups // nil for a projection
	vp        *vecProg     // nil on the per-row path

	// Closed-form charges: filterCycles per filter evaluation,
	// probeCycles per probed row, perRow per row that survives probe
	// and filter (folded into the aggregates, its group hashed, or
	// projected and staged).
	filterCycles, probeCycles, perRow, emitRowCycles int64

	outRow  schema.Tuple
	row     joinedRow
	pending []pendingRow
}

// pendingRow is a projected row the per-row loop stages once its
// page's compute charge has completed.
type pendingRow struct {
	i  int
	br int32
}

// runProgram executes a validated query inside the device: fetch pages
// over the internal path, charge the embedded CPU, stage and ship
// results. It returns the staged chunks and the completion time.
func runProgram(dev *ssd.Device, cost CostModel, chunkBytes int64, q Query, tun progTuning) (*result, error) {
	outSchema := q.OutputSchema()
	p := &program{
		dev:  dev,
		cost: cost,
		q:    q,
		np:   q.Table.Schema.NumColumns(),
		res:  &result{},
		st:   &stager{dev: dev, rowBytes: int64(outSchema.TupleWidth()), limit: chunkBytes},
	}
	p.chargeConstants()
	// Column vectors live for the whole run; an arena carves them once.
	var arena schema.TupleArena
	// Phase 1: build the join hash table from the build table.
	if q.Join != nil {
		if err := p.loadBuild(&arena); err != nil {
			return nil, err
		}
	}
	if len(q.Aggs) > 0 {
		p.groups = plan.NewGroups(q.Aggs, q.combinedSchema(), q.GroupBy)
	}
	if !tun.scalar {
		p.vp, _ = newVecProg(q, tun.kernels, &arena)
	}
	p.outRow = make(schema.Tuple, len(q.Output))
	p.row = joinedRow{np: p.np, b: p.build}
	// Phase 2: scan the main table; per tuple: probe (if joining),
	// residual filter, then output or aggregate.
	scanEnd, err := p.scan()
	if err != nil {
		return nil, err
	}

	// Final aggregate rows and result flush: one row per group in
	// first-seen order, or exactly one scalar row (even over empty
	// input).
	if p.groups != nil {
		aggRow := make(schema.Tuple, p.groups.Width())
		for i := 0; i < p.groups.Rows(); i++ {
			if done := dev.DeviceCompute(p.emitRowCycles, scanEnd); done > scanEnd {
				scanEnd = done
			}
			p.groups.Row(i, aggRow)
			p.st.add(aggRow, scanEnd)
		}
	}
	p.st.ship(scanEnd)

	p.res.chunks = p.st.out
	p.res.end = max(scanEnd, p.st.lastShip)
	return p.res, nil
}

func (p *program) chargeConstants() {
	c, q := p.cost, p.q
	valueCycles := c.valueCycles(q.Table.Layout)
	p.filterCycles = c.exprTupleCycles(q.Filter, q.Table.Layout)
	p.probeCycles = valueCycles + c.HashProbeCycles
	p.emitRowCycles = c.ResultTupleCycles + p.st.rowBytes*c.ResultByteCycles
	if len(q.Aggs) == 0 {
		for _, o := range q.Output {
			p.perRow += int64(o.E.Ops())*c.OpCycles + int64(len(expr.DistinctColumns(o.E)))*valueCycles
		}
		p.perRow += p.emitRowCycles
		return
	}
	for _, a := range q.Aggs {
		if a.E != nil {
			p.perRow += int64(a.E.Ops())*c.OpCycles + int64(len(expr.DistinctColumns(a.E)))*valueCycles
		}
	}
	p.perRow += int64(len(q.Aggs)) * c.AggCycles
	if len(q.GroupBy) > 0 {
		// Hash the group key into the DRAM group table: one extra value
		// access per group column plus a probe-priced lookup.
		p.perRow += int64(len(q.GroupBy))*valueCycles + c.HashProbeCycles
	}
}

// loadBuild reads the build table over the internal path into device
// DRAM, charging the embedded CPU for every insert.
func (p *program) loadBuild(arena *schema.TupleArena) error {
	j := p.q.Join
	b := j.Build
	var read []int // build columns the program reads
	for _, c := range p.q.usedColumns() {
		if c >= p.np {
			read = append(read, c-p.np)
		}
	}
	pc := page.NewColumns(b.Schema, b.Layout, read, arena)
	// The extent bounds the build side's cardinality: size the table
	// and the column vectors once instead of walking their doubling
	// ladders on every run (wall clock only; nothing is charged).
	n := int(b.maxTuples())
	bt := &buildTable{cols: schema.NewBatch(b.Schema.NumColumns())}
	bt.keys.Reset(1)
	bt.keys.Reserve(n)
	ints := make([][]int64, b.Schema.NumColumns())
	strs := make([][][]byte, b.Schema.NumColumns())
	for _, c := range read {
		if b.Schema.Column(c).Kind == schema.Char {
			strs[c] = make([][]byte, 0, n)
		} else {
			ints[c] = make([]int64, 0, n)
		}
	}
	keyAccess := p.cost.valueCycles(b.Layout)
	r := page.ReaderFor(b.Schema)
	var keys []int64
	rows := 0
	for pg := int64(0); pg < b.Pages; pg++ {
		data, at, err := p.dev.FetchPage(b.StartLBA+pg, 0)
		if err != nil {
			return fmt.Errorf("build fetch: %w", err)
		}
		if err := r.Bind(data); err != nil {
			return fmt.Errorf("build page %d: %w", pg, err)
		}
		n := int64(r.Count())
		cycles := p.cost.PageCycles + n*(p.cost.TupleCycles+keyAccess+p.cost.HashBuildCycles)
		if done := p.dev.DeviceCompute(cycles, at); done > p.buildDone {
			p.buildDone = done
		}
		keys = keyColumn(r, j.BuildKey, keys)
		for _, k := range keys {
			bt.keys.AddRow1(uint64(k))
		}
		rows += len(keys)
		pc.Decode(r)
		for _, c := range read {
			ints[c] = append(ints[c], pc.Batch.Int64Vec(c)...)
			strs[c] = append(strs[c], pc.Batch.BytesVec(c)...)
		}
	}
	for _, c := range read {
		bt.cols.SetInt64Vec(c, ints[c])
		bt.cols.SetBytesVec(c, strs[c])
	}
	bt.cols.SetLen(rows)
	p.build = bt
	return nil
}

// scan runs the scan phase and reports its completion.
func (p *program) scan() (time.Duration, error) {
	q := p.q
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
	for pg := int64(0); pg < q.Table.Pages; pg++ {
		issue := consumeRing[pg%prefetchDepth]
		data, at, err := p.dev.FetchPage(q.Table.StartLBA+pg, issue)
		if err != nil {
			return 0, fmt.Errorf("scan fetch: %w", err)
		}
		if err := r.Bind(data); err != nil {
			return 0, fmt.Errorf("scan page %d: %w", pg, err)
		}
		ready := max(at, p.buildDone)
		var done time.Duration
		if p.vp != nil {
			done = p.vecPage(r, ready)
		} else {
			done = p.rowPage(r, ready)
		}
		consumeRing[pg%prefetchDepth] = done
		scanEnd = max(scanEnd, done)
	}
	return scanEnd, nil
}

// pageCycles reports a page's charge: page setup and per-tuple
// iteration, a probe per row when joining, filter evaluations, and
// the work for each surviving row.
func (p *program) pageCycles(rows, evaluated, survived int64) int64 {
	cycles := p.cost.PageCycles + rows*p.cost.TupleCycles + survived*p.perRow
	if p.build != nil {
		cycles += rows * p.probeCycles
	}
	if p.q.Filter != nil {
		cycles += evaluated * p.filterCycles
	}
	return cycles
}

// vecPage runs one bound page through the vectorized program and
// reports when its compute completes.
func (p *program) vecPage(r *page.Reader, ready time.Duration) time.Duration {
	vp := p.vp
	n := int64(r.Count())
	b, evaluated := vp.cols.Batch, n
	var sel []int32
	if p.build != nil {
		evaluated, sel = vp.probe(r, p.build, p.np)
		b = vp.pairs
	} else {
		sel = vp.bind(r)
	}
	done := p.dev.DeviceCompute(p.pageCycles(n, evaluated, int64(len(sel))), ready)
	p.res.matched += int64(len(sel))
	if p.groups != nil {
		p.groups.FoldBatch(b, sel, vp.aggK)
	} else {
		// Projection is staged past the page's compute charge, exactly
		// like the per-row loop's pending rows.
		vp.stage(p.st, b, sel, p.outRow, done)
	}
	return done
}

// rowPage runs one bound page through the per-row loop and reports
// when its compute completes.
func (p *program) rowPage(r *page.Reader, ready time.Duration) time.Duration {
	q, bt, row := p.q, p.build, &p.row
	n := r.Count()
	row.r = r
	p.pending = p.pending[:0]
	var evaluated, survived int64
	for i := 0; i < n; i++ {
		row.i, row.br = i, -1
		if bt != nil {
			// Probe first: the device program pipelines the hash probe
			// with the residual predicate (Figure 4).
			if row.br = bt.keys.Chain1(uint64(r.Column(i, q.Join.ProbeKey).Int)); row.br < 0 {
				continue
			}
		}
		for {
			pass := true
			if q.Filter != nil {
				evaluated++
				pass = q.Filter.Eval(row).Int != 0
			}
			if pass {
				survived++
				if p.groups != nil {
					p.groups.FoldRow(p.groups.GroupRow(row), row)
				} else {
					p.pending = append(p.pending, pendingRow{i: i, br: row.br})
				}
			}
			if bt == nil {
				break
			}
			if row.br = bt.keys.Next(row.br); row.br < 0 {
				break
			}
		}
	}
	done := p.dev.DeviceCompute(p.pageCycles(int64(n), evaluated, survived), ready)
	p.res.matched += survived
	for _, e := range p.pending {
		row.i, row.br = e.i, e.br
		for c, oc := range q.Output {
			p.outRow[c] = oc.E.Eval(row)
		}
		p.st.add(p.outRow, done)
	}
	return done
}
