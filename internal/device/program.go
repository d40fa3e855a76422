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

// MaxTuples bounds the table's row count by its extent: every page full.
func (t TableRef) MaxTuples() int64 {
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

// MemoryNeed reports the DRAM bytes the program needs: the join hash
// table (entries plus tuple payloads) and the result staging buffer.
// This is the grant checked at OPEN.
func (q Query) MemoryNeed(c CostModel) int64 {
	var need int64 = DefaultChunkBytes * 2 // double-buffered result staging
	if q.Join != nil {
		need += q.Join.Build.MaxTuples() * (int64(q.Join.Build.Schema.TupleWidth()) + c.HashEntryBytes)
	}
	return need
}

// Counts are the totals a program's embedded-CPU charge is linear in.
type Counts struct {
	// Pages and Rows are the scanned table's pages and the rows on them.
	Pages, Rows int64
	// Evaluated counts filter evaluations: one per row, or one per
	// (row, build row) pair when joining.
	Evaluated int64
	// Survived counts the rows (pairs, when joining) that pass the
	// probe and filter.
	Survived int64
	// Groups counts the aggregate rows emitted at the end.
	Groups int64
	// BuildPages and BuildRows are the join build side's pages and the
	// rows on them.
	BuildPages, BuildRows int64
}

func (n *Counts) add(d Counts) {
	n.Pages += d.Pages
	n.Rows += d.Rows
	n.Evaluated += d.Evaluated
	n.Survived += d.Survived
	n.Groups += d.Groups
	n.BuildPages += d.BuildPages
	n.BuildRows += d.BuildRows
}

// Cycles reports the embedded-CPU cycles q's program charges for the
// totals n under cost model c. Every charge a run books is this formula
// over that charge's own counts, and the formula is linear, so fed a
// run's totals it equals exactly what the run charged. The planner
// feeds it estimated counts.
func (q Query) Cycles(c CostModel, n Counts) int64 {
	return q.unitCycles(c).cycles(n)
}

// unitCycles are a query's per-unit embedded-CPU charges, one per
// Counts field: row is the per-tuple loop plus, when joining, the
// probe; survivor is the work for each row that survives probe and
// filter (folded into the aggregates, its group hashed, or projected
// and staged); group stages one final aggregate row.
type unitCycles struct {
	page, row, filter, survivor, group, buildPage, buildRow int64
}

func (q Query) unitCycles(c CostModel) unitCycles {
	l := q.Table.Layout
	emit := c.ResultTupleCycles + int64(q.OutputSchema().TupleWidth())*c.ResultByteCycles
	u := unitCycles{
		page:   c.PageCycles,
		row:    c.TupleCycles,
		filter: c.exprTupleCycles(q.Filter, l),
		group:  emit,
	}
	if q.Join != nil {
		u.row += c.valueCycles(l) + c.HashProbeCycles
		u.buildPage = c.PageCycles
		u.buildRow = c.TupleCycles + c.valueCycles(q.Join.Build.Layout) + c.HashBuildCycles
	}
	if len(q.Aggs) == 0 {
		for _, o := range q.Output {
			u.survivor += c.exprTupleCycles(o.E, l)
		}
		u.survivor += emit
		return u
	}
	for _, a := range q.Aggs {
		u.survivor += c.exprTupleCycles(a.E, l) + c.AggCycles
	}
	if len(q.GroupBy) > 0 {
		// Hash the group key into the DRAM group table: one extra value
		// access per group column plus a probe-priced lookup.
		u.survivor += int64(len(q.GroupBy))*c.valueCycles(l) + c.HashProbeCycles
	}
	return u
}

// cycles is the charge for n: the same linear sum for one page, one
// build page, one emitted group, or a whole run's totals.
func (u unitCycles) cycles(n Counts) int64 {
	return n.Pages*u.page + n.Rows*u.row + n.Evaluated*u.filter + n.Survived*u.survivor +
		n.Groups*u.group + n.BuildPages*u.buildPage + n.BuildRows*u.buildRow
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
	es := append([]expr.Expr{q.Filter}, plan.OutputExprs(q.Output)...)
	return plan.Columns(append(es, plan.AggExprs(q.Aggs)...), q.GroupBy...)
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
	// counts are the run's totals, each charged through Query.Cycles's
	// formula.
	counts Counts
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

// kernels is a query's expressions compiled for vectorized evaluation
// at OPEN and kept for the program run: the filter (nil without one),
// and the aggregate inputs or the output columns.
type kernels struct {
	filter *expr.BatchExpr
	root   []*expr.BatchExpr
}

// compile compiles q's expressions through cache; an expression outside
// the batch compiler's class makes q invalid.
func (q Query) compile(cache map[string]*expr.BatchExpr) (kernels, error) {
	root := plan.OutputExprs(q.Output)
	if len(q.Aggs) > 0 {
		root = plan.AggExprs(q.Aggs)
	}
	ks, err := plan.Kernels(cache, append([]expr.Expr{q.Filter}, root...)...)
	if err != nil {
		return kernels{}, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	return kernels{filter: ks[0], root: ks[1:]}, nil
}

// program is one run of a validated query inside the device. Each page
// runs page-at-a-time: the scanned columns decode into a batch, the
// filter kernel selects its rows, and a join probes the page's whole
// key vector and gathers the (row, build row) pairs, in row-then-chain
// order, into a batch over the combined row, which the aggregate and
// output kernels then run over. A filter over build columns runs on
// the gathered pairs, any other before the gather. The page's cycles
// are computed closed-form from its row, pair and survivor counts
// (unitCycles): the per-page DeviceCompute charge is an order-free
// sum, the total a per-row loop would charge.
type program struct {
	dev   *ssd.Device
	units unitCycles
	q     Query
	k     kernels
	np    int // scanned columns; build columns follow in the combined row
	res   *result
	st    *stager

	cols      *page.Columns // the scanned table's columns
	join      *plan.Join    // nil without a join
	buildDone time.Duration
	// lateFilter: the filter reads build columns, so it runs on the
	// gathered pairs.
	lateFilter bool
	groups     *plan.Groups    // nil for a projection
	proj       *plan.Projector // nil for an aggregate

	outRow schema.Tuple
}

// runProgram executes a validated query inside the device: fetch pages
// over the internal path, charge the embedded CPU, stage and ship
// results. It returns the staged chunks and the completion time.
func runProgram(dev *ssd.Device, cost CostModel, chunkBytes int64, q Query, k kernels) (*result, error) {
	p := &program{
		dev:   dev,
		units: q.unitCycles(cost),
		q:     q,
		k:     k,
		np:    q.Table.Schema.NumColumns(),
		res:   &result{},
		st:    &stager{dev: dev, rowBytes: int64(q.OutputSchema().TupleWidth()), limit: chunkBytes},
	}
	// used are the combined columns the program reads: the scanned ones
	// decode from each page, the build ones from the build side.
	used := q.usedColumns()
	var scanned []int
	for _, c := range used {
		if c < p.np {
			scanned = append(scanned, c)
		}
	}
	if q.Join != nil && q.Filter != nil {
		p.lateFilter = slices.ContainsFunc(expr.DistinctColumns(q.Filter), func(c int) bool { return c >= p.np })
	}
	// Column vectors live for the whole run; an arena carves them once.
	var arena schema.TupleArena
	p.cols = page.NewColumns(q.Table.Schema, q.Table.Layout, scanned, &arena)
	// Phase 1: build the join hash table from the build table.
	if q.Join != nil {
		if err := p.loadBuild(used); err != nil {
			return nil, err
		}
	}
	if len(q.Aggs) > 0 {
		p.groups = plan.NewGroups(q.Aggs, q.combinedSchema(), q.GroupBy)
	} else {
		p.proj = plan.NewProjector(k.root)
		p.outRow = make(schema.Tuple, len(q.Output))
	}
	// Phase 2: scan the main table; per page: probe (if joining),
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
			scanEnd = max(scanEnd, p.charge(Counts{Groups: 1}, scanEnd))
			p.groups.Row(i, aggRow)
			p.st.add(aggRow, scanEnd)
		}
	}
	p.st.ship(scanEnd)

	p.res.chunks = p.st.out
	p.res.end = max(scanEnd, p.st.lastShip)
	return p.res, nil
}

// charge books n's cycles on the embedded CPU at ready, adds n to the
// run's totals, and reports when the work completes.
func (p *program) charge(n Counts, ready time.Duration) time.Duration {
	p.res.counts.add(n)
	return p.dev.DeviceCompute(p.units.cycles(n), ready)
}

// loadBuild reads the build table over the internal path into device
// DRAM, charging the embedded CPU for every insert. The build side
// gathers the combined columns used; its CHAR values alias the device's
// page buffers, which nothing writes during a run.
func (p *program) loadBuild(used []int) error {
	j := p.q.Join
	b := j.Build
	// The extent bounds the build side's cardinality: size the table and
	// the column vectors once instead of walking their doubling ladders
	// (wall clock only; nothing is charged).
	p.join = &plan.Join{}
	p.join.Reset(b.Schema, b.Layout, j.BuildKey, int(b.MaxTuples()), p.np, used, false)
	r := page.ReaderFor(b.Schema)
	for pg := int64(0); pg < b.Pages; pg++ {
		data, at, err := p.dev.FetchPage(b.StartLBA+pg, 0)
		if err != nil {
			return fmt.Errorf("build fetch: %w", err)
		}
		if err := r.BindStored(p.dev, b.StartLBA+pg, data); err != nil {
			return fmt.Errorf("build page %d: %w", pg, err)
		}
		p.buildDone = max(p.buildDone, p.charge(Counts{BuildPages: 1, BuildRows: int64(r.Count())}, at))
		p.join.AddPage(r)
	}
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
		if err := r.BindStored(p.dev, q.Table.StartLBA+pg, data); err != nil {
			return 0, fmt.Errorf("scan page %d: %w", pg, err)
		}
		done := p.runPage(r, max(at, p.buildDone))
		consumeRing[pg%prefetchDepth] = done
		scanEnd = max(scanEnd, done)
	}
	return scanEnd, nil
}

// runPage runs one bound page through the program and reports when its
// compute completes. A join evaluates its filter once per pair.
func (p *program) runPage(r *page.Reader, ready time.Duration) time.Duration {
	n := int64(r.Count())
	sel := p.cols.Decode(r)
	b, evaluated := p.cols.Batch, n
	if p.join != nil {
		sel, evaluated = p.join.Probe(r, p.q.Join.ProbeKey, sel)
	}
	if p.k.filter != nil && !p.lateFilter {
		sel = p.k.filter.Select(b, sel)
	}
	if p.join != nil {
		b, sel = p.join.Gather(b, sel)
		if p.lateFilter {
			sel = p.k.filter.Select(b, sel)
		}
	}
	done := p.charge(Counts{Pages: 1, Rows: n, Evaluated: evaluated, Survived: int64(len(sel))}, ready)
	if p.groups != nil {
		p.groups.FoldBatch(b, sel, p.k.root)
		return done
	}
	// Projected rows are staged once the page's compute charge has
	// completed.
	p.proj.Eval(b, sel)
	for k := range sel {
		p.proj.Row(k, p.outRow)
		p.st.add(p.outRow, done)
	}
	return done
}
