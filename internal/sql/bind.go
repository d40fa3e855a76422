package sql

import (
	"fmt"
	"strings"

	"smartssd/internal/core"
	"smartssd/internal/expr"
	"smartssd/internal/expr/syntax"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// Catalog resolves table names to row schemas. It is the same shape as
// serve.SchemaSource, so any schema source can back the binder.
type Catalog interface {
	TableSchema(name string) (*schema.Schema, error)
}

// StatsCatalog is a Catalog that also exposes per-column value bounds.
// When the catalog implements it, the binder's selectivity estimates
// use real data ranges instead of fixed heuristics.
type StatsCatalog interface {
	Catalog
	// TableColumnStats reports per-column min/max stats for the named
	// table, or ok=false when the table is unknown or unloaded.
	TableColumnStats(name string) ([]core.ColumnStats, bool)
}

// EngineCatalog adapts an engine's catalog (schemas and load-time
// column stats) to the binder.
type EngineCatalog struct{ E *core.Engine }

// TableSchema resolves name against the engine's catalog.
func (c EngineCatalog) TableSchema(name string) (*schema.Schema, error) {
	t, err := c.E.Table(name)
	if err != nil {
		return nil, err
	}
	return t.File.Schema(), nil
}

// TableColumnStats reports the engine's load-time column stats.
func (c EngineCatalog) TableColumnStats(name string) ([]core.ColumnStats, bool) {
	return c.E.TableStats(name)
}

// ClusterCatalog adapts a cluster's catalog to the binder.
type ClusterCatalog struct{ C *core.Cluster }

// TableSchema resolves name against the cluster's catalog.
func (c ClusterCatalog) TableSchema(name string) (*schema.Schema, error) {
	return c.C.Schema(name)
}

// TableColumnStats reports the cluster's load-time column stats.
func (c ClusterCatalog) TableColumnStats(name string) ([]core.ColumnStats, bool) {
	return c.C.TableStats(name)
}

// Compiled is a statement bound against a catalog: the typed query spec
// the engine executes, plus everything the serving and EXPLAIN layers
// need to describe it.
type Compiled struct {
	// Stmt is the parsed statement (Stmt.Explain marks EXPLAIN requests).
	Stmt *SelectStmt
	// Spec is the executable lowering; Spec.EstSelectivity carries the
	// statistics-based estimate the pushdown planner prices.
	Spec core.QuerySpec
	// OutputNames lists the result columns in output-schema order: the
	// group-by columns first for grouped aggregates, then the aggregate
	// names; or the projection names.
	OutputNames []string
	// SQL is the canonical rendering (Render of Stmt): uppercase
	// keywords, fully parenthesized expressions, its own fixpoint under
	// Parse.
	SQL string
}

// Compile parses src and binds it against cat, lowering onto the shared
// expression trees and operator shapes. Like Parse, it never panics:
// unknown tables or columns, type mismatches, and unsupported shapes
// are all position-carrying errors.
func Compile(cat Catalog, src string) (*Compiled, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	b := &binder{src: src, cat: cat, stmt: stmt}
	if err := b.bind(); err != nil {
		return nil, err
	}
	return &Compiled{
		Stmt:        stmt,
		Spec:        b.spec,
		OutputNames: b.outputNames,
		SQL:         Render(stmt),
	}, nil
}

type binder struct {
	src  string
	cat  Catalog
	stmt *SelectStmt

	probe, build         *schema.Schema // build is nil without a join
	probeName, buildName string

	spec        core.QuerySpec
	outputNames []string
}

func (b *binder) errf(pos int, format string, args ...interface{}) error {
	return fmt.Errorf("sql: bind %q at offset %d: %s",
		b.src, pos, fmt.Sprintf(format, args...))
}

func (b *binder) bind() error {
	if err := b.bindFrom(); err != nil {
		return err
	}
	filter, err := b.bindJoinAndFilter()
	if err != nil {
		return err
	}
	b.spec.Filter = filter
	if err := b.bindGroupBy(); err != nil {
		return err
	}
	if err := b.bindSelectList(); err != nil {
		return err
	}
	if err := b.bindOrderLimit(); err != nil {
		return err
	}
	b.spec.EstSelectivity = b.estimate()
	return nil
}

func (b *binder) bindFrom() error {
	s, err := b.cat.TableSchema(b.stmt.From.Name)
	if err != nil {
		return b.errf(b.stmt.From.P, "%v", err)
	}
	b.probe, b.probeName = s, b.stmt.From.Name
	b.spec.Table = b.probeName
	if b.stmt.Join == nil {
		return nil
	}
	j := b.stmt.Join
	if strings.EqualFold(j.Table.Name, b.probeName) {
		return b.errf(j.Table.P, "cannot join table %q with itself", b.probeName)
	}
	bs, err := b.cat.TableSchema(j.Table.Name)
	if err != nil {
		return b.errf(j.Table.P, "%v", err)
	}
	// The combined row is probe columns then build columns; a shared
	// name would make unqualified references ambiguous and the combined
	// schema unconstructible.
	for _, c := range bs.Columns() {
		if b.probe.ColumnIndex(c.Name) >= 0 {
			return b.errf(j.Table.P, "tables %q and %q both have a column %q",
				b.probeName, j.Table.Name, c.Name)
		}
	}
	b.build, b.buildName = bs, j.Table.Name
	return nil
}

// resolveCol maps a column reference to its combined-row index: probe
// columns first, then (for joins) build columns.
func (b *binder) resolveCol(c syntax.ColRef) (int, error) {
	np := b.probe.NumColumns()
	if c.Table != "" {
		switch {
		case strings.EqualFold(c.Table, b.probeName):
			if i := b.probe.ColumnIndex(c.Name); i >= 0 {
				return i, nil
			}
			return 0, b.errf(c.P, "table %q has no column %q; its schema is %s",
				b.probeName, c.Name, b.probe)
		case b.build != nil && strings.EqualFold(c.Table, b.buildName):
			if i := b.build.ColumnIndex(c.Name); i >= 0 {
				return np + i, nil
			}
			return 0, b.errf(c.P, "table %q has no column %q; its schema is %s",
				b.buildName, c.Name, b.build)
		default:
			return 0, b.errf(c.P, "column %q names a table %q that is not in FROM", c.Name, c.Table)
		}
	}
	pi := b.probe.ColumnIndex(c.Name)
	bi := -1
	if b.build != nil {
		bi = b.build.ColumnIndex(c.Name)
	}
	switch {
	case pi >= 0 && bi >= 0:
		return 0, b.errf(c.P, "column %q is ambiguous between %q and %q; qualify it",
			c.Name, b.probeName, b.buildName)
	case pi >= 0:
		return pi, nil
	case bi >= 0:
		return np + bi, nil
	default:
		if b.build != nil {
			return 0, b.errf(c.P, "unknown column %q in %q %s or %q %s",
				c.Name, b.probeName, b.probe, b.buildName, b.build)
		}
		return 0, b.errf(c.P, "unknown column %q in %q %s", c.Name, b.probeName, b.probe)
	}
}

// combinedColumn reports the column descriptor at a combined-row index.
func (b *binder) combinedColumn(i int) schema.Column {
	if np := b.probe.NumColumns(); i >= np {
		return b.build.Column(i - np)
	}
	return b.probe.Column(i)
}

// bindJoinAndFilter extracts the equi-join keys (from ON, or from the
// comma form's WHERE conjuncts) and binds the residual filter.
func (b *binder) bindJoinAndFilter() (expr.Expr, error) {
	where := b.stmt.Where
	if j := b.stmt.Join; j != nil {
		var probeCol, buildCol string
		var err error
		if j.On != nil {
			probeCol, buildCol, err = b.joinKeysOf(j.On)
			if err != nil {
				return nil, err
			}
			if probeCol == "" {
				return nil, b.errf(j.On.Pos(),
					"ON must be a single equality between a %q column and a %q column",
					b.probeName, b.buildName)
			}
		} else {
			// Comma form: pull the first cross-table equality out of the
			// WHERE conjuncts; the rest stays as the filter.
			conjuncts := topConjuncts(where)
			found := -1
			for i, t := range conjuncts {
				pc, bc, _ := b.joinKeysOf(t)
				if pc != "" {
					probeCol, buildCol, found = pc, bc, i
					break
				}
			}
			if found < 0 {
				return nil, b.errf(j.P,
					"the comma join of %q and %q needs an equality between their columns in WHERE",
					b.probeName, b.buildName)
			}
			where = rejoinConjuncts(conjuncts, found)
		}
		b.spec.Join = &core.JoinClause{
			BuildTable: b.buildName,
			BuildKey:   buildCol,
			ProbeKey:   probeCol,
		}
	}
	if where == nil {
		return nil, nil
	}
	f, err := b.bindExpr(where)
	if err != nil {
		return nil, err
	}
	if f.Kind() != schema.Int64 {
		return nil, b.errf(where.Pos(),
			"WHERE must be boolean-valued, got %s (%s)", f.Kind(), f)
	}
	b.stmt.residualWhere = where
	return f, nil
}

// joinKeysOf inspects one predicate: if it is an equality between a
// probe column and a build column (either side order), it returns their
// names; otherwise empty strings. Resolution failures are not errors
// here — the term simply is not the join condition, and binding the
// residual filter reports them with full context.
func (b *binder) joinKeysOf(t syntax.Expr) (probeCol, buildCol string, err error) {
	cmp, ok := t.(syntax.Cmp)
	if !ok || cmp.Op != "=" {
		return "", "", nil
	}
	lc, ok := cmp.L.(syntax.ColRef)
	if !ok {
		return "", "", nil
	}
	rc, ok := cmp.R.(syntax.ColRef)
	if !ok {
		return "", "", nil
	}
	li, lerr := b.resolveCol(lc)
	ri, rerr := b.resolveCol(rc)
	if lerr != nil || rerr != nil {
		return "", "", nil
	}
	np := b.probe.NumColumns()
	switch {
	case li < np && ri >= np:
		return lc.Name, rc.Name, nil
	case ri < np && li >= np:
		return rc.Name, lc.Name, nil
	default:
		return "", "", nil
	}
}

// topConjuncts flattens the top-level AND of a predicate.
func topConjuncts(e syntax.Expr) []syntax.Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(syntax.Logical); ok && l.Op == "AND" {
		return l.Terms
	}
	return []syntax.Expr{e}
}

// rejoinConjuncts rebuilds the predicate with conjunct i removed.
func rejoinConjuncts(terms []syntax.Expr, i int) syntax.Expr {
	rest := make([]syntax.Expr, 0, len(terms)-1)
	rest = append(rest, terms[:i]...)
	rest = append(rest, terms[i+1:]...)
	switch len(rest) {
	case 0:
		return nil
	case 1:
		return rest[0]
	default:
		return syntax.Logical{Op: "AND", Terms: rest, P: rest[0].Pos()}
	}
}

func (b *binder) bindGroupBy() error {
	for _, c := range b.stmt.GroupBy {
		i, err := b.resolveCol(c)
		if err != nil {
			return err
		}
		for _, prev := range b.spec.GroupBy {
			if prev == i {
				return b.errf(c.P, "duplicate GROUP BY column %q", c.Name)
			}
		}
		b.spec.GroupBy = append(b.spec.GroupBy, i)
	}
	return nil
}

func (b *binder) bindSelectList() error {
	aggregated := len(b.stmt.GroupBy) > 0
	for _, item := range b.stmt.Items {
		if _, ok := item.E.(syntax.FuncCall); ok {
			aggregated = true
		}
	}
	if !aggregated {
		return b.bindProjection()
	}

	nGroup := len(b.stmt.GroupBy)
	if len(b.stmt.Items) <= nGroup {
		p := b.stmt.From.P
		if len(b.stmt.Items) > 0 {
			p = b.stmt.Items[0].P
		}
		return b.errf(p, "an aggregate query needs at least one aggregate after its %d GROUP BY columns", nGroup)
	}
	// The engine's grouped-aggregate output schema is the group-by
	// columns (in GROUP BY order) followed by the aggregates; the select
	// list must spell exactly that so SQL results match it.
	for i := 0; i < nGroup; i++ {
		item := b.stmt.Items[i]
		c, ok := item.E.(syntax.ColRef)
		if !ok {
			return b.errf(item.P,
				"select item %d must be the GROUP BY column %q (group columns come first, in GROUP BY order)",
				i+1, b.stmt.GroupBy[i].Name)
		}
		ci, err := b.resolveCol(c)
		if err != nil {
			return err
		}
		if ci != b.spec.GroupBy[i] {
			return b.errf(item.P,
				"select item %d is %q, want the GROUP BY column %q (group columns come first, in GROUP BY order)",
				i+1, c.Name, b.stmt.GroupBy[i].Name)
		}
		name := b.combinedColumn(ci).Name
		if item.Alias != "" && item.Alias != name {
			return b.errf(item.P,
				"cannot rename GROUP BY column %q to %q (grouped output uses the column name)",
				name, item.Alias)
		}
		b.outputNames = append(b.outputNames, name)
	}
	for i := nGroup; i < len(b.stmt.Items); i++ {
		item := b.stmt.Items[i]
		call, ok := item.E.(syntax.FuncCall)
		if !ok {
			if nGroup > 0 {
				return b.errf(item.P, "select item %d must be an aggregate (only the first %d items may be GROUP BY columns)", i+1, nGroup)
			}
			return b.errf(item.P, "cannot mix plain expressions with aggregates; add the column to GROUP BY")
		}
		spec, err := b.bindAggregate(call, item.Alias)
		if err != nil {
			return err
		}
		b.spec.Aggs = append(b.spec.Aggs, spec)
		b.outputNames = append(b.outputNames, spec.Name)
	}
	return b.checkDistinctOutputNames()
}

func (b *binder) bindAggregate(call syntax.FuncCall, alias string) (plan.AggSpec, error) {
	var spec plan.AggSpec
	kind := strings.ToUpper(call.Name)
	switch kind {
	case "SUM":
		spec.Kind = plan.Sum
	case "COUNT":
		spec.Kind = plan.Count
	case "MIN":
		spec.Kind = plan.Min
	case "MAX":
		spec.Kind = plan.Max
	default:
		// The parser only builds FuncCall for these four names.
		return spec, b.errf(call.P, "unknown aggregate %s", call.Name)
	}
	if spec.Kind == plan.Count {
		if call.Arg != nil {
			return spec, b.errf(call.Arg.Pos(), "COUNT takes * (it counts rows, not values)")
		}
	} else {
		if call.Arg == nil {
			return spec, b.errf(call.P, "%s needs an argument", kind)
		}
		e, err := b.bindExpr(call.Arg)
		if err != nil {
			return spec, err
		}
		if err := expr.CheckAggregate(kind, e); err != nil {
			return spec, b.errf(call.Arg.Pos(), "%v", err)
		}
		spec.E = e
	}
	spec.Name = alias
	if spec.Name == "" {
		// Matches the wire protocol's default aggregate column names.
		spec.Name = strings.ToLower(kind)
	}
	return spec, nil
}

func (b *binder) bindProjection() error {
	for _, item := range b.stmt.Items {
		e, err := b.bindExpr(item.E)
		if err != nil {
			return err
		}
		name := item.Alias
		if name == "" {
			if c, ok := item.E.(syntax.ColRef); ok {
				name = c.Name
			} else {
				name = syntax.Render(item.E)
			}
		}
		b.spec.Output = append(b.spec.Output, plan.OutputCol{Name: name, E: e})
		b.outputNames = append(b.outputNames, name)
	}
	return b.checkDistinctOutputNames()
}

func (b *binder) checkDistinctOutputNames() error {
	for i, n := range b.outputNames {
		for j := 0; j < i; j++ {
			if b.outputNames[j] == n {
				return b.errf(b.stmt.Items[i].P,
					"duplicate output column %q; alias one of them with AS", n)
			}
		}
	}
	return nil
}

func (b *binder) bindOrderLimit() error {
	for _, o := range b.stmt.OrderBy {
		key := plan.OrderKey{Desc: o.Desc}
		switch {
		case o.Position > 0:
			if o.Position > len(b.outputNames) {
				return b.errf(o.P, "ORDER BY position %d exceeds the %d output columns",
					o.Position, len(b.outputNames))
			}
			key.Col = o.Position - 1
		default:
			found := -1
			for i, n := range b.outputNames {
				if n == o.Name {
					found = i
					break
				}
			}
			if found < 0 {
				return b.errf(o.P, "ORDER BY column %q is not in the output %v", o.Name, b.outputNames)
			}
			key.Col = found
		}
		b.spec.OrderBy = append(b.spec.OrderBy, key)
	}
	b.spec.Limit = int(b.stmt.Limit)
	return nil
}

// bindExpr lowers an expression through expr.Bind, the one copy of
// the language's kind rules, resolving names against the combined row.
func (b *binder) bindExpr(e syntax.Expr) (expr.Expr, error) {
	out, err := expr.Bind(e, b.column)
	if se, ok := err.(*syntax.Error); ok {
		return nil, b.errf(se.Pos, "%s", se.Msg)
	}
	return out, err
}

// column is the binder's expr.Resolver: a column of the combined row.
func (b *binder) column(c syntax.ColRef) (expr.Col, error) {
	i, err := b.resolveCol(c)
	if err != nil {
		return expr.Col{}, err
	}
	col := b.combinedColumn(i)
	return expr.Col{Index: i, Name: col.Name, K: col.Kind}, nil
}
