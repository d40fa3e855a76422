package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// loadJoinPair loads fact and dim onto one target of a fresh engine, so
// a join between them passes the same-device rule.
func loadJoinPair(t *testing.T, target Target) *Engine {
	t.Helper()
	e := newEngine(t)
	loadFact(t, e, page.PAX, 500, target)
	if _, err := e.CreateTable("dim", dimSchema(), page.NSM, 16, target); err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := e.Load("dim", func() (schema.Tuple, bool) {
		if i >= 40 {
			return nil, false
		}
		i++
		return schema.Tuple{schema.IntVal(int64(i - 1)), schema.IntVal(int64(i))}, true
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// opaque is an expression node type rowWidth does not list, so its
// columns are found through Columns.
type opaque struct{ expr.Expr }

// TestMalformedQueriesReturnErrors sends every way a query can fail to
// resolve through every entry point of both backends — Run in each
// mode, Decide and Explain on an SSD- and an HDD-resident engine, Run
// and Explain on a cluster that runs its partitions in order and on one
// that fans them out — and wants the resolve error back from each,
// never a panic. Run it under -race: a panic on a fanned-out worker
// goroutine cannot be recovered and kills the test binary.
func TestMalformedQueriesReturnErrors(t *testing.T) {
	np := widePaddedSchema().NumColumns()
	width := np + dimSchema().NumColumns()
	count := []plan.AggSpec{{Kind: plan.Count, Name: "c"}}
	col := func(i int) expr.Col { return expr.Col{Index: i, Name: fmt.Sprint("c", i), K: schema.Int32} }
	joinOn := func(build, buildKey, probeKey string) *JoinClause {
		return &JoinClause{BuildTable: build, BuildKey: buildKey, ProbeKey: probeKey}
	}
	cases := []struct {
		name string
		spec QuerySpec
		want string
		// clusterOnly marks a query the engine runs: it finishes ORDER
		// BY and LIMIT on its host.
		clusterOnly bool
	}{
		{"unknown table", QuerySpec{Table: "nope", Aggs: count}, ErrNoTable.Error(), false},
		{"unknown build table", QuerySpec{Table: "fact", Join: joinOn("nope", "d_key", "grp"), Aggs: count},
			ErrNoTable.Error(), false},
		{"unknown build key", QuerySpec{Table: "fact", Join: joinOn("dim", "nope", "grp"), Aggs: count},
			"join keys", false},
		{"unknown probe key", QuerySpec{Table: "fact", Join: joinOn("dim", "d_key", "nope"), Aggs: count},
			"join keys", false},
		{"group-by out of range", QuerySpec{Table: "fact", Aggs: count, GroupBy: []int{99}},
			"group-by column 99", false},
		{"group-by past the joined row", QuerySpec{Table: "fact", Join: joinOn("dim", "d_key", "grp"),
			Aggs: count, GroupBy: []int{width}}, fmt.Sprintf("group-by column %d", width), false},
		{"negative group-by", QuerySpec{Table: "fact", Aggs: count, GroupBy: []int{-1}},
			"group-by column -1", false},
		{"filter column out of range", QuerySpec{Table: "fact",
			Filter: expr.Cmp{Op: expr.LT, L: col(99), R: expr.IntConst(3)}, Aggs: count},
			"filter reads a column", false},
		{"filter column past the joined row", QuerySpec{Table: "fact", Join: joinOn("dim", "d_key", "grp"),
			Filter: expr.And{Terms: []expr.Expr{
				expr.Cmp{Op: expr.LT, L: col(np + 1), R: expr.IntConst(3)},
				expr.Cmp{Op: expr.GE, L: col(width), R: expr.IntConst(0)},
			}}, Aggs: count}, "filter reads a column", false},
		{"filter column behind an unlisted node", QuerySpec{Table: "fact",
			Filter: opaque{expr.Cmp{Op: expr.LT, L: col(99), R: expr.IntConst(3)}}, Aggs: count},
			"filter reads a column", false},
		{"output column out of range", QuerySpec{Table: "fact",
			Output: []plan.OutputCol{{Name: "x", E: expr.Arith{Op: expr.Add, L: col(0), R: col(99)}}}},
			`output "x" reads a column`, false},
		{"negative output column", QuerySpec{Table: "fact", Output: []plan.OutputCol{{Name: "x", E: col(-1)}}},
			`output "x" reads a column`, false},
		{"aggregate column out of range", QuerySpec{Table: "fact",
			Aggs: []plan.AggSpec{{Kind: plan.Sum, E: col(99), Name: "s"}}},
			`aggregate "s" reads a column`, false},
		{"no outputs or aggregates", QuerySpec{Table: "fact"}, "neither output columns nor aggregates", false},
		{"cluster ORDER BY", QuerySpec{Table: "fact", Output: []plan.OutputCol{{Name: "id", E: col(0)}},
			OrderBy: []plan.OrderKey{{Col: 0}}}, "ORDER BY or LIMIT", true},
		{"cluster LIMIT", QuerySpec{Table: "fact", Output: []plan.OutputCol{{Name: "id", E: col(0)}},
			Limit: 5}, "ORDER BY or LIMIT", true},
	}
	// partitionedCases are refused only by a cluster whose dim was
	// Loaded (partitioned), not Replicated: each partition would join
	// only the dim rows on its own device.
	partitionedCases := []struct {
		name string
		spec QuerySpec
		want string
	}{
		{"partitioned build table", QuerySpec{Table: "fact", Join: joinOn("dim", "d_key", "grp"), Aggs: count},
			"partitioned"},
	}

	type entry struct {
		name string
		call func(QuerySpec) error
	}
	var engineEntries, clusterEntries []entry
	for _, target := range []Target{OnSSD, OnHDD} {
		e := loadJoinPair(t, target)
		where := map[Target]string{OnSSD: "ssd", OnHDD: "hdd"}[target]
		for _, mode := range []Mode{Auto, ForceHost, ForceDevice, ForceHybrid} {
			engineEntries = append(engineEntries, entry{fmt.Sprintf("engine/%s/Run/%s", where, mode),
				func(q QuerySpec) error { _, err := e.Run(q, mode); return err }})
		}
		engineEntries = append(engineEntries,
			entry{"engine/" + where + "/Decide", func(q QuerySpec) error { _, err := e.Decide(q); return err }},
			entry{"engine/" + where + "/Explain", func(q QuerySpec) error { _, err := e.Explain(q); return err }})
	}
	// driverPair's first cluster fans a big enough run out across its
	// devices; its second has armed injectors, so it never does.
	fanned, inOrder := driverPair(t, 2, 2, 30_000)
	var pages int64
	for _, f := range fanned.tables["fact"] {
		pages += f.Pages()
	}
	if !fanned.fansOut(pages) || inOrder.fansOut(pages) {
		t.Fatalf("%d fact pages: fansOut = %v and %v, want true and false",
			pages, fanned.fansOut(pages), inOrder.fansOut(pages))
	}
	partitioned, err := NewCluster(2, smallSSD(), device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	fact := make([]schema.Tuple, 400)
	for i := range fact {
		fact[i] = schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(int64(i % 40)),
			schema.IntVal(int64(i % 100)), schema.StrVal("p")}
	}
	dim := make([]schema.Tuple, 40)
	for i := range dim {
		dim[i] = schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(int64(7 * i))}
	}
	for _, tab := range []struct {
		name string
		s    *schema.Schema
		rows []schema.Tuple
	}{{"fact", widePaddedSchema(), fact}, {"dim", dimSchema(), dim}} {
		if err := partitioned.CreateTable(tab.name, tab.s, page.PAX, 64); err != nil {
			t.Fatal(err)
		}
		if err := partitioned.Load(tab.name, sliceFeeder(tab.rows)); err != nil {
			t.Fatal(err)
		}
	}
	var partitionedEntries []entry
	for name, cl := range map[string]*Cluster{"fanned": fanned, "in-order": inOrder, "partitioned": partitioned} {
		es := []entry{
			{"cluster/" + name + "/Run", func(q QuerySpec) error { _, err := cl.Run(q); return err }},
			{"cluster/" + name + "/Explain", func(q QuerySpec) error { _, err := cl.Explain(q); return err }},
		}
		clusterEntries = append(clusterEntries, es...)
		if cl == partitioned {
			partitionedEntries = es
		}
	}

	check := func(name string, spec QuerySpec, want string, entries []entry) {
		for _, en := range entries {
			t.Run(name+"/"+en.name, func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panic: %v", p)
					}
				}()
				err := en.call(spec)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want one containing %q", err, want)
				}
				if want == ErrNoTable.Error() && !errors.Is(err, ErrNoTable) {
					t.Fatalf("err = %v, want ErrNoTable", err)
				}
			})
		}
	}
	for _, c := range cases {
		entries := append(append([]entry(nil), clusterEntries...), engineEntries...)
		if c.clusterOnly {
			entries = clusterEntries
		}
		check(c.name, c.spec, c.want, entries)
	}
	for _, c := range partitionedCases {
		check(c.name, c.spec, c.want, partitionedEntries)
	}
}

// TestClusterCreateTableRollsBackOnFailure fills a two-device cluster at
// replication 2 until a table's replica no longer fits: the failed
// create must leave every allocator where it was and catalogue nothing,
// so a table that fits is accepted afterwards.
func TestClusterCreateTableRollsBackOnFailure(t *testing.T) {
	cl, err := NewCluster(2, smallSSD(), device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cl.SetReplication(2)
	used := func() []int64 {
		out := make([]int64, len(cl.allocs))
		for i := range cl.allocs {
			out[i] = cl.allocs[i].Used()
		}
		return out
	}
	before := used()
	if err := cl.CreateTable("big", widePaddedSchema(), page.NSM, 4000); err == nil {
		t.Fatal("4000-page table fitted two copies on a 7168-page device")
	}
	if after := used(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("failed create moved the allocators from %v to %v", before, after)
	}
	if _, err := cl.Schema("big"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("failed create left a catalog entry: %v", err)
	}
	if err := cl.CreateTable("fits", widePaddedSchema(), page.NSM, 3000); err != nil {
		t.Fatalf("3000-page table after a failed create: %v", err)
	}
}
