package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/fault"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// TestClusterReplicatedTableMatchesEngine is the property for queries
// driven by a Replicate'd table, which every device holds in full: for
// n in [1,8] devices and k in [1,n] copies, COUNT/SUM/MIN/MAX, a GROUP
// BY and a projection over it equal a single engine's answer. Before
// the cluster split such a scan by page range, every device scanned its
// whole copy and COUNT came out n times too large. Half the trials with
// k > 1 kill one device first, so a partition fails over to the same
// page range of the next device's copy, and some trials leave
// partitions with no pages at all.
func TestClusterReplicatedTableMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1))
	s := lineitemSchema()
	price := expr.ColRef(s, "l_extendedprice")
	revenue := expr.Arith{Op: expr.Mul, L: price, R: expr.ColRef(s, "l_discount")}
	aggs := []plan.AggSpec{
		{Kind: plan.Count, Name: "cnt"},
		{Kind: plan.Sum, E: revenue, Name: "revenue"},
		{Kind: plan.Min, E: price, Name: "lo"},
		{Kind: plan.Max, E: price, Name: "hi"},
	}
	killed, thin := 0, 0 // trials with a dead device; with fewer pages than devices
	for trial := 0; trial < 16; trial++ {
		n := 1 + rng.Intn(8)
		k := 1 + rng.Intn(n)
		rows := genLineitems(rng, 100+rng.Intn(6000))
		filter, err := expr.ParsePredicate(s, fmt.Sprintf("l_discount <= %d AND l_quantity > %d", rng.Intn(11), rng.Intn(40)))
		if err != nil {
			t.Fatal(err)
		}
		queries := []QuerySpec{
			{Table: "dim", Aggs: aggs},
			{Table: "dim", Filter: filter, Aggs: aggs},
			{Table: "dim", Filter: filter, Aggs: aggs, GroupBy: []int{s.MustColumnIndex("l_discount")}},
			{Table: "dim", Filter: filter, Output: []plan.OutputCol{
				{Name: "q", E: expr.ColRef(s, "l_quantity")},
				{Name: "d", E: expr.ColRef(s, "l_shipdate")},
			}},
		}

		e, err := New(Config{SSD: smallSSD()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CreateTable("dim", s, page.PAX, 512, OnSSD); err != nil {
			t.Fatal(err)
		}
		if err := e.Load("dim", sliceFeeder(rows)); err != nil {
			t.Fatal(err)
		}

		p := smallSSD()
		p.Fault = fault.Config{Armed: true}
		cl, err := NewCluster(n, p, device.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		cl.SetReplication(k)
		if err := cl.CreateTable("dim", s, page.PAX, 512); err != nil {
			t.Fatal(err)
		}
		if err := cl.Replicate("dim", func() func() (schema.Tuple, bool) { return sliceFeeder(rows) }); err != nil {
			t.Fatal(err)
		}
		if cl.tables["dim"][0].Pages() < int64(n) {
			thin++ // some partitions scan no pages
		}
		dead := -1
		if k > 1 && trial%2 == 0 {
			dead = rng.Intn(n)
			cl.Device(dead).Injector().KillDevice()
			killed++
		}

		for qi, spec := range queries {
			want, err := e.Run(spec, ForceHost)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Run(QuerySpec{Table: spec.Table, Filter: spec.Filter, Output: spec.Output,
				Aggs: spec.Aggs, GroupBy: spec.GroupBy})
			if err != nil {
				t.Fatalf("trial %d (n=%d k=%d dead=%d) query %d: %v", trial, n, k, dead, qi, err)
			}
			if dead >= 0 && got.Failovers != 1 {
				t.Fatalf("trial %d query %d: %d failovers with device %d dead, want 1", trial, qi, got.Failovers, dead)
			}
			wantRows := want.Rows
			if len(spec.GroupBy) > 0 {
				wantRows = append([]schema.Tuple(nil), wantRows...)
				sort.Slice(wantRows, func(i, j int) bool { return wantRows[i][0].Int < wantRows[j][0].Int })
			}
			t.Run(fmt.Sprintf("trial%d/query%d", trial, qi), func(t *testing.T) {
				requireSameRows(t, wantRows, got.Rows)
			})
		}
	}
	if killed == 0 || thin == 0 {
		t.Fatalf("%d trials killed a device and %d had fewer pages than devices; want both", killed, thin)
	}
}

// A replicated table holds every row on every device; the cluster
// refuses to update it as if each copy were a partition.
func TestClusterUpdateRejectsReplicatedTable(t *testing.T) {
	s := lineitemSchema()
	cl, err := NewCluster(2, smallSSD(), device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("dim", s, page.PAX, 64); err != nil {
		t.Fatal(err)
	}
	rows := genLineitems(rand.New(rand.NewSource(3)), 100)
	if err := cl.Replicate("dim", func() func() (schema.Tuple, bool) { return sliceFeeder(rows) }); err != nil {
		t.Fatal(err)
	}
	_, _, err = cl.Update("dim", nil, []SetClause{{Column: "l_discount", E: expr.IntConst(1)}})
	if err == nil || errors.Is(err, ErrNoTable) {
		t.Fatalf("update of a replicated table: err = %v, want a refusal", err)
	}
}
