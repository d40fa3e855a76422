// Multidev demonstrates the end of the paper's §4.3 design spectrum:
// the host as a pure coordinator staging computation across an array of
// Smart SSDs, "making the system look like a parallel DBMS with the
// master node being the host server, and the worker nodes ... being the
// Smart SSDs".
//
// A fact table is partitioned round-robin across N simulated devices, a
// small dimension table is replicated to each, and a filtered
// join-aggregate runs as one in-device program per worker with the host
// merging partial aggregates.
package main

import (
	"flag"
	"fmt"
	"log"

	"smartssd"
)

func main() {
	workers := flag.Int("devices", 4, "number of Smart SSD workers")
	nRows := flag.Int64("rows", 200_000, "fact-table rows")
	flag.Parse()

	fact := smartssd.NewSchema(
		smartssd.Column{Name: "f_id", Kind: smartssd.Int64},
		smartssd.Column{Name: "f_dim", Kind: smartssd.Int32},
		smartssd.Column{Name: "f_val", Kind: smartssd.Int32},
		smartssd.Column{Name: "f_pad", Kind: smartssd.Char, Len: 140},
	)
	dim := smartssd.NewSchema(
		smartssd.Column{Name: "d_key", Kind: smartssd.Int32},
		smartssd.Column{Name: "d_weight", Kind: smartssd.Int32},
	)

	genFact := func() func() (smartssd.Tuple, bool) {
		i := int64(0)
		return func() (smartssd.Tuple, bool) {
			if i >= *nRows {
				return nil, false
			}
			t := smartssd.Tuple{
				smartssd.IntVal(i),
				smartssd.IntVal(i % 64),
				smartssd.IntVal(i % 100),
				smartssd.StrVal("fact"),
			}
			i++
			return t, true
		}
	}
	genDim := func() func() (smartssd.Tuple, bool) {
		j := int64(0)
		return func() (smartssd.Tuple, bool) {
			if j >= 64 {
				return nil, false
			}
			t := smartssd.Tuple{smartssd.IntVal(j), smartssd.IntVal(j * 5)}
			j++
			return t, true
		}
	}

	query := smartssd.QuerySpec{
		Table: "fact",
		Join:  &smartssd.JoinClause{BuildTable: "dim", BuildKey: "d_key", ProbeKey: "f_dim"},
		Filter: smartssd.LT(
			smartssd.ColAt(2, "f_val", smartssd.Int32), smartssd.Int(20)),
		Aggs: []smartssd.AggSpec{
			{Kind: smartssd.Sum, E: smartssd.ColAt(fact.NumColumns()+1, "d_weight", smartssd.Int32), Name: "sum_w"},
			{Kind: smartssd.Count, Name: "cnt"},
		},
	}

	fmt.Printf("%-9s %12s %14s %10s\n", "devices", "elapsed", "scale-up", "answer")
	var base float64
	for _, n := range []int{1, 2, *workers} {
		cl, err := smartssd.NewCluster(n, smartssd.DefaultSSDParams())
		if err != nil {
			log.Fatal(err)
		}
		if err := cl.CreateTable("fact", fact, smartssd.PAX, *nRows/40+2); err != nil {
			log.Fatal(err)
		}
		if err := cl.Load("fact", genFact()); err != nil {
			log.Fatal(err)
		}
		if err := cl.CreateTable("dim", dim, smartssd.NSM, 4); err != nil {
			log.Fatal(err)
		}
		if err := cl.Replicate("dim", genDim); err != nil {
			log.Fatal(err)
		}
		res, err := cl.Run(query)
		if err != nil {
			log.Fatal(err)
		}
		el := res.Elapsed.Seconds()
		if n == 1 {
			base = el
		}
		fmt.Printf("%-9d %11.4fs %13.2fx   sum=%d cnt=%d\n",
			n, el, base/el, res.Rows[0][0].Int, res.Rows[0][1].Int)
	}
	fmt.Println("\nEach worker scans only its partition at internal bandwidth; the host")
	fmt.Println("merges one partial aggregate per device - near-linear scale-up.")
}
