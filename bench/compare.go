package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is the part of BENCHMARK.json -compare needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// verdict judges one metric of b against a. worse is how far b is from
// a in the bad direction, as a share of a. The verdict is "worse" when
// that exceeds the bound, "unresolved" when either run's own spread
// over its windows (interquartile range over median) is wider than
// the bound — the run cannot resolve a difference that small — and
// "ok" otherwise. Exact metrics have no windows and no spread.
func verdict(a, b metric, higherIsBetter bool, bound float64) (worse float64, v string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if higherIsBetter {
			worse = -worse
		}
	}
	switch {
	case worse > bound:
		return worse, "worse"
	case (a.Windows != nil && a.Windows.spread() > bound) || (b.Windows != nil && b.Windows.spread() > bound):
		return worse, "unresolved"
	default:
		return worse, "ok"
	}
}

// compareMain prints, for every workload both files hold and every
// end-to-end metric BENCHMARK.json names, both values, how much worse
// the second is, the bound, and the verdict. The exit status is 1 when
// any metric is worse.
func compareMain(pathA, pathB string) int {
	var man manifest
	var a, b resultFile
	for _, in := range []struct {
		path string
		into any
	}{{"BENCHMARK.json", &man}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(in.path, in.into); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", in.path, err)
			return 2
		}
	}
	status := 0
	fmt.Printf("%-14s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		for _, d := range man.EndToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			worse, v := verdict(ma, mb, d.Better == "higher", d.Bound)
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-14s %-24s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				name, d.Name, ma.Value, mb.Value, 100*worse, 100*d.Bound, v)
		}
	}
	return status
}
