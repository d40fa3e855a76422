// Benchsuite regenerates every table and figure from the paper's
// evaluation section on the simulated system.
//
// Usage:
//
//	benchsuite [-exp all|fig1|table2|fig3|fig5|fig7|table3|q1|concurrency|interfaces|hybrid|faults|planner|util]
//	           [-sf 0.05] [-synthr 2000] [-seed 1] [-faultseed 0]
//	           [-par 0] [-cpuprofile file] [-memprofile file]
//
// -exp util prints per-resource utilization tables for Q6 on the host
// and device paths (the bandwidth-crossover evidence); it is not part
// of -exp all, whose output is a stable regression artifact.
//
// -exp planner sweeps the Figure 5 selectivities with the query
// entering through the SQL front end, and charts the cost model's
// chosen backend against the measured-best backend — the planner's
// crossover-agreement evidence.
//
// -par fans each experiment's independent sweep points across engine
// clones (0: GOMAXPROCS workers, 1: serial). Rendered output is
// byte-identical at every setting; only wall-clock time changes.
//
// Speedup and energy ratios are scale-invariant; -sf and -synthr only
// trade wall-clock time for dataset size.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"smartssd/internal/experiments"
)

// experimentNames lists every valid -exp value, in output order.
var experimentNames = []string{
	"all", "fig1", "table2", "fig3", "fig5", "fig7", "table3",
	"q1", "concurrency", "interfaces", "hybrid", "faults", "planner", "util",
}

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig1, table2, fig3, fig5, fig7, table3, q1, concurrency, interfaces, hybrid, faults, planner, util")
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor (paper: 100)")
	synthR := flag.Int64("synthr", 2000, "Synthetic64_R rows (paper: 1,000,000; S is 400x)")
	seed := flag.Int64("seed", 1, "data generation seed")
	faultSeed := flag.Int64("faultseed", 0, "fault-injection seed for -exp faults (0: same as -seed)")
	par := flag.Int("par", 0, "sweep-point workers (0: GOMAXPROCS, 1: serial); output is identical at every setting")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if !slices.Contains(experimentNames, *exp) {
		fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q (valid: %v)\n", *exp, experimentNames)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	o := experiments.Options{SF: *sf, SynthR: *synthR, Seed: *seed, FaultSeed: *faultSeed, Parallelism: *par}
	run := func(name string, f func() (interface{ Render() string }, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		rep, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(rep.Render())
	}

	run("fig1", func() (interface{ Render() string }, error) {
		return experiments.Fig1(), nil
	})
	run("table2", func() (interface{ Render() string }, error) {
		r, err := experiments.Table2(o)
		return r, err
	})
	run("fig3", func() (interface{ Render() string }, error) {
		r, err := experiments.Fig3(o)
		return r, err
	})
	run("fig5", func() (interface{ Render() string }, error) {
		r, err := experiments.Fig5(o, nil)
		return r, err
	})
	run("fig7", func() (interface{ Render() string }, error) {
		r, err := experiments.Fig7(o)
		return r, err
	})
	run("table3", func() (interface{ Render() string }, error) {
		r, err := experiments.Table3(o)
		return r, err
	})
	run("q1", func() (interface{ Render() string }, error) {
		r, err := experiments.ExtQ1(o)
		return r, err
	})
	run("concurrency", func() (interface{ Render() string }, error) {
		r, err := experiments.ExtConcurrency(o)
		return r, err
	})
	run("interfaces", func() (interface{ Render() string }, error) {
		r, err := experiments.ExtInterface(o)
		return r, err
	})
	run("hybrid", func() (interface{ Render() string }, error) {
		r, err := experiments.ExtHybrid(o)
		return r, err
	})
	run("faults", func() (interface{ Render() string }, error) {
		r, err := experiments.ExtFaults(o)
		return r, err
	})
	run("planner", func() (interface{ Render() string }, error) {
		r, err := experiments.Planner(o, nil)
		return r, err
	})

	// util is opt-in only: it is excluded from -exp all so the default
	// artifact stays byte-for-byte comparable across revisions.
	if *exp == "util" {
		r, err := experiments.ExtUtil(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: util: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.Render())
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
