// Bench is the repository's benchmark: it builds and spawns the real
// cmd/smartssdd on a loopback port and drives OPEN → long-poll GET →
// CLOSE sessions at it from closed-loop clients (three workloads), runs
// the paper sweep through internal/experiments in a child process (the
// fourth), checks every answer against an in-process oracle, and — in a
// separate traced run — times the public entry point of every layer
// from outside to say where a session's wall time goes. README.md in
// this directory defines every metric and workload.
//
// Usage:
//
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1
//	go run ./bench -seed N                 # every workload, untraced then traced
//	go run ./bench -compare a.json b.json  # judge two result files
//
// The first form is what BENCHMARK.json names: one workload, one run,
// and as the last line of standard output one JSON object with the
// keys correct, attempted, failed and metrics — the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The exit
// status is non-zero on any correctness violation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runTimeout bounds one workload run; the acceptance driver allows 180 s.
const runTimeout = 170 * time.Second

func main() { os.Exit(realMain()) }

func realMain() int {
	workloadName := flag.String("workload", "", "run one workload: scan_engine, serve_small, cluster_rw or figures_batch (default: all)")
	seed := flag.Int64("seed", 1, "seed of the request parameter draws")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	figuresChild := flag.Bool("figures-child", false, "internal: serve figures_batch passes over stdin/stdout")
	parallelism := flag.Int("parallelism", 0, "internal: sweep parallelism of the figures child")
	flag.Parse()

	switch {
	case *figuresChild:
		return figuresChildMain(*parallelism)
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareMain(flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: need --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, clients: defaultClients()}

	if *workloadName != "" {
		res, err := runWorkload(*workloadName, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		report(os.Stdout, res)
		if err := writeResultFile(cfg, []*workloadResult{res}, resultName(res.Workload, cfg.trace)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := printResultLine(res, cfg.trace); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	// Every workload: the untraced run first (end-to-end metrics always
	// come from it), then the traced one.
	var all []*workloadResult
	ok := true
	for _, name := range workloadNames() {
		var merged *workloadResult
		for _, traced := range []bool{false, true} {
			c := cfg
			c.trace = traced
			res, err := runWorkload(name, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			report(os.Stdout, res)
			ok = ok && res.Correct
			if merged == nil {
				merged = res
				continue
			}
			merged.Correct = merged.Correct && res.Correct
			merged.Failures = append(merged.Failures, res.Failures...)
			merged.PerLayer, merged.Ladder = res.PerLayer, res.Ladder
		}
		all = append(all, merged)
	}
	if err := writeResultFile(cfg, all, "result.json"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range daemonWorkloads {
		names = append(names, w.name)
	}
	return append(names, figuresBatch)
}

// runWorkload runs one workload once under the run timeout.
func runWorkload(name string, cfg runConfig) (*workloadResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if name == figuresBatch {
		return runFiguresBatch(ctx, cfg)
	}
	def := workloadByName(name)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	return runDaemonWorkload(ctx, def, cfg)
}

// report prints every metric of res by name with its unit, and the
// ladder table when the run was traced.
func report(w *os.File, res *workloadResult) {
	fmt.Fprintf(w, "== %s: %d sessions attempted, %d failed, %d windows of %d ops\n",
		res.Workload, res.Attempted, res.Failed, res.Windows, res.WindowOps)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "VIOLATION: %s\n", f)
	}
	printMetrics(w, endToEndMetrics, res.EndToEnd)
	printMetrics(w, perLayerMetrics, res.PerLayer)
	printLadder(w, res.Ladder)
}

func printMetrics(w *os.File, defs []metricDef, values map[string]metric) {
	if values == nil {
		return
	}
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(w, "%-34s %14.6g %-7s", d.name, v.Value, v.Unit)
		if s := v.Windows; s != nil {
			fmt.Fprintf(w, " windows: median %.6g q1 %.6g q3 %.6g n=%d", s.Median, s.Q1, s.Q3, s.Samples)
		}
		fmt.Fprintln(w)
	}
}

// resultLine is the acceptance driver's contract: exactly these keys.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(res *workloadResult, traced bool) error {
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]lineMetric, len(src))}
	for name, m := range src {
		line.Metrics[name] = lineMetric{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// resultFile is what a run leaves in bench/out and what -compare reads.
type resultFile struct {
	Seed    int64 `json:"seed"`
	Seconds int   `json:"seconds"`
	NProc   int   `json:"nproc"`
	Clients int   `json:"clients"`
	// Claim is always null: the benchmark measures, later changes claim.
	Claim     *string                    `json:"claim"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func resultName(workload string, traced bool) string {
	if traced {
		return "result-" + workload + "-traced.json"
	}
	return "result-" + workload + ".json"
}

func writeResultFile(cfg runConfig, results []*workloadResult, name string) error {
	f := resultFile{Seed: cfg.seed, Seconds: cfg.seconds, NProc: runtime.NumCPU(), Clients: cfg.clients,
		Workloads: make(map[string]*workloadResult, len(results))}
	for _, r := range results {
		f.Workloads[r.Workload] = r
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(buildDir, name), append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
