package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"smartssd/internal/experiments"
)

// The sweep's scale: small enough that one pass takes about half a
// second, large enough that Figure 5's join sweep dominates it the way
// it dominates the full-size evaluation. Virtual time is scale
// invariant, so the paper ratios hold at this size.
func figuresOptions(parallelism int) experiments.Options {
	return experiments.Options{SF: 0.01, SynthR: 400, Seed: 1, Parallelism: parallelism}
}

// figures_batch windows: one op is one pass of about half a second, so
// a handful of passes is already as long as the daemon workloads'
// windows. The 95th percentile needs a longer window of its own.
const (
	figuresWarmPasses = 3
	figuresWinPasses  = 4
	figuresTailPasses = 20
)

// paperRatio is one of the paper's headline ratios and where the sweep
// reproduces it.
type paperRatio struct {
	metric string // per-layer metric that carries the measured value
	paper  float64
}

// paperRatios is the accuracy set of paper_ratio_err_max_pct.
// experiments.q6_nsm_x is reported too but has no paper value (the
// paper only places it "between 1x and PAX").
var paperRatios = []paperRatio{
	{"experiments.table2_x", 2.8},
	{"experiments.q6_pax_x", 1.7},
	{"experiments.join_sel1_x", 2.2},
	{"experiments.q14_pax_x", 1.3},
	{"experiments.energy_hdd_x", 11.6},
	{"experiments.energy_ssd_x", 1.9},
}

// pass is one rendering of the paper's evaluation.
type pass struct {
	// Hash covers every rendered artifact of the pass; it must be the
	// same on every pass and at every parallelism.
	Hash string `json:"hash"`
	// SimNS sums the simulated elapsed time of every run in the pass.
	SimNS int64 `json:"sim_ns"`
	// Ratios holds the measured paper ratios by per-layer metric name.
	Ratios map[string]float64 `json:"ratios"`
	// StageNS is the wall time of each Suite call, by name.
	StageNS map[string]int64 `json:"stage_ns"`
	// AllocBytes is what the pass allocated.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Error reports a failed pass to the parent.
	Error string `json:"error,omitempty"`
}

// runPass runs Fig3 + Fig5 + Fig7 + Table3 on suite once. table2 is
// the set-up's bandwidth ratio, carried into the accuracy set.
func runPass(suite *experiments.Suite, table2 float64, span func(name string, f func() error) error) (*pass, error) {
	p := &pass{Ratios: map[string]float64{"experiments.table2_x": table2}, StageNS: make(map[string]int64)}
	h := sha256.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stage := func(name string, f func() error) error {
		start := now()
		err := span(name, f)
		p.StageNS[name] = now().Sub(start).Nanoseconds()
		return err
	}
	err := stage("experiments.fig3", func() error {
		r, err := suite.Fig3()
		if err != nil {
			return err
		}
		io.WriteString(h, r.Render())
		for _, run := range r.Runs {
			p.SimNS += run.Elapsed.Nanoseconds()
		}
		p.Ratios["experiments.q6_nsm_x"] = r.Runs[1].Speedup
		p.Ratios["experiments.q6_pax_x"] = r.Runs[2].Speedup
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = stage("experiments.fig5", func() error {
		r, err := suite.Fig5(nil)
		if err != nil {
			return err
		}
		io.WriteString(h, r.Render())
		for _, pt := range r.Points {
			p.SimNS += (pt.Host + pt.SmartNSM + pt.SmartPAX).Nanoseconds()
		}
		p.Ratios["experiments.join_sel1_x"] = r.Points[0].SpeedupPAX
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = stage("experiments.fig7", func() error {
		r, err := suite.Fig7()
		if err != nil {
			return err
		}
		io.WriteString(h, r.Render())
		for _, run := range r.Runs {
			p.SimNS += run.Elapsed.Nanoseconds()
		}
		p.Ratios["experiments.q14_pax_x"] = r.Runs[2].Speedup
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = stage("experiments.table3", func() error {
		r, err := suite.Table3()
		if err != nil {
			return err
		}
		io.WriteString(h, r.Render())
		for _, run := range r.Runs {
			p.SimNS += run.Elapsed.Nanoseconds()
		}
		p.Ratios["experiments.energy_hdd_x"] = r.HDDSystemRatio
		p.Ratios["experiments.energy_ssd_x"] = r.SSDSystemRatio
		return nil
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	p.AllocBytes = after.TotalAlloc - before.TotalAlloc
	p.Hash = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// noSpan runs a stage untraced.
func noSpan(_ string, f func() error) error { return f() }

// ratioErrMaxPct is the accuracy metric: the largest relative error of
// a measured paper ratio, in percent.
func ratioErrMaxPct(ratios map[string]float64) float64 {
	var worst float64
	for _, r := range paperRatios {
		if e := 100 * math.Abs(ratios[r.metric]-r.paper) / r.paper; e > worst {
			worst = e
		}
	}
	return worst
}

// figuresChildMain is the sweep's own process: it measures Table 2,
// loads the suite, renders a first full pass and reports it (that line
// ends set-up), then renders one pass per "pass" line on standard input
// until the input closes.
func figuresChildMain(parallelism int) int {
	out := json.NewEncoder(os.Stdout)
	t2, err := experiments.Table2(experiments.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench figures child:", err)
		return 1
	}
	suite := experiments.NewSuite(figuresOptions(parallelism))
	defer suite.Close()
	in := bufio.NewScanner(os.Stdin)
	for {
		p, err := runPass(suite, t2.Ratio, noSpan)
		if err != nil {
			p = &pass{Error: err.Error()}
		}
		if err := out.Encode(p); err != nil {
			return 1
		}
		if !in.Scan() {
			return 0
		}
	}
}

// figuresChild is the parent's handle on a spawned sweep process.
type figuresChild struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	// setup is spawn → first full pass rendered; first is that pass.
	setup time.Duration
	first *pass
}

func spawnFiguresChild(ctx context.Context, parallelism int) (*figuresChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &figuresChild{}
	c.cmd = exec.CommandContext(ctx, self, "-figures-child", "-parallelism", strconv.Itoa(parallelism))
	c.cmd.Stderr = os.Stderr
	dieWithParent(c.cmd)
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(stdout)
	start := now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	if c.first, err = c.read(); err != nil {
		c.stop()
		return nil, fmt.Errorf("figures child set-up: %w", err)
	}
	c.setup = now().Sub(start)
	return c, nil
}

func (c *figuresChild) read() (*pass, error) {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var p pass
	if err := json.Unmarshal(line, &p); err != nil {
		return nil, err
	}
	if p.Error != "" {
		return nil, fmt.Errorf("pass failed: %s", p.Error)
	}
	return &p, nil
}

// pass asks the child for one more pass and times it from outside.
func (c *figuresChild) pass() (*pass, time.Duration, error) {
	start := now()
	if _, err := io.WriteString(c.stdin, "pass\n"); err != nil {
		return nil, 0, err
	}
	p, err := c.read()
	return p, now().Sub(start), err
}

// stop closes the child's input (its signal to exit) and waits for it;
// a child that is mid-pass is killed instead.
func (c *figuresChild) stop() {
	_ = c.stdin.Close()
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait() // the kill is the expected exit status
}

// runFiguresBatch is one run of the figures_batch workload.
func runFiguresBatch(ctx context.Context, cfg runConfig) (*workloadResult, error) {
	if cfg.trace {
		return traceFiguresBatch(cfg)
	}
	res := &workloadResult{Workload: figuresBatch, Correct: true, WindowOps: figuresWinPasses}
	var setups []float64
	var c *figuresChild
	var err error
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.stop()
		}
		if c, err = spawnFiguresChild(ctx, cfg.clients); err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
	}
	defer c.stop()
	want := c.first

	// A few warm-up passes, then measured passes until the budget is
	// spent. A pass that renders different artifacts is a failed op.
	budget := time.Duration(cfg.seconds) * time.Second
	var measured segment
	for i := 0; ; i++ {
		if i == figuresWarmPasses {
			measured.start = now()
		}
		if i >= figuresWarmPasses && now().Sub(measured.start) >= budget {
			break
		}
		res.Attempted++
		p, wall, err := c.pass()
		if err != nil {
			return nil, err
		}
		s := sample{total: wall, end: now()}
		if p.Hash != want.Hash || p.SimNS != want.SimNS {
			res.Failed++
			res.fail("pass %d rendered different artifacts (hash %s, first pass %s)", res.Attempted, p.Hash, want.Hash)
			s.err = errors.New("artifacts differ")
		}
		if i >= figuresWarmPasses {
			measured.samples = append(measured.samples, s)
		}
	}
	windows := measured.windows(figuresWinPasses)
	res.Windows = len(windows)
	if len(windows) == 0 {
		res.fail("the measured stretch is shorter than one window of %d passes", figuresWinPasses)
	}
	peak, err := procStatusMB(c.cmd.Process.Pid, "VmHWM")
	if err != nil {
		res.fail("sweep child peak RSS: %v", err)
	}

	// The same artifacts must come out of the serial path.
	serial, err := spawnFiguresChild(ctx, 1)
	if err != nil {
		return nil, err
	}
	serial.stop()
	if serial.first.Hash != want.Hash {
		res.fail("artifacts differ between parallelism 1 (%s) and %d (%s)", serial.first.Hash, cfg.clients, want.Hash)
	}

	m := newMetricSet(endToEndMetrics)
	m.set("setup_s", median(setups))
	m.setWindows("ops_per_s", perWindow(windows, func(w *window) float64 { return float64(len(w.samples)) / w.span.Seconds() }))
	m.setWindows("op_p50_ms", perWindow(windows, func(w *window) float64 { return median(w.latencies(total)) }))
	// Four passes cannot carry a 95th percentile; it is taken over
	// longer windows (one sample beyond it, the most a run affords).
	tail := measured.windows(figuresTailPasses)
	if len(tail) == 0 {
		tail = []window{{samples: measured.samples}}
	}
	m.setWindows("op_p95_ms", perWindow(tail, func(w *window) float64 { return percentile(w.latencies(total), 0.95) }))
	m.set("sim_ms_per_op", float64(want.SimNS)/1e6)
	m.set("paper_ratio_err_max_pct", ratioErrMaxPct(want.Ratios))
	m.set("peak_rss_mb", peak)
	res.EndToEnd = m.complete()
	return res, nil
}
