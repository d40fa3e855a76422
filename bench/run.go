package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/sql"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	// clients is C = min(nproc, 4): the daemon's worker count, the
	// number of closed-loop clients, and the sweep's parallelism.
	clients int
}

func defaultClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// setupRepeats is how many times a run sets its program up; setup_s is
// the median, so one slow spawn cannot move it.
const setupRepeats = 3

// replayOps is how many leading ops the serial in-process replay (and
// the ladder) covers.
const replayOps = 64

// workloadResult is everything one run of one workload produced.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Windows is how many sliding windows of WindowOps consecutive ops
	// the measured stretch yielded; wall-clock metrics report the best.
	Windows   int               `json:"windows"`
	WindowOps int               `json:"window_ops"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Ladder    []ladderRow       `json:"ladder,omitempty"`
}

// fail records one violation; every violation makes the run incorrect.
func (r *workloadResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// paperQ6PAX is the paper's Figure 3 speedup of the Smart SSD with PAX
// pages over the host path for TPC-H Q6.
const paperQ6PAX = 1.7

// q6RatioErrPct measures the one paper ratio the daemon's dataset
// supports — Q6 on PAX lineitem, device against host — in-process, and
// reports its error against the paper in percent. It is a virtual-clock
// value: it repeats exactly and moves only when the model does.
func q6RatioErrPct(e *core.Engine) (float64, error) {
	c, err := sql.Compile(sql.EngineCatalog{E: e}, q6Params{year: 1994, disc: 6, qty: 2400}.sql())
	if err != nil {
		return 0, err
	}
	host, err := e.Run(c.Spec, core.ForceHost)
	if err != nil {
		return 0, err
	}
	dev, err := e.Run(c.Spec, core.ForceDevice)
	if err != nil {
		return 0, err
	}
	ratio := float64(host.Elapsed) / float64(dev.Elapsed)
	return 100 * math.Abs(ratio-paperQ6PAX) / paperQ6PAX, nil
}

// driven is the measured part of a daemon run.
type driven struct {
	// measured is everything after the warm-up, as one segment.
	measured segment
	windows  []window
	sent     int64 // sessions attempted, warm-up included
	failed   int64
	walFull  int64
	first    error
	clients  []*client
	// Bytes sent and received during the warm-up's warmOps sessions.
	warmReqBytes, warmRspBytes int64
}

// drive runs the warm-up ops (checked, not timed) and then hands out
// the rest of the list until the budget is spent or the list runs out.
// The measured stretch has no barriers; the wall-clock metrics are
// taken over sliding windows of def.winOps consecutive completions.
func drive(url string, list *opList, expect map[*op]*expectation, cfg runConfig, budget time.Duration, cpu func() time.Duration) *driven {
	d := &driven{}
	for i := 0; i < cfg.clients; i++ {
		d.clients = append(d.clients, newClient(url))
	}
	count := func(seg *segment) {
		failed, walFull, first := seg.failures()
		d.sent += int64(len(seg.samples))
		d.failed += int64(failed)
		d.walFull += int64(walFull)
		if d.first == nil {
			d.first = first
		}
	}
	warm := list.def.warmOps
	warmup := runSegment(d.clients, list.ops[:warm], expect, time.Time{}, cpu)
	count(&warmup)
	// Traffic per op is taken over the warm-up: a fixed set of ops, so
	// the figure repeats exactly where a timed stretch's would not.
	for _, c := range d.clients {
		d.warmReqBytes += c.reqBytes
		d.warmRspBytes += c.rspBytes
	}
	// A daemon that fails its warm-up would only fail more slowly
	// under the clock.
	if d.failed == 0 {
		d.measured = runSegment(d.clients, list.ops[warm:], expect, now().Add(budget), cpu)
		count(&d.measured)
		d.windows = d.measured.windows(list.def.winOps)
	}
	for _, c := range d.clients {
		c.http.CloseIdleConnections()
	}
	return d
}

// perWindow maps every window to one number.
func perWindow(ws []window, f func(*window) float64) []float64 {
	out := make([]float64, len(ws))
	for i := range ws {
		out[i] = f(&ws[i])
	}
	return out
}

func total(s *sample) time.Duration { return s.total }

// runDaemonWorkload is one run of a daemon workload: set up, check,
// measure, reconcile.
func runDaemonWorkload(ctx context.Context, def *workloadDef, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{Workload: def.name, Correct: true, WindowOps: def.winOps}
	bin, err := buildDaemon(ctx)
	if err != nil {
		return nil, err
	}

	// Set-up, several times over: spawn → first answer.
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		if d, err = spawnDaemon(bin, cfg.clients); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.stop()

	// The in-process twin: oracle for every distinct request, and the
	// serial replay that yields the simulated-time metric. All of it
	// happens while the daemon sits idle.
	list := generate(def, cfg.seed, def.maxOps, daemonSF)
	b, err := loadBackends(daemonSF)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(b)
	if err != nil {
		return nil, err
	}
	expect := make(map[*op]*expectation, len(list.distinct))
	for _, p := range list.distinct {
		if expect[p], err = orc.expect(p); err != nil {
			return nil, err
		}
	}
	simMSPerOp, err := replay(b, orc, list.ops[:replayOps])
	if err != nil {
		return nil, err
	}
	ratioErr, err := q6RatioErrPct(orc.probe)
	if err != nil {
		return nil, err
	}

	pid := d.cmd.Process.Pid
	cpu := func() time.Duration {
		t, _ := procCPU(pid) // a vanished daemon shows up as failed sessions
		return t
	}
	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		// The traced run needs the daemon only for the few per-layer
		// numbers a client or the kernel must observe; the ladder
		// takes the rest of the time.
		budget /= 4
	} else {
		// Nothing below needs the twin any more; give its memory back
		// so the client side of the measurement runs on a small heap.
		b, orc = nil, nil
		runtime.GC()
	}
	run := drive(d.url, list, expect, cfg, budget, cpu)
	res.Attempted, res.Failed, res.Windows = run.sent, run.failed, len(run.windows)
	if run.first != nil {
		res.fail("%d of %d sessions failed; first: %v", run.failed, run.sent, run.first)
	}
	if run.walFull > 0 {
		res.fail("%d sessions reported %q", run.walFull, walFullMarker)
	}
	if len(run.windows) == 0 {
		res.fail("the measured stretch is shorter than one window of %d ops", def.winOps)
	}
	stats, err := fetchSessionStats(d.url)
	if err != nil {
		res.fail("GET /metrics: %v", err)
	} else if err := stats.reconcile(run.sent); err != nil {
		res.fail("%v", err)
	}
	peak, err := procStatusMB(pid, "VmHWM")
	if err != nil {
		res.fail("daemon peak RSS: %v", err)
	}

	if !cfg.trace {
		m := newMetricSet(endToEndMetrics)
		m.set("setup_s", median(setups))
		m.setWindows("ops_per_s", perWindow(run.windows, func(w *window) float64 {
			return float64(len(w.samples)) / w.span.Seconds()
		}))
		m.setWindows("op_p50_ms", perWindow(run.windows, func(w *window) float64 {
			return median(w.latencies(total))
		}))
		m.setWindows("op_p95_ms", perWindow(run.windows, func(w *window) float64 {
			return percentile(w.latencies(total), 0.95)
		}))
		m.set("sim_ms_per_op", simMSPerOp)
		m.set("paper_ratio_err_max_pct", ratioErr)
		m.set("peak_rss_mb", peak)
		res.EndToEnd = m.complete()
		return res, nil
	}

	m := newMetricSet(perLayerMetrics)
	runLayerMetrics(m, run, stats, d, cfg, def.warmOps)
	lad, err := runLadder(b, orc, list.ops[:replayOps], m, cfg.clients)
	if err != nil {
		return nil, err
	}
	if err := layerMicros(m, b); err != nil {
		return nil, err
	}
	res.Ladder = lad.rows
	if err := lad.writeTrace(def.name); err != nil {
		return nil, err
	}
	res.PerLayer = m.complete()
	return res, nil
}

// runLayerMetrics fills the per-layer metrics only a client or the
// kernel can observe, from the measured daemon run.
func runLayerMetrics(m *metricSet, run *driven, stats sessionStats, d *daemon, cfg runConfig, warmOps int) {
	phase := func(pick func(*sample) time.Duration) []float64 {
		return perWindow(run.windows, func(w *window) float64 { return median(w.latencies(pick)) })
	}
	m.setWindows("http.open_ms", phase(func(s *sample) time.Duration { return s.open }))
	m.setWindows("http.get_ms", phase(func(s *sample) time.Duration { return s.get }))
	m.setWindows("http.close_ms", phase(func(s *sample) time.Duration { return s.close }))
	// The kernel's CPU clock ticks every 10 ms, too coarse for a
	// window: both CPU metrics cover the whole measured stretch.
	// Utilisation is CPU seconds over wall seconds times C; about 1/C
	// marks a run that is serialised whatever the client count.
	if n := len(run.measured.samples); n > 0 {
		m.set("daemon.cpu_ms_per_op", ms(run.measured.cpu)/float64(n))
		m.set("daemon.cpu_util", run.measured.cpu.Seconds()/(run.measured.wall.Seconds()*float64(cfg.clients)))
	}
	m.set("daemon.rss_ready_mb", d.readyRSSMB)
	m.set("http.req_bytes_per_op", float64(run.warmReqBytes)/float64(warmOps))
	m.set("http.resp_bytes_per_op", float64(run.warmRspBytes)/float64(warmOps))
	m.set("serve.rejected", float64(stats.Rejected))
	m.set("serve.failed", float64(stats.Failed))
	m.set("serve.evicted", float64(stats.Evicted))
	m.set("wal.log_full", float64(run.walFull))

	var auto, pushed int
	for _, s := range run.measured.samples {
		if s.op.class == "sql_auto" && s.err == nil {
			auto++
			if s.placement == core.RanDevice.String() {
				pushed++
			}
		}
	}
	if auto > 0 {
		m.set("opt.pushdown_ratio", float64(pushed)/float64(auto))
	}
}
