package main

// metricDef names one metric. The two tables below are the benchmark's
// vocabulary: BENCHMARK.json repeats them for the acceptance driver (a
// test keeps the two in step) and README.md says what each should move.
type metricDef struct {
	name, unit string
	// higher reports whether a larger value is better.
	higher bool
	// bound is the share of the baseline by which an end-to-end metric
	// may worsen before it counts as a regression (0 for per-layer
	// metrics, which have none).
	bound float64
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.15},
	{"op_p50_ms", "ms", false, 0.15},
	{"op_p95_ms", "ms", false, 0.25},
	{"sim_ms_per_op", "sim_ms", false, 0.01},
	{"paper_ratio_err_max_pct", "%", false, 0.01},
	{"peak_rss_mb", "MB", false, 0.10},
}

var perLayerMetrics = []metricDef{
	// http: the three round trips of the session protocol.
	{"http.open_ms", "ms", false, 0},
	{"http.get_ms", "ms", false, 0},
	{"http.close_ms", "ms", false, 0},
	{"http.session_ms", "ms", false, 0},
	{"http.self_ms", "ms", false, 0},
	{"http.req_bytes_per_op", "B", false, 0},
	{"http.resp_bytes_per_op", "B", false, 0},
	// daemon: the spawned process as the kernel sees it.
	{"daemon.cpu_ms_per_op", "ms", false, 0},
	{"daemon.cpu_util", "ratio", true, 0},
	{"daemon.rss_ready_mb", "MB", false, 0},
	// serve: handler, decode, session table, result encoding.
	{"serve.handler_ms", "ms", false, 0},
	{"serve.decode_us", "us", false, 0},
	{"serve.decode_allocs", "count", false, 0},
	{"serve.self_ms", "ms", false, 0},
	{"serve.rejected", "count", false, 0},
	{"serve.failed", "count", false, 0},
	{"serve.evicted", "count", false, 0},
	// sql and expr: the two front ends.
	{"sql.parse_us", "us", false, 0},
	{"sql.compile_us", "us", false, 0},
	{"sql.bind_us", "us", false, 0},
	{"sql.compile_allocs", "count", false, 0},
	{"expr.parse_us", "us", false, 0},
	{"expr.compile_batch_us", "us", false, 0},
	{"expr.select_ns_per_row", "ns", false, 0},
	// opt: the pushdown planner.
	{"opt.decide_us", "us", false, 0},
	{"opt.pushdown_ratio", "ratio", true, 0},
	{"opt.agree_ratio", "ratio", true, 0},
	// core: routing a query to a placement and running it.
	{"core.run_ms", "ms", false, 0},
	{"core.run_host_ms", "ms", false, 0},
	{"core.run_device_ms", "ms", false, 0},
	{"core.run_hybrid_ms", "ms", false, 0},
	{"core.run_cluster_ms", "ms", false, 0},
	{"core.update_ms", "ms", false, 0},
	{"core.self_ms", "ms", false, 0},
	{"core.run_allocs", "count", false, 0},
	{"core.run_alloc_kb", "kB", false, 0},
	{"core.clone_ms", "ms", false, 0},
	{"core.load_rows_per_s", "1/s", true, 0},
	{"core.durable_writes_per_update", "count", false, 0},
	// exec and device: the host executor and the in-device program.
	{"exec.collect_ms", "ms", false, 0},
	{"exec.ns_per_row", "ns", false, 0},
	{"exec.self_ms", "ms", false, 0},
	{"exec.cpu_cycles_per_row", "count", false, 0},
	{"exec.host_cpu_sim_util", "ratio", false, 0},
	{"device.run_ms", "ms", false, 0},
	{"device.ns_per_row", "ns", false, 0},
	{"device.self_ms", "ms", false, 0},
	{"device.gets_per_op", "count", false, 0},
	{"device.cpu_sim_util", "ratio", false, 0},
	// page, heap (with bufpool, ssd, ftl, nand below it) and sim.
	{"page.bind_ns_per_page", "ns", false, 0},
	{"page.decode_ns_per_row_pax", "ns", false, 0},
	{"page.decode_ns_per_row_nsm", "ns", false, 0},
	{"heap.scan_ms", "ms", false, 0},
	{"heap.scan_ns_per_page", "ns", false, 0},
	{"bufpool.hit_ratio", "ratio", true, 0},
	{"sim.serve_ns", "ns", false, 0},
	{"sim.calls_per_op", "count", false, 0},
	{"sim.est_ms_per_op", "ms", false, 0},
	// The modelled device: simulated traffic and utilisation.
	{"ssd.flash_mb_per_op", "MB", false, 0},
	{"hostif.link_mb_per_op", "MB", false, 0},
	{"ssd.dma_sim_util", "ratio", false, 0},
	{"hostif.link_sim_util", "ratio", false, 0},
	{"nand.channel_sim_util", "ratio", false, 0},
	{"ftl.host_writes_per_update", "count", false, 0},
	// wal and txn: the write path.
	{"wal.log_full", "count", false, 0},
	{"wal.ack_sim_ms", "sim_ms", false, 0},
	{"txn.rows_per_update", "count", false, 0},
	// runner and experiments: the paper sweep.
	{"runner.par_speedup", "x", true, 0},
	{"experiments.fig3_ms", "ms", false, 0},
	{"experiments.fig5_ms", "ms", false, 0},
	{"experiments.fig7_ms", "ms", false, 0},
	{"experiments.table3_ms", "ms", false, 0},
	{"experiments.pass_alloc_mb", "MB", false, 0},
	{"experiments.table2_x", "x", true, 0},
	{"experiments.q6_nsm_x", "x", true, 0},
	{"experiments.q6_pax_x", "x", true, 0},
	{"experiments.join_sel1_x", "x", true, 0},
	{"experiments.q14_pax_x", "x", true, 0},
	{"experiments.energy_hdd_x", "x", true, 0},
	{"experiments.energy_ssd_x", "x", true, 0},
	// tpch, the Go runtime, and the tracing itself.
	{"tpch.gen_rows_per_s", "1/s", true, 0},
	{"go.alloc_kb_per_op", "kB", false, 0},
	{"go.gc_cycles_per_kop", "count", false, 0},
	{"trace.spans_per_op", "count", false, 0},
	{"trace.overhead_us_per_op", "us", false, 0},
}

// metric is one reported value. Windows carries the distribution over
// the run's sliding windows for wall-clock metrics of the measured run;
// the acceptance driver's result line omits it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Windows *dist   `json:"windows,omitempty"`
}

// metricSet collects values under the names of one table and refuses
// names the table does not define, so a typo cannot invent a metric.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

func (s *metricSet) def(name string) metricDef {
	for _, d := range s.defs {
		if d.name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// set records an exact or whole-run value.
func (s *metricSet) set(name string, v float64) {
	s.values[name] = metric{Value: v, Unit: s.def(name).unit}
}

// setWindows records the best window's value, keeping the distribution
// over windows beside it.
func (s *metricSet) setWindows(name string, perWindow []float64) {
	d := s.def(name)
	sum := summarise(perWindow, d.higher)
	s.values[name] = metric{Value: sum.Best, Unit: d.unit, Windows: &sum}
}

// complete fills every metric the run did not measure with zero: the
// acceptance driver wants every per-layer name on every workload, and
// a layer a workload never enters has done no work.
func (s *metricSet) complete() map[string]metric {
	for _, d := range s.defs {
		if _, ok := s.values[d.name]; !ok {
			s.values[d.name] = metric{Unit: d.unit}
		}
	}
	return s.values
}
