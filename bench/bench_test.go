package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"smartssd/internal/experiments"
	"smartssd/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	one20 := make([]float64, 20)
	for i := range one20 {
		one20[19-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{one20, 0.95, 19},
		{one20, 0.50, 10},
		{one20, 1.00, 20},
		{[]float64{4, 1, 3, 2}, 0.50, 2},
		{[]float64{7}, 0.95, 7},
		{nil, 0.95, 0},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if one20[0] != 20 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median and
	// statistics.quantiles(xs, n=4) from Python 3.
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{129.6, 131.9, 138.6, 131.1, 130.8, 158.8}, 131.5, 130.5, 143.65},
		{[]float64{5}, 5, 5, 5},
	} {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummariseBestSegment(t *testing.T) {
	segs := []float64{131.9, 129.6, 158.8, 131.1}
	if d := summarise(segs, true); d.Best != 158.8 || d.Samples != 4 {
		t.Errorf("higher-is-better best = %+v", d)
	}
	d := summarise(segs, false)
	if d.Best != 129.6 {
		t.Errorf("lower-is-better best = %+v", d)
	}
	if want := (d.Q3 - d.Q1) / d.Median; !near(d.spread(), want) {
		t.Errorf("spread = %v, want %v", d.spread(), want)
	}
	if d := summarise(nil, true); d.Best != 0 || d.Samples != 0 {
		t.Errorf("empty summary = %+v", d)
	}
}

func TestSlidingWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	// Ten sessions completing every 10 ms, recorded out of order (two
	// clients interleave), one of them failed.
	seg := segment{start: t0}
	for _, i := range []int{2, 1, 4, 3, 6, 5, 8, 7, 10, 9} {
		s := sample{end: at(10 * i), total: time.Duration(i) * time.Millisecond}
		if i == 5 {
			s.err = os.ErrInvalid
		}
		seg.samples = append(seg.samples, s)
	}
	ws := seg.windows(4) // stride 1 over the nine successful sessions
	if len(ws) != 6 {
		t.Fatalf("%d windows, want 6", len(ws))
	}
	// Window 0 runs from the segment's start to the 4th completion.
	if got := ws[0].span; got != 40*time.Millisecond {
		t.Errorf("first window spans %v, want 40ms", got)
	}
	if got := ws[0].latencies(total); !near(got[0], 1) || !near(got[3], 4) {
		t.Errorf("first window latencies %v, want 1..4", got)
	}
	// Window 2 holds completions 3,4,6,7 (5 failed) and starts at the
	// completion before it: 70ms - 20ms.
	if got := ws[2].span; got != 50*time.Millisecond {
		t.Errorf("third window spans %v, want 50ms", got)
	}
	if got := ws[2].latencies(total); !near(got[2], 6) {
		t.Errorf("third window latencies %v skip no failed session", got)
	}
	if len(seg.windows(10)) != 0 {
		t.Error("a window longer than the successful sessions")
	}
}

func TestOpListDeterminism(t *testing.T) {
	for _, def := range daemonWorkloads {
		for _, n := range []int{def.warmOps, def.winOps, def.maxOps} {
			if n <= 0 || n%len(def.classes) != 0 {
				t.Errorf("%s: %d ops do not hold a whole number of %d-class cycles", def.name, n, len(def.classes))
			}
		}
		n := 4 * def.warmOps
		a := generate(def, 7, n, daemonSF)
		b := generate(def, 7, n, daemonSF)
		c := generate(def, 8, n, daemonSF)
		differs := false
		for i := 0; i < n; i++ {
			if !bytes.Equal(a.ops[i].body, b.ops[i].body) {
				t.Fatalf("%s: op %d differs between two generations with one seed", def.name, i)
			}
			if !bytes.Equal(a.ops[i].body, c.ops[i].body) {
				differs = true
			}
			want := def.classes[i%len(def.classes)]
			if a.ops[i].class != want || c.ops[i].class != want {
				t.Fatalf("%s: op %d has class %q/%q, pattern says %q",
					def.name, i, a.ops[i].class, c.ops[i].class, want)
			}
			if !json.Valid(a.ops[i].body) {
				t.Fatalf("%s: op %d body is not JSON: %s", def.name, i, a.ops[i].body)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 drew identical parameters", def.name)
		}
		// Interning: equal bodies share one op, distinct holds each once.
		seen := make(map[string]*op)
		for _, p := range a.ops {
			if prior, ok := seen[string(p.body)]; ok && prior != p {
				t.Fatalf("%s: two ops with one body", def.name)
			}
			seen[string(p.body)] = p
		}
		if len(seen) != len(a.distinct) {
			t.Errorf("%s: %d distinct bodies, distinct lists %d", def.name, len(seen), len(a.distinct))
		}
	}
}

// TestLadderArithmetic feeds the attribution synthetic rungs, one op of
// every kind, including a child that outruns its parent.
func TestLadderArithmetic(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	kinds := []string{"host", "device", "hybrid", "cluster", "update", "explain"}
	l := &ladder{ops: make([]*op, len(kinds)), facts: make([]opFacts, len(kinds)), rung: make(map[string][]time.Duration)}
	for i, k := range kinds {
		l.ops[i] = &op{class: k}
		l.facts[i] = opFacts{kind: k, hybridFrac: 0.4}
	}
	set := func(name string, v ...int) {
		ds := make([]time.Duration, len(v))
		for i, x := range v {
			ds[i] = us(x)
		}
		l.rung[name] = ds
	}
	//                   host  device hybrid cluster update explain
	set(rungSession, 5000, 4500, 5200, 9000, 14000, 300)
	set(rungHandler, 4600, 4200, 4900, 8500, 13500, 320) // explain: child outruns parent
	set(rungDecode, 20, 20, 20, 25, 20, 15)
	set(rungCompile, 0, 0, 0, 18, 0, 12)
	set(rungParse, 0, 0, 0, 8, 0, 5)
	set(rungExprParse, 6, 6, 6, 0, 6, 0)
	set(rungRun, 4400, 4000, 4700, 8000, 13300, 10)
	set(rungDecide, 25, 25, 25, 0, 0, 0)
	set(rungCollect, 3200, 0, 2000, 0, 0, 0)
	set(rungDevice, 0, 3500, 1500, 7800, 0, 0)
	set(rungScan, 350, 350, 350, 300, 0, 0)
	set(rungPage, 1900, 1900, 1900, 2500, 0, 0)
	set(rungSelect, 400, 1400, 400, 300, 0, 0) // device op: children outrun device.run
	l.attribute()

	var sum float64
	for _, r := range l.rows {
		if r.SelfMS < 0 {
			t.Errorf("layer %s has negative self time %v", r.Layer, r.SelfMS)
		}
		if r.Layer != "(clamped)" {
			sum += r.SelfMS
		}
	}
	session := l.mean(rungSession)
	// Clamping replaces a negative self time by zero, so the rows
	// overshoot the root by exactly the clamped amount.
	if !near(sum-l.clampedMS, session) {
		t.Errorf("self times sum to %v with %v clamped; http.session is %v", sum, l.clampedMS, session)
	}
	// The explain op's handler outran its session by 20us and the
	// device op's children outran device.run by 150us.
	if want := (0.020 + 0.150) / float64(len(kinds)); !near(l.clampedMS, want) {
		t.Errorf("clamped %v ms per op, want %v", l.clampedMS, want)
	}
	if got := l.selfOf("opt"); !near(got, 0.075/float64(len(kinds))) {
		t.Errorf("opt self = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	tight := &dist{Median: 100, Q1: 99, Q3: 101}
	wide := &dist{Median: 100, Q1: 90, Q3: 110}
	for _, c := range []struct {
		name   string
		a, b   metric
		higher bool
		bound  float64
		want   string
	}{
		{"throughput within bound", metric{Value: 100, Windows: tight}, metric{Value: 95, Windows: tight}, true, 0.10, "ok"},
		{"throughput worse", metric{Value: 100, Windows: tight}, metric{Value: 85, Windows: tight}, true, 0.10, "worse"},
		{"throughput better", metric{Value: 100, Windows: tight}, metric{Value: 150, Windows: tight}, true, 0.10, "ok"},
		{"latency worse", metric{Value: 10, Windows: tight}, metric{Value: 11.5, Windows: tight}, false, 0.10, "worse"},
		{"latency better", metric{Value: 10, Windows: tight}, metric{Value: 5, Windows: tight}, false, 0.10, "ok"},
		{"spread wider than bound", metric{Value: 100, Windows: wide}, metric{Value: 99, Windows: tight}, true, 0.10, "unresolved"},
		{"exact metric unchanged", metric{Value: 21.7}, metric{Value: 21.7}, false, 0.01, "ok"},
		{"exact metric moved", metric{Value: 21.7}, metric{Value: 22.7}, false, 0.01, "worse"},
	} {
		if _, got := verdict(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSessionStatsReconcile(t *testing.T) {
	ok := sessionStats{Opened: 40, Completed: 40, Closed: 40}
	if err := ok.reconcile(40); err != nil {
		t.Errorf("clean counters: %v", err)
	}
	for _, bad := range []sessionStats{
		{Opened: 40, Completed: 39, Failed: 1, Closed: 40},
		{Opened: 40, Completed: 40, Closed: 40, Rejected: 1},
		{Opened: 40, Completed: 40, Closed: 39},
		{Opened: 41, Completed: 41, Closed: 41},
	} {
		if err := bad.reconcile(40); err == nil {
			t.Errorf("%+v reconciled with 40 sent", bad)
		}
	}
}

func TestCheckRejectsWrongAnswers(t *testing.T) {
	x := &expectation{rows: "[42]", elapsedNS: 1000}
	good := []byte(`{"state":"DONE","rows":[[42]],"elapsed_ns":1000}`)
	if _, err := x.check(200, good); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		status int
		body   string
	}{
		{"wrong row", 200, `{"state":"DONE","rows":[[43]],"elapsed_ns":1000}`},
		{"wrong elapsed", 200, `{"state":"DONE","rows":[[42]],"elapsed_ns":1001}`},
		{"failed", 500, `{"state":"FAILED","error":"wal: log region full"}`},
		{"not done", 200, `{"state":"OPEN","rows":[[42]],"elapsed_ns":1000}`},
		{"garbage", 200, `not json`},
	} {
		if _, err := x.check(c.status, []byte(c.body)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	grouped := &expectation{rows: canonRows([]string{`["A",1]`, `["B",2]`}, true), sorted: true, elapsedNS: -1}
	if _, err := grouped.check(200, []byte(`{"state":"DONE","rows":[["B",2],["A",1]]}`)); err != nil {
		t.Errorf("grouped rows in another order rejected: %v", err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables keeps BENCHMARK.json, which the acceptance
// driver reads, in step with the metric and workload tables the harness
// reports from, and inside the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v", man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", man.RunSeconds)
	}
	names := workloadNames()
	if len(man.Workloads) != len(names) {
		t.Fatalf("%d workloads in the manifest, %d in the harness", len(man.Workloads), len(names))
	}
	for i, w := range man.Workloads {
		if w.Name != names[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, harness has %q", i, w, names[i])
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the table", kind, len(got), len(want))
		}
		used := make(map[string]bool)
		for i, g := range got {
			w := want[i]
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s %d: manifest %+v, table %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || used[g.Name] {
				t.Errorf("%s %q (unit %q) breaks the naming rules or repeats", kind, g.Name, g.Unit)
			}
			used[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound > 0.25 || *g.Bound <= 0):
				t.Errorf("%s %q: bound %v, table %v", kind, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEndMetrics, true)
	check("per_layer", man.PerLayer, perLayerMetrics, false)
	if len(man.PerLayer) > 128 || len(man.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(man.EndToEnd), len(man.PerLayer))
	}
	var setup *entry
	for i := range man.EndToEnd {
		if man.EndToEnd[i].Name == "setup_s" {
			setup = &man.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s entry = %+v", setup)
	}
}

// TestSmoke drives one 20-op segment of every daemon workload at an
// in-process server loaded at scale factor 0.002, through the same
// generator, oracle, clients and reconciliation as a real run, and
// renders two passes of the paper sweep at its smallest size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a server and the sweep's datasets")
	}
	const sf = 0.002
	const segOps = 20
	noCPU := func() time.Duration { return 0 }
	for _, def := range daemonWorkloads {
		// A server of its own per workload, as in a real run: what
		// EXPLAIN answers depends on what the worker ran before it.
		b, err := loadBackends(sf)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(serve.Config{Workers: 2, QueueCapacity: 4}, b.engine, b.cluster)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		orc, err := newOracle(b)
		if err != nil {
			t.Fatal(err)
		}
		list := generate(def, 3, segOps, sf)
		expect := make(map[*op]*expectation)
		for _, p := range list.distinct {
			if expect[p], err = orc.expect(p); err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
		}
		clients := []*client{newClient(ts.URL), newClient(ts.URL)}
		seg := runSegment(clients, list.ops, expect, time.Time{}, noCPU)
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
		if failed, walFull, first := seg.failures(); failed != 0 || walFull != 0 {
			t.Errorf("%s: %d of %d sessions failed (%d with a full log); first: %v",
				def.name, failed, len(seg.samples), walFull, first)
		}
		if ws := seg.windows(segOps / 2); len(seg.samples) != segOps || len(ws) != 6 || len(ws[5].latencies(total)) != segOps/2 {
			t.Errorf("%s: %d samples and %d half-length windows for %d ops", def.name, len(seg.samples), len(ws), segOps)
		}
		stats, err := fetchSessionStats(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.reconcile(segOps); err != nil {
			t.Errorf("%s: %v", def.name, err)
		}
		if _, err := replay(b, orc, list.ops); err != nil {
			t.Errorf("%s: %v", def.name, err)
		}
		ts.Close()
		srv.Close()
	}

	suite := experiments.NewSuite(experiments.Options{SF: sf, SynthR: 50, Seed: 1, Parallelism: 1})
	defer suite.Close()
	first, err := runPass(suite, 2.85, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runPass(suite, 2.85, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	if first.Hash != second.Hash || first.SimNS != second.SimNS || first.SimNS == 0 {
		t.Errorf("two passes differ: %s/%d vs %s/%d", first.Hash, first.SimNS, second.Hash, second.SimNS)
	}
	if e := ratioErrMaxPct(first.Ratios); e <= 0 || e > 50 {
		t.Errorf("paper ratio error %v%% at the smallest scale", e)
	}
}
