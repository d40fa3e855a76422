package experiments

import (
	"strings"
	"testing"
)

// The shape targets from the paper. These tests are the repository's
// headline claim: the simulated system reproduces §4's results.

func testOptions() Options {
	return Options{SF: 0.02, SynthR: 800, Seed: 1}
}

func TestFig1Shape(t *testing.T) {
	r := Fig1()
	if len(r.Points) < 8 {
		t.Fatalf("trend has %d points", len(r.Points))
	}
	last := r.Points[len(r.Points)-1]
	if last.InternalRel() < 9 {
		t.Errorf("2016 internal relative = %.1f, want about 10", last.InternalRel())
	}
	if !strings.Contains(r.Render(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestTable2Shape(t *testing.T) {
	rep, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HostMBps < 520 || rep.HostMBps > 560 {
		t.Errorf("host bandwidth = %.0f, want about 550", rep.HostMBps)
	}
	if rep.InternalMBps < 1490 || rep.InternalMBps > 1570 {
		t.Errorf("internal bandwidth = %.0f, want about 1560", rep.InternalMBps)
	}
	if rep.Ratio < 2.6 || rep.Ratio > 3.0 {
		t.Errorf("ratio = %.2f, want about 2.8", rep.Ratio)
	}
}

func TestFig3Shape(t *testing.T) {
	rep, err := Fig3(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	pax := rep.Runs[2].Speedup
	nsm := rep.Runs[1].Speedup
	// Paper: PAX 1.7x over the SSD; NSM in between.
	if pax < 1.5 || pax > 1.9 {
		t.Errorf("Q6 PAX speedup = %.2fx, want about 1.7x", pax)
	}
	if nsm <= 1.0 || nsm >= pax {
		t.Errorf("Q6 NSM speedup = %.2fx, want between 1x and PAX's %.2fx", nsm, pax)
	}
	if rep.Q6Sum <= 0 {
		t.Error("Q6 answer not positive")
	}
	// The Smart SSD runs are CPU-bound (the paper's saturation story).
	if rep.Runs[2].Bottleneck != "device-cpu" {
		t.Errorf("PAX bottleneck = %q, want device-cpu", rep.Runs[2].Bottleneck)
	}
	if rep.Runs[0].Bottleneck != "host-link" {
		t.Errorf("host bottleneck = %q, want host-link", rep.Runs[0].Bottleneck)
	}
}

func TestFig5Shape(t *testing.T) {
	rep, err := Fig5(testOptions(), []int64{1, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	first, last := rep.Points[0], rep.Points[2]
	// Paper: up to 2.2x at 1% selectivity.
	if first.SpeedupPAX < 1.9 || first.SpeedupPAX > 2.5 {
		t.Errorf("1%% PAX speedup = %.2fx, want about 2.2x", first.SpeedupPAX)
	}
	// Paper: saturated (about parity or worse) at 100%.
	if last.SpeedupPAX > 1.15 {
		t.Errorf("100%% PAX speedup = %.2fx, want about 1x (saturated)", last.SpeedupPAX)
	}
	// Speedup decreases with selectivity.
	if !(first.SpeedupPAX > rep.Points[1].SpeedupPAX && rep.Points[1].SpeedupPAX > last.SpeedupPAX) {
		t.Errorf("PAX speedups not monotone: %.2f %.2f %.2f",
			first.SpeedupPAX, rep.Points[1].SpeedupPAX, last.SpeedupPAX)
	}
	// Result row counts grow with selectivity.
	if !(first.ResultRows < rep.Points[1].ResultRows && rep.Points[1].ResultRows < last.ResultRows) {
		t.Error("result rows not growing with selectivity")
	}
}

func TestFig7Shape(t *testing.T) {
	rep, err := Fig7(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	pax := rep.Runs[2].Speedup
	// Paper: 1.3x — lower than Q6's 1.7x because of the per-page compute.
	if pax < 1.15 || pax > 1.5 {
		t.Errorf("Q14 PAX speedup = %.2fx, want about 1.3x", pax)
	}
	if rep.PromoPct <= 0 || rep.PromoPct >= 100 {
		t.Errorf("promo revenue = %.2f%%, want in (0,100)", rep.PromoPct)
	}
	// About 1/6 of parts are PROMO, so the percentage sits near 16.7.
	if rep.PromoPct < 10 || rep.PromoPct > 25 {
		t.Errorf("promo revenue = %.2f%%, want near 16.7%%", rep.PromoPct)
	}
}

func TestFig7SlowerThanFig3(t *testing.T) {
	o := testOptions()
	f3, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: Q14's extra per-page compute lowers the Smart
	// SSD advantage relative to Q6 (1.3x vs 1.7x).
	if f7.Runs[2].Speedup >= f3.Runs[2].Speedup {
		t.Errorf("Q14 PAX speedup %.2fx not below Q6's %.2fx",
			f7.Runs[2].Speedup, f3.Runs[2].Speedup)
	}
}

func TestTable3Shape(t *testing.T) {
	rep, err := Table3(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 4 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	// Elapsed ordering: HDD >> SSD > NSM > PAX.
	for i := 1; i < 4; i++ {
		if rep.Runs[i].Elapsed >= rep.Runs[i-1].Elapsed {
			t.Errorf("elapsed not decreasing: %s %v >= %s %v",
				rep.Runs[i].Name, rep.Runs[i].Elapsed, rep.Runs[i-1].Name, rep.Runs[i-1].Elapsed)
		}
	}
	// Paper ratios vs PAX: HDD 11.6x system / 14.3x I/O; SSD 1.9x / 1.4x.
	if rep.HDDSystemRatio < 9.5 || rep.HDDSystemRatio > 13.5 {
		t.Errorf("HDD system ratio = %.1fx, want about 11.6x", rep.HDDSystemRatio)
	}
	if rep.HDDIORatio < 11 || rep.HDDIORatio > 18 {
		t.Errorf("HDD io ratio = %.1fx, want about 14.3x", rep.HDDIORatio)
	}
	if rep.SSDSystemRatio < 1.6 || rep.SSDSystemRatio > 2.2 {
		t.Errorf("SSD system ratio = %.2fx, want about 1.9x", rep.SSDSystemRatio)
	}
	if rep.SSDIORatio < 1.15 || rep.SSDIORatio > 1.7 {
		t.Errorf("SSD io ratio = %.2fx, want about 1.4x", rep.SSDIORatio)
	}
	// Idle-adjusted: 12.4x and 2.3x.
	if rep.HDDAboveIdleRatio < 10.5 || rep.HDDAboveIdleRatio > 15 {
		t.Errorf("HDD above-idle ratio = %.1fx, want about 12.4x", rep.HDDAboveIdleRatio)
	}
	if rep.SSDAboveIdleRatio < 1.9 || rep.SSDAboveIdleRatio > 2.7 {
		t.Errorf("SSD above-idle ratio = %.2fx, want about 2.3x", rep.SSDAboveIdleRatio)
	}
	// All four configurations agree on the answer.
	for _, run := range rep.Runs[1:] {
		if run.Answer != rep.Runs[0].Answer {
			t.Errorf("%s answer %d != HDD answer %d", run.Name, run.Answer, rep.Runs[0].Answer)
		}
	}
}

func TestRendersAreNonEmpty(t *testing.T) {
	o := testOptions()
	t2, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f3, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{
		"fig1":   Fig1().Render(),
		"table2": t2.Render(),
		"fig3":   f3.Render(),
	} {
		if len(s) < 50 || !strings.Contains(s, "\n") {
			t.Errorf("%s render too small:\n%s", name, s)
		}
	}
}

func TestExtQ1GroupedAggregation(t *testing.T) {
	rep, err := ExtQ1(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 3 return flags x 2 line statuses.
	if rep.Groups != 6 {
		t.Fatalf("Q1 groups = %d, want 6", rep.Groups)
	}
	// Q1 scans everything and touches many columns: the device CPU
	// saturates hard and the host wins — grouped full-scan aggregation
	// is a poor pushdown candidate, which is itself a finding the
	// planner must reflect.
	if len(rep.Runs) != 2 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	if host, dev := rep.Runs[0].Elapsed, rep.Runs[1].Elapsed; host >= dev {
		t.Errorf("host %v not faster than device %v on Q1", host, dev)
	}
	if rep.Pushdown {
		t.Error("planner pushes Q1 down; the host is measurably faster")
	}
	if !strings.Contains(rep.Render(), "Q1") {
		t.Error("render missing title")
	}
}

// TestPlannerAgreesOnEveryPoint requires the planner's placement to be
// within 5% of the measured best on every point of the sweep: the
// Figure 5 selectivities, the grouped Q1 and the joined Q14.
func TestPlannerAgreesOnEveryPoint(t *testing.T) {
	rep, err := Planner(goldenOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agreed != len(rep.Points) {
		t.Errorf("planner agrees on %d/%d points:\n%s", rep.Agreed, len(rep.Points), rep.Render())
	}
}

func TestExtConcurrencyFairSharing(t *testing.T) {
	rep, err := ExtConcurrency(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Streams) != 3 {
		t.Fatalf("points = %d", len(rep.Streams))
	}
	if rep.Streams[0].Streams != 1 || rep.Streams[0].Efficiency != 1.0 {
		t.Fatalf("baseline point wrong: %+v", rep.Streams[0])
	}
	for _, p := range rep.Streams[1:] {
		// Makespan grows with streams (the device is already saturated
		// by one Q6)...
		if p.Makespan <= rep.Streams[0].Makespan {
			t.Errorf("%d streams makespan %v not above single %v",
				p.Streams, p.Makespan, rep.Streams[0].Makespan)
		}
		// ...but sharing is nearly fair: per-query time within 15% of
		// the single-stream time.
		if p.Efficiency < 0.85 || p.Efficiency > 1.1 {
			t.Errorf("%d streams efficiency = %.2f, want near 1.0", p.Streams, p.Efficiency)
		}
	}
}

func TestExtInterfaceSweep(t *testing.T) {
	rep, err := ExtInterface(Options{SF: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 6 {
		t.Fatalf("points = %d, want 6 interface standards", len(rep.Points))
	}
	bySpeed := map[string]float64{}
	for _, p := range rep.Points {
		bySpeed[p.Interface] = p.SpeedupPAX
	}
	// SAS 6Gb is the paper's 1.7x.
	if s := bySpeed["SAS 6Gb/s"]; s < 1.5 || s > 1.9 {
		t.Errorf("SAS6 speedup = %.2fx, want about 1.7x", s)
	}
	// The slower SATA2 interface widens the gap; PCIe Gen3 erases it
	// (the host path then outruns the device CPU entirely).
	if bySpeed["SATA 3Gb/s"] <= bySpeed["SAS 6Gb/s"] {
		t.Errorf("SATA2 speedup %.2fx not above SAS6 %.2fx",
			bySpeed["SATA 3Gb/s"], bySpeed["SAS 6Gb/s"])
	}
	if bySpeed["PCIe Gen3 x4"] >= 1.0 {
		t.Errorf("PCIe3 speedup = %.2fx, want below 1x (interface catches up)", bySpeed["PCIe Gen3 x4"])
	}
}

func TestExtHybridBeatsBothPureModes(t *testing.T) {
	rep, err := ExtHybrid(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	pure := rep.Runs[1].Speedup
	hyb := rep.Runs[2].Speedup
	if hyb <= pure {
		t.Fatalf("hybrid %.2fx not above pure pushdown %.2fx", hyb, pure)
	}
	// Combined paths: about 2.4-2.7x, below the 2.84x DMA ceiling.
	if hyb < 2.2 || hyb > 2.9 {
		t.Fatalf("hybrid speedup = %.2fx, want about 2.6x", hyb)
	}
	if rep.SplitFraction < 0.4 || rep.SplitFraction > 0.8 {
		t.Fatalf("split fraction = %.2f, want near the 0.62 equalizing point", rep.SplitFraction)
	}
}
