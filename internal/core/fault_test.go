package core

import (
	"errors"
	"testing"
	"time"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/fault"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

func newFaultyEngine(t *testing.T, fc fault.Config) *Engine {
	t.Helper()
	p := smallSSD()
	p.Fault = fc
	e, err := New(Config{SSD: p})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func requireSameRows(t *testing.T, want, got []schema.Tuple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row counts: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("row %d widths differ", i)
		}
		for c := range want[i] {
			wv, gv := want[i][c], got[i][c]
			if wv.Bytes != nil || gv.Bytes != nil {
				if string(wv.Bytes) != string(gv.Bytes) {
					t.Fatalf("row %d col %d: want %q, got %q", i, c, wv.Bytes, gv.Bytes)
				}
			} else if wv.Int != gv.Int {
				t.Fatalf("row %d col %d: want %d, got %d", i, c, wv.Int, gv.Int)
			}
		}
	}
}

// The acceptance bar for graceful degradation: a pushdown whose device
// sessions always abort must return results bit-identical to a clean
// host run, with the retry/fallback ladder accounted exactly.
func TestFallbackEquivalenceToCleanHostRun(t *testing.T) {
	clean := newEngine(t)
	loadFact(t, clean, page.PAX, 30000, OnSSD)
	host, err := clean.Run(selectiveSpec(), ForceHost)
	if err != nil {
		t.Fatal(err)
	}

	e := newFaultyEngine(t, fault.Config{Seed: 9, SessionAbortRate: 1})
	loadFact(t, e, page.PAX, 30000, OnSSD)
	res, err := e.Run(selectiveSpec(), ForceDevice)
	if err != nil {
		t.Fatalf("faulted run should fall back, not fail: %v", err)
	}
	requireSameRows(t, host.Rows, res.Rows)
	if res.Placement != RanHost {
		t.Fatalf("Placement = %v, want RanHost after fallback", res.Placement)
	}

	// Exact ladder accounting: default MaxDeviceRetries is 2, so three
	// attempts abort (one injected abort each), with doubling backoff
	// 5ms + 10ms between them.
	f := res.Faults
	if f.DeviceAttempts != 3 {
		t.Fatalf("DeviceAttempts = %d, want 3", f.DeviceAttempts)
	}
	if !f.HostFallback || f.FallbackReason != "session-abort" {
		t.Fatalf("fallback = %v (%q), want host fallback for session-abort",
			f.HostFallback, f.FallbackReason)
	}
	if f.SessionAborts != 3 {
		t.Fatalf("SessionAborts = %d, want 3", f.SessionAborts)
	}
	if want := 15 * time.Millisecond; f.BackoffWait != want {
		t.Fatalf("BackoffWait = %v, want %v", f.BackoffWait, want)
	}
	// Sessions abort on their first GET, before the program runs, so
	// the failed attempts cost exactly the backoff: elapsed is the
	// clean host time plus the 15ms ladder, to the nanosecond.
	if want := host.Elapsed + f.BackoffWait; res.Elapsed != want {
		t.Fatalf("faulted elapsed %v, want clean host %v + backoff %v",
			res.Elapsed, host.Elapsed, f.BackoffWait)
	}
	// No sessions or grants leak across the aborted attempts.
	if n := e.runtime.OpenSessions(); n != 0 {
		t.Fatalf("%d sessions leaked across aborted attempts", n)
	}
	if g := e.runtime.GrantedBytes(); g != 0 {
		t.Fatalf("%d grant bytes leaked across aborted attempts", g)
	}
}

// Opting out of fallback surfaces the typed fault after the retries.
func TestRetryExhaustionSurfacesWhenFallbackDisabled(t *testing.T) {
	p := smallSSD()
	p.Fault = fault.Config{Seed: 9, SessionAbortRate: 1}
	e, err := New(Config{SSD: p, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	loadFact(t, e, page.PAX, 30000, OnSSD)
	_, err = e.Run(selectiveSpec(), ForceDevice)
	if !errors.Is(err, device.ErrSessionAborted) {
		t.Fatalf("err = %v, want wrapped ErrSessionAborted", err)
	}
}

// Hung GETs charge the watchdog wait to the run and fall back.
func TestGetTimeoutFallsBackAndChargesWait(t *testing.T) {
	e := newFaultyEngine(t, fault.Config{Seed: 4, GetTimeoutRate: 1})
	loadFact(t, e, page.PAX, 30000, OnSSD)
	res, err := e.Run(selectiveSpec(), ForceDevice)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if !f.HostFallback || f.FallbackReason != "get-timeout" {
		t.Fatalf("fallback = %v (%q), want get-timeout", f.HostFallback, f.FallbackReason)
	}
	// Three attempts, each hung on its first GET for the default 10ms
	// watchdog period.
	if f.GetTimeouts != 3 {
		t.Fatalf("GetTimeouts = %d, want 3", f.GetTimeouts)
	}
	if want := 30 * time.Millisecond; f.TimeoutWait != want {
		t.Fatalf("TimeoutWait = %v, want %v", f.TimeoutWait, want)
	}
}

// A hybrid run whose device half faults degrades to the pure host path
// with the same rows.
func TestHybridFallsBackOnDeviceFault(t *testing.T) {
	clean := newEngine(t)
	loadFact(t, clean, page.PAX, 30000, OnSSD)
	host, err := clean.Run(selectiveSpec(), ForceHost)
	if err != nil {
		t.Fatal(err)
	}
	e := newFaultyEngine(t, fault.Config{Seed: 6, SessionAbortRate: 1})
	loadFact(t, e, page.PAX, 30000, OnSSD)
	res, err := e.Run(selectiveSpec(), ForceHybrid)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, host.Rows, res.Rows)
	if !res.Faults.HostFallback {
		t.Fatal("hybrid device fault did not report a host fallback")
	}
}

// clusterFixture builds an n-device cluster over the shared fact
// fixture with k-way replication and returns it with its query.
func clusterFixture(t *testing.T, n, k int) (*Cluster, QuerySpec) {
	t.Helper()
	const rows = 30000
	p := smallSSD()
	p.Fault = fault.Config{Armed: true}
	cl, err := NewCluster(n, p, device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cl.SetReplication(k)
	s := widePaddedSchema()
	if err := cl.CreateTable("fact", s, page.PAX, 1024); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = cl.Load("fact", func() (schema.Tuple, bool) {
		if i >= rows {
			return nil, false
		}
		tup := schema.Tuple{
			schema.IntVal(int64(i)),
			schema.IntVal(int64(i % 40)),
			schema.IntVal(int64(i % 100)),
			schema.StrVal("pad"),
		}
		i++
		return tup, true
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, QuerySpec{
		Table:  "fact",
		Filter: expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "val"), R: expr.IntConst(30)},
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.ColRef(s, "id"), Name: "sum_id"},
			{Kind: plan.Count, Name: "cnt"},
		},
	}
}

// With replication, losing a device re-executes its partition on the
// chained replica and the merged result is unchanged.
func TestClusterFailoverToReplica(t *testing.T) {
	cl, q := clusterFixture(t, 4, 2)
	before, err := cl.Run(q)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if before.Failovers != 0 {
		t.Fatalf("clean run reported %d failovers", before.Failovers)
	}
	cl.Device(2).Injector().KillDevice()
	after, err := cl.Run(q)
	if err != nil {
		t.Fatalf("run with dead worker 2: %v", err)
	}
	requireSameRows(t, before.Rows, after.Rows)
	if after.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", after.Failovers)
	}
	if len(after.FailedWorkers) != 0 {
		t.Fatalf("FailedWorkers = %v, want none", after.FailedWorkers)
	}
	if after.PerDevice[2] <= 0 {
		t.Fatal("failed-over partition reported no completion time")
	}
}

// When replication and fallback fire in the same run, the accounting
// fields pin the exact story: every execution attempt is counted, and
// every abandoned primary records why it was abandoned. Three workers,
// two copies each, devices 1 and 2 dead: worker 0 succeeds first try;
// worker 1's replica lives on dead device 2, so its partition is lost
// after two attempts; worker 2's replica lives on healthy device 0, so
// it fails over after two attempts.
func TestClusterAttemptAndReasonAccounting(t *testing.T) {
	cl, q := clusterFixture(t, 3, 2)
	clean, err := cl.Run(q)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.Attempts != 3 {
		t.Fatalf("clean Attempts = %d, want one per worker", clean.Attempts)
	}
	if clean.FailoverReasons != nil {
		t.Fatalf("clean FailoverReasons = %v, want nil", clean.FailoverReasons)
	}

	cl.Device(1).Injector().KillDevice()
	cl.Device(2).Injector().KillDevice()
	res, err := cl.Run(q)
	if !errors.Is(err, ErrPartialResult) {
		t.Fatalf("err = %v, want ErrPartialResult (worker 1's copies are both dead)", err)
	}
	// 1 (worker 0) + 2 (worker 1: primary + dead replica) + 2 (worker 2:
	// primary + live replica).
	if res.Attempts != 5 {
		t.Errorf("Attempts = %d, want 5", res.Attempts)
	}
	if res.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1 (only worker 2 recovered)", res.Failovers)
	}
	if len(res.FailedWorkers) != 1 || res.FailedWorkers[0] != 1 {
		t.Errorf("FailedWorkers = %v, want [1]", res.FailedWorkers)
	}
	want := map[int]string{1: "device-failed", 2: "device-failed"}
	if len(res.FailoverReasons) != len(want) {
		t.Fatalf("FailoverReasons = %v, want %v", res.FailoverReasons, want)
	}
	for w, reason := range want {
		if got := res.FailoverReasons[w]; got != reason {
			t.Errorf("FailoverReasons[%d] = %q, want %q", w, got, reason)
		}
	}
	// Workers 0 and 2 contributed; worker 1's third of the data is
	// missing, so the count lands strictly between zero and the full
	// answer.
	if got, full := res.Rows[0][1].Int, clean.Rows[0][1].Int; got <= 0 || got >= full {
		t.Errorf("partial count = %d, want in (0, %d)", got, full)
	}
}

// Without replication a dead device's partition is lost: the run
// returns its partial result together with a typed PartialResultError.
func TestClusterPartialResultWithoutReplicas(t *testing.T) {
	cl, q := clusterFixture(t, 2, 1)
	clean, err := cl.Run(q)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cl.Device(0).Injector().KillDevice()
	res, err := cl.Run(q)
	if err == nil {
		t.Fatal("run with lost partition returned no error")
	}
	if !errors.Is(err, ErrPartialResult) {
		t.Fatalf("errors.Is(err, ErrPartialResult) = false for %v", err)
	}
	if !errors.Is(err, device.ErrDeviceFailed) {
		t.Fatalf("partial error does not unwrap to the device fault: %v", err)
	}
	var pre *PartialResultError
	if !errors.As(err, &pre) {
		t.Fatalf("errors.As(*PartialResultError) = false for %v", err)
	}
	if len(pre.Failed) != 1 || pre.Failed[0] != 0 {
		t.Fatalf("Failed = %v, want [0]", pre.Failed)
	}
	if res == nil || len(res.Rows) != 1 {
		t.Fatalf("partial result rows = %v, want surviving worker's aggregate", res)
	}
	// The surviving worker's partial sum is strictly below the full
	// answer (worker 0's contribution is missing).
	if got, full := res.Rows[0][1].Int, clean.Rows[0][1].Int; got <= 0 || got >= full {
		t.Fatalf("partial count = %d, want in (0, %d)", got, full)
	}
}
