package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/fault"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/wal"
)

// The headline durability property: for EVERY power-cut point in a
// recorded run, recovery yields exactly the state of the acknowledged
// commits — never a torn half-update, never a lost acked commit — and
// both execution paths of the recovered engine agree with a
// never-crashed reference, byte for byte on the answer values.

// sweepOp is one step of the deterministic mixed workload: a
// transactional update, or a checkpoint (pool flush + log reset).
type sweepOp struct {
	flush  bool
	filter expr.Expr
	sets   []SetClause
}

func sweepOps() []sweepOp {
	s := widePaddedSchema()
	col := func(name string) expr.Expr { return expr.ColRef(s, name) }
	return []sweepOp{
		{filter: expr.Cmp{Op: expr.LT, L: col("val"), R: expr.IntConst(10)},
			sets: []SetClause{{Column: "val", E: expr.Arith{Op: expr.Add, L: col("val"), R: expr.IntConst(1000)}}}},
		{filter: expr.Cmp{Op: expr.EQ, L: col("grp"), R: expr.IntConst(5)},
			sets: []SetClause{{Column: "val", E: expr.IntConst(7)}}},
		{flush: true},
		{filter: expr.Cmp{Op: expr.LT, L: col("id"), R: expr.IntConst(50)},
			sets: []SetClause{{Column: "pad", E: expr.StrConst("CRASHTEST")}}},
		{filter: expr.Cmp{Op: expr.GE, L: col("val"), R: expr.IntConst(1000)},
			sets: []SetClause{{Column: "val", E: expr.Arith{Op: expr.Sub, L: col("val"), R: expr.IntConst(500)}}}},
		{flush: true},
		{filter: expr.Cmp{Op: expr.GE, L: col("id"), R: expr.IntConst(550)},
			sets: []SetClause{{Column: "grp", E: expr.IntConst(0)}}},
	}
}

// sweepAnswer runs the canonical aggregate probe and returns its one
// row of values.
func sweepAnswer(t *testing.T, e *Engine, mode Mode) schema.Tuple {
	t.Helper()
	s := widePaddedSchema()
	res, err := e.Run(QuerySpec{
		Table: "fact",
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.ColRef(s, "val"), Name: "sv"},
			{Kind: plan.Sum, E: expr.ColRef(s, "grp"), Name: "sg"},
			{Kind: plan.Count, Name: "c"},
		},
		EstSelectivity: 1,
	}, mode)
	if err != nil {
		t.Fatalf("probe query: %v", err)
	}
	return res.Rows[0]
}

func tuplesEqual(a, b schema.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Int != b[i].Int || !bytes.Equal(a[i].Bytes, b[i].Bytes) {
			return false
		}
	}
	return true
}

// buildSweepEngine creates the sweep fixture: 600 wide rows on the
// small SSD, optionally with a fault plan.
func buildSweepEngine(t *testing.T, fc fault.Config) *Engine {
	t.Helper()
	params := smallSSD()
	params.Fault = fc
	e, err := New(Config{SSD: params})
	if err != nil {
		t.Fatal(err)
	}
	loadFact(t, e, page.PAX, 600, OnSSD)
	e.SetCold(false)
	return e
}

// runSweepWorkload applies ops until one fails; it reports how many
// update commits were acknowledged and the first error.
func runSweepWorkload(e *Engine, ops []sweepOp) (acked int, err error) {
	for _, op := range ops {
		if op.flush {
			if err := e.FlushPool(); err != nil {
				return acked, err
			}
			continue
		}
		if _, err := e.Update("fact", op.filter, op.sets); err != nil {
			return acked, err
		}
		acked++
	}
	return acked, nil
}

func TestPowerCutSweepRecoversAckedPrefix(t *testing.T) {
	ops := sweepOps()

	// Reference: a never-crashed run, recording the probe answer after
	// every acknowledged commit. answers[k] is the state after k
	// commits.
	ref := buildSweepEngine(t, fault.Config{})
	answers := []schema.Tuple{sweepAnswer(t, ref, ForceHost)}
	for _, op := range ops {
		if op.flush {
			if err := ref.FlushPool(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := ref.Update("fact", op.filter, op.sets); err != nil {
			t.Fatal(err)
		}
		answers = append(answers, sweepAnswer(t, ref, ForceHost))
	}
	w := ref.DurableWrites()
	if w < 10 {
		t.Fatalf("workload made only %d durable writes; sweep would be trivial", w)
	}

	// The clone axis runs the workload on a Clone of the armed engine:
	// its pool must flush through the same guarded, counted write, or
	// cuts that land on a data-page flush never fire.
	for _, clone := range []bool{false, true} {
		for cut := uint64(1); cut <= w; cut++ {
			name := fmt.Sprintf("cut=%d", cut)
			if clone {
				name = "clone/" + name
			}
			t.Run(name, func(t *testing.T) {
				e := buildSweepEngine(t, fault.Config{Seed: 42, PowerCutAfter: int64(cut)})
				if clone {
					var err error
					if e, err = e.Clone(); err != nil {
						t.Fatal(err)
					}
				}
				acked, err := runSweepWorkload(e, ops)
				if err == nil {
					t.Fatalf("cut %d of %d never fired", cut, w)
				}
				if !errors.Is(err, wal.ErrPowerLost) {
					t.Fatalf("workload died of %v, want ErrPowerLost", err)
				}

				// The crash image is the media exactly as the cut left it:
				// SaveImage never flushes the pool (RAM is lost).
				var img bytes.Buffer
				if err := e.SaveImage(&img); err != nil {
					t.Fatalf("imaging crashed engine: %v", err)
				}
				e2, err := LoadImage(Config{}, &img)
				if err != nil {
					t.Fatalf("recovering crashed image: %v", err)
				}
				want := answers[acked]
				for _, mode := range []Mode{ForceHost, ForceDevice} {
					got := sweepAnswer(t, e2, mode)
					if !tuplesEqual(got, want) {
						t.Fatalf("%v after recovery = %v, want acked-prefix (%d commits) answer %v",
							mode, got, acked, want)
					}
				}
			})
		}
	}
}

// A corrupted log record is detected on recovery as a typed error —
// never silently replayed.
func TestCorruptLogRecordFailsRecovery(t *testing.T) {
	e := buildSweepEngine(t, fault.Config{Seed: 9, LogCorruptRate: 1})
	s := widePaddedSchema()
	if _, err := e.Update("fact", nil,
		[]SetClause{{Column: "val", E: expr.Arith{Op: expr.Add, L: expr.ColRef(s, "val"), R: expr.IntConst(1)}}}); err != nil {
		t.Fatalf("commit with latent corruption must succeed at write time: %v", err)
	}
	var img bytes.Buffer
	if err := e.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	_, err := LoadImage(Config{}, &img)
	if !errors.Is(err, wal.ErrCorruptRecord) {
		t.Fatalf("recovery over corrupt record: %v, want wal.ErrCorruptRecord", err)
	}
}

// A destroyed page in the middle of the log — with valid pages after
// it — is mid-log damage: committed records are gone, and recovery
// must refuse rather than replay around the hole.
func TestTornMidLogFailsRecovery(t *testing.T) {
	e := buildSweepEngine(t, fault.Config{})
	s := widePaddedSchema()
	bump := []SetClause{{Column: "val", E: expr.Arith{Op: expr.Add, L: expr.ColRef(s, "val"), R: expr.IntConst(1)}}}
	for i := 0; i < 3; i++ {
		if _, err := e.Update("fact", nil, bump); err != nil {
			t.Fatal(err)
		}
	}
	if e.WAL() == nil || e.WAL().Stats().PageWrites < 3 {
		t.Fatalf("fixture wrote %v log pages, need ≥ 3", e.WAL().Stats())
	}
	// Zero the second log page in place, as a torn flash write would.
	if err := e.SSD().RestorePage(e.WAL().Start()+1, make([]byte, e.SSD().PageSize())); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := e.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	_, err := LoadImage(Config{}, &img)
	if !errors.Is(err, wal.ErrTornWrite) {
		t.Fatalf("recovery over mid-log damage: %v, want wal.ErrTornWrite", err)
	}
}

// Zero-update engines never activate the log: their images carry no
// region pages and recovery is a no-op, keeping goldens byte-stable.
func TestReadOnlyImageSkipsRecovery(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.NSM, 200, OnSSD)
	var img bytes.Buffer
	if err := e.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadImage(Config{}, &img)
	if err != nil {
		t.Fatal(err)
	}
	if rep := e2.LastRecovery(); rep == nil || rep.LogPages != 0 || len(rep.Committed) != 0 {
		t.Fatalf("read-only image recovery = %+v, want empty", rep)
	}
	if e2.WAL() != nil {
		t.Fatal("read-only image activated the log")
	}
}

// --- cluster backend ---

// clusterSweepFixture builds a 3-device, 2-copy cluster with 240 rows.
func clusterSweepFixture(t *testing.T, fc fault.Config) *Cluster {
	t.Helper()
	params := smallSSD()
	params.Fault = fc
	cl, err := NewCluster(3, params, device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cl.SetReplication(2)
	if err := cl.CreateTable("fact", widePaddedSchema(), page.NSM, 64); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = cl.Load("fact", func() (schema.Tuple, bool) {
		if i >= 240 {
			return nil, false
		}
		tup := schema.Tuple{
			schema.IntVal(int64(i)), schema.IntVal(int64(i % 40)),
			schema.IntVal(int64(i % 100)), schema.StrVal("pad"),
		}
		i++
		return tup, true
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func clusterSweepOps() []sweepOp {
	s := widePaddedSchema()
	col := func(name string) expr.Expr { return expr.ColRef(s, name) }
	rng := func(lo, hi int64) expr.Expr {
		return expr.And{Terms: []expr.Expr{
			expr.Cmp{Op: expr.GE, L: col("id"), R: expr.IntConst(lo)},
			expr.Cmp{Op: expr.LT, L: col("id"), R: expr.IntConst(hi)},
		}}
	}
	return []sweepOp{
		{filter: rng(0, 20), sets: []SetClause{{Column: "val", E: expr.IntConst(1000)}}},
		{filter: rng(20, 40), sets: []SetClause{{Column: "val", E: expr.Arith{Op: expr.Add, L: col("val"), R: expr.IntConst(2000)}}}},
		{filter: rng(0, 10), sets: []SetClause{{Column: "grp", E: expr.IntConst(99)}}},
		{filter: rng(200, 240), sets: []SetClause{{Column: "val", E: expr.IntConst(-5)}}},
	}
}

func clusterSweepAnswer(t *testing.T, cl *Cluster) schema.Tuple {
	t.Helper()
	s := widePaddedSchema()
	res, err := cl.Run(QuerySpec{
		Table: "fact",
		Aggs: []plan.AggSpec{
			{Kind: plan.Sum, E: expr.ColRef(s, "val"), Name: "sv"},
			{Kind: plan.Sum, E: expr.ColRef(s, "grp"), Name: "sg"},
			{Kind: plan.Count, Name: "c"},
		},
	})
	if err != nil {
		t.Fatalf("cluster probe: %v", err)
	}
	return res.Rows[0]
}

// assertCopiesIdentical proves every replica carries exactly its
// primary's bytes — updates and recovery repair all copies alike, so
// failover stays sound after a crash.
func assertCopiesIdentical(t *testing.T, cl *Cluster) {
	t.Helper()
	n := len(cl.devices)
	for name, files := range cl.tables {
		reps := cl.replicaFiles[name]
		for i, f := range files {
			if len(reps) <= i {
				continue
			}
			for j, rf := range reps[i] {
				dev := cl.devices[(i+1+j)%n]
				for p := int64(0); p < f.Pages(); p++ {
					a, _, err := cl.devices[i].ReadPage(f.StartLBA()+p, 0)
					if err != nil {
						t.Fatal(err)
					}
					b, _, err := dev.ReadPage(rf.StartLBA()+p, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("%s partition %d page %d: replica %d diverges from primary", name, i, p, j)
					}
				}
			}
		}
	}
}

func TestClusterPowerCutSweepRecoversAckedPrefix(t *testing.T) {
	ops := clusterSweepOps()

	ref := clusterSweepFixture(t, fault.Config{})
	answers := []schema.Tuple{clusterSweepAnswer(t, ref)}
	for _, op := range ops {
		if _, _, err := ref.Update("fact", op.filter, op.sets); err != nil {
			t.Fatal(err)
		}
		answers = append(answers, clusterSweepAnswer(t, ref))
	}
	assertCopiesIdentical(t, ref)
	w := ref.DurableWrites()
	if w < 8 {
		t.Fatalf("cluster workload made only %d durable writes", w)
	}

	for cut := uint64(1); cut <= w; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			cl := clusterSweepFixture(t, fault.Config{Seed: 17, PowerCutAfter: int64(cut)})
			acked := 0
			var opErr error
			for _, op := range ops {
				if _, _, opErr = cl.Update("fact", op.filter, op.sets); opErr != nil {
					break
				}
				acked++
			}
			if opErr == nil {
				t.Fatalf("cut %d of %d never fired", cut, w)
			}
			if !errors.Is(opErr, wal.ErrPowerLost) {
				t.Fatalf("cluster workload died of %v, want ErrPowerLost", opErr)
			}
			rep, err := cl.Recover()
			if err != nil {
				t.Fatalf("cluster recovery: %v", err)
			}
			// A cut during the WAL flush loses the in-flight commit; a
			// cut during the post-flush fan-out loses only the ack —
			// the commit record is durable, so recovery installs it.
			// Either way the durable set is a prefix of the submission
			// order, at most one past the acked set.
			durable := len(rep.Committed)
			if durable < acked || durable > acked+1 {
				t.Fatalf("recovery found %d committed txns with %d acked", durable, acked)
			}
			got := clusterSweepAnswer(t, cl)
			if !tuplesEqual(got, answers[durable]) {
				t.Fatalf("recovered cluster answer = %v, want durable-prefix (%d commits) %v",
					got, durable, answers[durable])
			}
			assertCopiesIdentical(t, cl)
		})
	}
}

func TestClusterUpdateValidation(t *testing.T) {
	cl := clusterSweepFixture(t, fault.Config{})
	if _, _, err := cl.Update("nope", nil, []SetClause{{Column: "val", E: expr.IntConst(1)}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, _, err := cl.Update("fact", nil, nil); err == nil {
		t.Error("empty SET accepted")
	}
	// A full-table update must hit every partition.
	n, _, err := cl.Update("fact", nil, []SetClause{{Column: "val", E: expr.IntConst(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 240 {
		t.Fatalf("updated %d rows, want 240", n)
	}
	got := clusterSweepAnswer(t, cl)
	if got[0].Int != 3*240 {
		t.Fatalf("post-update sum(val) = %d, want %d", got[0].Int, 3*240)
	}
	assertCopiesIdentical(t, cl)
}

// Once the coordinator log is active, no cluster table may reach into
// device 0's log region — neither its partition 0 nor a replica that
// the chain places on device 0 — just as the engine refuses it.
func TestClusterCreateTableRefusesLogRegion(t *testing.T) {
	for _, copies := range []int64{1, 2} {
		t.Run(fmt.Sprintf("copies=%d", copies), func(t *testing.T) {
			cl, err := NewCluster(2, smallSSD(), device.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			cl.SetReplication(int(copies))
			if err := cl.CreateTable("fact", widePaddedSchema(), page.NSM, 200/copies); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cl.Update("fact", nil, []SetClause{{Column: "val", E: expr.IntConst(1)}}); err != nil {
				t.Fatal(err)
			}
			start, _ := wal.Region(cl.Device(0).CapacityPages())
			free := (start - 200) / copies // pages per copy that still fit below the log
			if err := cl.CreateTable("over", widePaddedSchema(), page.NSM, free+1); err == nil {
				t.Fatalf("%d-page table accepted with %d pages free below the log", free+1, free)
			}
			if err := cl.CreateTable("fits", widePaddedSchema(), page.NSM, free); err != nil {
				t.Fatalf("%d-page table refused with %d pages free below the log: %v", free, free, err)
			}
			if _, _, err := cl.Update("fact", nil, []SetClause{{Column: "val", E: expr.IntConst(2)}}); err != nil {
				t.Fatalf("update after filling device 0 up to its log: %v", err)
			}
		})
	}

	e, err := New(Config{SSD: smallSSD(), DisableHDD: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("fact", widePaddedSchema(), page.NSM, 200, OnSSD); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Update("fact", nil, []SetClause{{Column: "val", E: expr.IntConst(1)}}); err != nil {
		t.Fatal(err)
	}
	start, _ := wal.Region(e.SSD().CapacityPages())
	if _, err := e.CreateTable("over", widePaddedSchema(), page.NSM, start-200+1, OnSSD); err == nil {
		t.Fatal("engine accepted a table reaching into its log region")
	}
}
