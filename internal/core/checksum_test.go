package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// countSpec counts the fact rows with val below 50: a scan that binds
// every page of the table.
func countSpec() QuerySpec {
	s := widePaddedSchema()
	return QuerySpec{
		Table:          "fact",
		Filter:         expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "val"), R: expr.IntConst(50)},
		Aggs:           []plan.AggSpec{{Kind: plan.Count, Name: "cnt"}},
		EstSelectivity: 0.5,
	}
}

// corrupted returns a copy of the sealed page data with one byte of
// its record area flipped: the header still parses, the checksum no
// longer matches.
func corrupted(data []byte) []byte {
	bad := append([]byte(nil), data...)
	bad[page.PageSize/2] ^= 0x5A
	return bad
}

// factFile reports the engine's fact table file.
func factFile(t *testing.T, e *Engine) *heap.File {
	t.Helper()
	tab, err := e.Table("fact")
	if err != nil {
		t.Fatal(err)
	}
	return tab.File
}

// pageStore is the write surface a stored page can be replaced through.
type pageStore interface {
	ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error)
	WritePage(lba int64, data []byte, ready time.Duration) (time.Duration, error)
}

// corrupt replaces the page at lba of dev with a corrupted copy, written
// the way via names: "WritePage" (timed host write) or "RestorePage"
// (the untimed image-load path).
func corrupt(t *testing.T, dev pageStore, lba int64, via string) {
	t.Helper()
	data, _, err := dev.ReadPage(lba, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := corrupted(data)
	switch via {
	case "WritePage":
		_, err = dev.WritePage(lba, bad, 0)
	case "RestorePage":
		err = dev.(interface{ RestorePage(int64, []byte) error }).RestorePage(lba, bad)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestScanCatchesCorruptionAfterVerification scans a table once in
// every placement, so every page has passed its checksum, then replaces
// one stored page with a corrupted sealed copy. The next scan in every
// placement must fail with page.ErrBadChecksum: a page that passed once
// is trusted only until it is written again.
func TestScanCatchesCorruptionAfterVerification(t *testing.T) {
	modes := []Mode{ForceHost, ForceDevice, ForceHybrid}
	for _, via := range []string{"WritePage", "RestorePage"} {
		t.Run("ssd/"+via, func(t *testing.T) {
			e := newEngine(t)
			loadFact(t, e, page.PAX, 6000, OnSSD)
			for _, m := range modes {
				mustRun(t, e, countSpec(), m)
			}
			f := factFile(t, e)
			corrupt(t, e.SSD(), f.StartLBA()+f.Pages()/2, via)
			for _, m := range modes {
				if _, err := e.Run(countSpec(), m); !errors.Is(err, page.ErrBadChecksum) {
					t.Errorf("%v after corrupting a verified page: err = %v, want %v", m, err, page.ErrBadChecksum)
				}
			}
		})
	}
	t.Run("hdd/WritePage", func(t *testing.T) {
		e := newEngine(t)
		loadFact(t, e, page.NSM, 6000, OnHDD)
		mustRun(t, e, countSpec(), ForceHost)
		f := factFile(t, e)
		corrupt(t, e.HDD(), f.StartLBA()+f.Pages()/2, "WritePage")
		if _, err := e.Run(countSpec(), ForceHost); !errors.Is(err, page.ErrBadChecksum) {
			t.Errorf("host scan after corrupting a verified page: err = %v, want %v", err, page.ErrBadChecksum)
		}
	})
}

// TestClusterScanCatchesCorruptionAfterVerification is the same check
// on a cluster partition.
func TestClusterScanCatchesCorruptionAfterVerification(t *testing.T) {
	for _, via := range []string{"WritePage", "RestorePage"} {
		t.Run(via, func(t *testing.T) {
			cl, err := NewCluster(2, smallSSD(), device.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.CreateTable("fact", widePaddedSchema(), page.PAX, 512); err != nil {
				t.Fatal(err)
			}
			rows := make([]schema.Tuple, 6000)
			for i := range rows {
				rows[i] = schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(int64(i % 40)),
					schema.IntVal(int64(i % 100)), schema.StrVal("pad")}
			}
			if err := cl.Load("fact", sliceFeeder(rows)); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Run(countSpec()); err != nil {
				t.Fatal(err)
			}
			f := cl.tables["fact"][1]
			corrupt(t, cl.Device(1), f.StartLBA()+f.Pages()/2, via)
			if _, err := cl.Run(countSpec()); !errors.Is(err, page.ErrBadChecksum) {
				t.Errorf("cluster scan after corrupting a verified page: err = %v, want %v", err, page.ErrBadChecksum)
			}
		})
	}
}

// TestCloneScansWhileAnotherCommits runs two clones' scans concurrently
// with a third clone committing and flushing updates to the NAND array
// all three share copy-on-write. Under -race this checks that what the
// scans record about shared pages never races with the writer, and the
// scanners must keep seeing the data as it was loaded.
func TestCloneScansWhileAnotherCommits(t *testing.T) {
	e := newEngine(t)
	loadFact(t, e, page.PAX, 20000, OnSSD)
	s := widePaddedSchema()
	sum := QuerySpec{
		Table:          "fact",
		Aggs:           []plan.AggSpec{{Kind: plan.Sum, E: expr.ColRef(s, "val"), Name: "sum_val"}},
		EstSelectivity: 1,
	}
	want := map[Mode]int64{}
	for _, m := range []Mode{ForceHost, ForceDevice} {
		want[m] = mustRun(t, e, sum, m).Rows[0][0].Int
	}
	clones := make([]*Engine, 3)
	for i := range clones {
		c, err := e.Clone()
		if err != nil {
			t.Fatal(err)
		}
		clones[i] = c
	}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, m := range []Mode{ForceHost, ForceDevice} {
		wg.Add(1)
		go func(i int, m Mode) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := clones[i].Run(sum, m)
				if err != nil {
					errs[i] = err
					return
				}
				if got := res.Rows[0][0].Int; got != want[m] {
					errs[i] = fmt.Errorf("%v round %d: sum %d, want %d", m, r, got, want[m])
					return
				}
			}
		}(i, m)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := clones[2]
		for r := 0; r < rounds; r++ {
			_, err := w.Update("fact", expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "val"), R: expr.IntConst(10)},
				[]SetClause{{Column: "val", E: expr.Arith{Op: expr.Add, L: expr.ColRef(s, "val"), R: expr.IntConst(1)}}})
			if err == nil {
				err = w.FlushPool()
			}
			if err != nil {
				errs[2] = err
				return
			}
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
	}
	// The writer's own scans see its updates: four rounds of +1 on the
	// rows that stay below 10 after each.
	got := mustRun(t, clones[2], sum, ForceDevice).Rows[0][0].Int
	if got <= want[ForceDevice] {
		t.Fatalf("writer's device sum %d after updates, want more than %d", got, want[ForceDevice])
	}
	if host := mustRun(t, clones[2], sum, ForceHost).Rows[0][0].Int; host != got {
		t.Fatalf("writer's host sum %d, device sum %d", host, got)
	}
}
