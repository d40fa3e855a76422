package txn

import (
	"reflect"
	"strings"
	"testing"

	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/wal"
)

// logTxn appends one transaction to log — begin, an update record per
// after-image in ups, and a commit record when committed — and flushes
// it.
func (f *fixture) logTxn(t *testing.T, log *wal.Log, id uint64, committed bool, ups ...redoUp) {
	t.Helper()
	recs := []wal.Record{{Txn: id, Type: wal.RecBegin}}
	for _, u := range ups {
		tup := schema.Tuple{schema.IntVal(u.id), schema.IntVal(u.val)}
		recs = append(recs, wal.Record{Txn: id, Type: wal.RecUpdate, Table: u.table,
			PageIdx: u.pageIdx, Slot: u.slot, Tuple: f.s.EncodeTuple(nil, tup)})
	}
	if committed {
		recs = append(recs, wal.Record{Txn: id, Type: wal.RecCommit})
	}
	for _, r := range recs {
		if _, err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.Flush(0); err != nil {
		t.Fatal(err)
	}
}

// redoUp is one after-image: row id, now carrying val, at slot of page
// pageIdx of table.
type redoUp struct {
	table   string
	pageIdx uint32
	slot    uint16
	id, val int64
}

// up is the after-image of row id (on the fixture's table, whose rows
// sit in id order, perPage to a page) carrying val.
func up(id, val, perPage int64) redoUp {
	return redoUp{table: "t", pageIdx: uint32(id / perPage), slot: uint16(id % perPage), id: id, val: val}
}

// rowsPerPage reports how many rows the fixture's first page holds.
func (f *fixture) rowsPerPage(t *testing.T) int64 {
	t.Helper()
	r := page.ReaderFor(f.s)
	if err := r.Bind(f.dev.pages[f.tab.StartLBA]); err != nil {
		t.Fatal(err)
	}
	return int64(r.Count())
}

// dataAccess sums the reads and restores of the table's data pages.
func (f *fixture) dataAccess() (reads, restores map[int64]int) {
	reads, restores = make(map[int64]int), make(map[int64]int)
	for lba := f.tab.StartLBA; lba < f.tab.StartLBA+f.tab.Pages; lba++ {
		if n := f.dev.reads[lba]; n > 0 {
			reads[lba] = n
		}
		if n := f.dev.restores[lba]; n > 0 {
			restores[lba] = n
		}
	}
	return reads, restores
}

func TestRecoverInstallsCommittedPrefixLaterLSNWins(t *testing.T) {
	f := newFixture(t, 1200)
	per := f.rowsPerPage(t)
	if f.tab.Pages < 3 {
		t.Fatalf("fixture has %d pages, want ≥ 3", f.tab.Pages)
	}
	log := f.mgr.Log()
	last := 2*per + 5 // a row on page 2
	f.logTxn(t, log, 1, true, up(3, 100, per), up(last, 7, per))
	f.logTxn(t, log, 2, true, up(3, 200, per), up(4, 40, per))
	f.logTxn(t, log, 3, false, up(3, 300, per)) // never committed
	logPages := int64(log.Stats().PageWrites)

	m, rep, err := Recover(f.dev, nil, f.resolve)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Log() == nil {
		t.Fatal("recovery over a non-empty log returned no manager")
	}
	want := &RecoveryReport{Committed: []uint64{1, 2}, UpdatesApplied: 4, PagesRepaired: 2, LogPages: logPages}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
	vals := f.readVals(t)
	for id, v := range map[int64]int64{3: 200, 4: 40, last: 7, 5: 5, per: per} {
		if vals[id] != v {
			t.Errorf("id %d = %d after recovery, want %d", id, vals[id], v)
		}
	}
	// The log was checkpointed: a second recovery finds nothing.
	m2, rep2, err := Recover(f.dev, nil, f.resolve)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != nil || rep2.LogPages != 0 || len(rep2.Committed) != 0 {
		t.Fatalf("second recovery = %v, %+v; want no manager and an empty report", m2, rep2)
	}
}

func TestRecoverReadsEachRepairedPageOnce(t *testing.T) {
	f := newFixture(t, 1200)
	per := f.rowsPerPage(t)
	log := f.mgr.Log()
	f.logTxn(t, log, 1, true, up(1, 10, per), up(2, 20, per), up(2*per, 30, per))
	f.logTxn(t, log, 2, true, up(1, 11, per), up(2*per+1, 31, per))
	clear(f.dev.reads)
	if _, _, err := Recover(f.dev, nil, f.resolve); err != nil {
		t.Fatal(err)
	}
	reads, restores := f.dataAccess()
	want := map[int64]int{f.tab.StartLBA: 1, f.tab.StartLBA + 2: 1}
	if !reflect.DeepEqual(reads, want) || !reflect.DeepEqual(restores, want) {
		t.Fatalf("reads %v, restores %v by LBA; want %v for both", reads, restores, want)
	}
}

// A committed record naming a page past its table's extent, or a table
// resolve does not know, fails recovery — and no page is restored, not
// even those of the valid records before it.
func TestRecoverRejectsBadRecordsWithoutRestoring(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  func(f *fixture) redoUp
		want string
	}{
		{"page beyond table", func(f *fixture) redoUp {
			return redoUp{table: "t", pageIdx: uint32(f.tab.Pages), id: 1, val: 1}
		}, "beyond"},
		{"unknown table", func(*fixture) redoUp {
			return redoUp{table: "nope", id: 1, val: 1}
		}, "no table"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, 1200)
			per := f.rowsPerPage(t)
			f.logTxn(t, f.mgr.Log(), 1, true, up(3, 100, per), c.bad(f))
			m, rep, err := Recover(f.dev, nil, f.resolve)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Recover error = %v, want one mentioning %q", err, c.want)
			}
			if m != nil || rep != nil {
				t.Fatalf("failed recovery returned %v, %+v", m, rep)
			}
			if _, restores := f.dataAccess(); len(restores) != 0 {
				t.Fatalf("failed recovery restored pages %v", restores)
			}
			if vals := f.readVals(t); vals[3] != 3 {
				t.Fatalf("id 3 = %d after failed recovery, want 3", vals[3])
			}
		})
	}
}

func TestActivateRefusesExtentsInLogRegion(t *testing.T) {
	dev := newMemDev(page.PageSize, 4096)
	start, _ := wal.Region(dev.CapacityPages())
	resolve := func(string) (Table, error) { return Table{}, nil }
	if _, err := Activate(dev, nil, start+1, resolve); err == nil {
		t.Fatal("activated a log over allocated pages")
	}
	m, err := Activate(dev, nil, start, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if m.Log() == nil || m.Log().Start() != start {
		t.Fatalf("activated log = %v, want one starting at page %d", m.Log(), start)
	}
}
