package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"smartssd/internal/bufpool"
	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/wal"
)

// memDev is a page store with no timing model; the transaction layer's
// contract with devices is purely about bytes.
type memDev struct {
	pageSize int
	capacity int64
	pages    map[int64][]byte
	writes   int
	reads    map[int64]int // ReadPage calls by LBA
	restores map[int64]int // RestorePage calls by LBA
}

func newMemDev(pageSize int, capacity int64) *memDev {
	return &memDev{pageSize: pageSize, capacity: capacity, pages: make(map[int64][]byte),
		reads: make(map[int64]int), restores: make(map[int64]int)}
}

func (d *memDev) PageSize() int         { return d.pageSize }
func (d *memDev) CapacityPages() int64  { return d.capacity }
func (d *memDev) Mapped(lba int64) bool { _, ok := d.pages[lba]; return ok }
func (d *memDev) Trim(lba int64) error  { delete(d.pages, lba); return nil }

func (d *memDev) ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error) {
	d.reads[lba]++
	p, ok := d.pages[lba]
	if !ok {
		return nil, ready, fmt.Errorf("memdev: read unmapped page %d", lba)
	}
	return append([]byte(nil), p...), ready, nil
}

// memDev keeps no checksum record: every bind verifies.
func (d *memDev) Checked(int64, []byte) bool { return false }
func (d *memDev) MarkChecked(int64, []byte)  {}

func (d *memDev) WritePage(lba int64, data []byte, ready time.Duration) (time.Duration, error) {
	if len(data) != d.pageSize {
		return ready, fmt.Errorf("memdev: write %d bytes, page is %d", len(data), d.pageSize)
	}
	d.pages[lba] = append([]byte(nil), data...)
	d.writes++
	return ready, nil
}

func (d *memDev) RestorePage(lba int64, data []byte) error {
	d.restores[lba]++
	d.pages[lba] = append([]byte(nil), data...)
	return nil
}

func testSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Kind: schema.Int64},
		schema.Column{Name: "val", Kind: schema.Int64},
	)
}

// fixture builds one 3-page NSM table with rows (id: 0..n-1, val: id)
// on a fresh device, plus a manager over a WAL on the same device.
type fixture struct {
	dev *memDev
	s   *schema.Schema
	mgr *Manager
	tab Table
}

func newFixture(t *testing.T, rows int) *fixture {
	t.Helper()
	dev := newMemDev(page.PageSize, 4096)
	s := testSchema()
	b := page.NewBuilder(s, page.NSM)
	lba := int64(0)
	pages := int64(0)
	b.Reset(uint32(pages))
	for i := 0; i < rows; i++ {
		tup := schema.Tuple{schema.IntVal(int64(i)), schema.IntVal(int64(i))}
		if !b.Append(tup) {
			if _, err := dev.WritePage(lba+pages, b.Finish(), 0); err != nil {
				t.Fatal(err)
			}
			pages++
			b.Reset(uint32(pages))
			if !b.Append(tup) {
				t.Fatal("tuple does not fit an empty page")
			}
		}
	}
	if b.Count() > 0 {
		if _, err := dev.WritePage(lba+pages, b.Finish(), 0); err != nil {
			t.Fatal(err)
		}
		pages++
	}
	dev.writes = 0

	log, err := wal.Create(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := Table{
		Name: "t", Schema: s, Layout: page.NSM,
		StartLBA: lba, Pages: pages, Dev: dev, Durable: true,
	}
	f := &fixture{dev: dev, s: s, tab: tab}
	f.mgr = NewManager(log, f.resolve)
	return f
}

// resolve knows the fixture's one table, "t".
func (f *fixture) resolve(name string) (Table, error) {
	if name != "t" {
		return Table{}, fmt.Errorf("no table %q", name)
	}
	return f.tab, nil
}

// readVals scans the committed pages and returns val by id.
func (f *fixture) readVals(t *testing.T) map[int64]int64 {
	t.Helper()
	out := make(map[int64]int64)
	r := page.ReaderFor(f.s)
	for p := int64(0); p < f.tab.Pages; p++ {
		buf, _, err := f.dev.ReadPage(f.tab.StartLBA+p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Bind(buf); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.Count(); i++ {
			out[r.Column(i, 0).Int] = r.Column(i, 1).Int
		}
	}
	return out
}

func setVal(v int64) []SetClause {
	return []SetClause{{Column: "val", E: expr.IntConst(v)}}
}

func TestCommitPublishesAndLogs(t *testing.T) {
	f := newFixture(t, 100)
	tx := f.mgr.Begin()
	s := f.s
	n, err := tx.Update("t",
		expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "id"), R: expr.IntConst(10)},
		setVal(777))
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("updated %d rows, want 10", n)
	}
	// Nothing visible before commit.
	if vals := f.readVals(t); vals[0] != 0 {
		t.Fatalf("pre-commit leak: id 0 has val %d", vals[0])
	}
	if _, err := tx.Commit(0); err != nil {
		t.Fatal(err)
	}
	vals := f.readVals(t)
	for id := int64(0); id < 10; id++ {
		if vals[id] != 777 {
			t.Fatalf("id %d = %d, want 777", id, vals[id])
		}
	}
	if vals[50] != 50 {
		t.Fatalf("unmatched row changed: id 50 = %d", vals[50])
	}
	if st := f.mgr.Log().Stats(); st.PageWrites == 0 {
		t.Fatal("commit flushed no log pages")
	}
	// Double commit is an error.
	if _, err := tx.Commit(0); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second commit: %v, want ErrTxnDone", err)
	}
}

func TestAbortLeavesNoTrace(t *testing.T) {
	f := newFixture(t, 50)
	tx := f.mgr.Begin()
	if _, err := tx.Update("t", nil, setVal(999)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if vals := f.readVals(t); vals[7] != 7 {
		t.Fatalf("abort leaked: id 7 = %d", vals[7])
	}
	if st := f.mgr.Log().Stats(); st.PageWrites != 0 {
		t.Fatalf("abort wrote %d log pages", st.PageWrites)
	}
	if d := f.dev.writes; d != 0 {
		t.Fatalf("abort wrote %d data pages", d)
	}
	if _, err := tx.Update("t", nil, setVal(1)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("update after abort: %v, want ErrTxnDone", err)
	}
}

func TestSnapshotReadsIgnoreLaterCommits(t *testing.T) {
	f := newFixture(t, 50)
	s := f.s
	early := f.mgr.Begin() // snapshot before any commit

	late := f.mgr.Begin()
	if _, err := late.Update("t",
		expr.Cmp{Op: expr.GE, L: expr.ColRef(s, "id"), R: expr.IntConst(40)},
		setVal(123)); err != nil {
		t.Fatal(err)
	}
	if _, err := late.Commit(0); err != nil {
		t.Fatal(err)
	}

	// early's updates read pre-update values as of ITS OWN reads — its
	// staging reads committed state at read time, but the conflict
	// check must reject it for touching pages late rewrote.
	if _, err := early.Update("t", nil, setVal(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := early.Commit(0); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("overlapping commit: %v, want ErrWriteConflict", err)
	}
	// The conflict aborted early; late's values survive.
	if vals := f.readVals(t); vals[45] != 123 {
		t.Fatalf("winner's value lost: id 45 = %d", vals[45])
	}
}

func TestDisjointPagesDoNotConflict(t *testing.T) {
	f := newFixture(t, 600) // several pages of 2-int rows
	if f.tab.Pages < 2 {
		t.Fatalf("fixture has %d pages, need at least 2", f.tab.Pages)
	}
	s := f.s
	perPage := int64(page.Capacity(s, page.NSM))

	a := f.mgr.Begin()
	b := f.mgr.Begin()
	// a updates rows on page 0, b updates rows on the last page.
	if _, err := a.Update("t",
		expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "id"), R: expr.IntConst(3)},
		setVal(111)); err != nil {
		t.Fatal(err)
	}
	lastStart := (f.tab.Pages - 1) * perPage
	if _, err := b.Update("t",
		expr.Cmp{Op: expr.GE, L: expr.ColRef(s, "id"), R: expr.IntConst(lastStart)},
		setVal(222)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(0); err != nil {
		t.Fatalf("disjoint-page commit conflicted: %v", err)
	}
	vals := f.readVals(t)
	if vals[0] != 111 || vals[lastStart] != 222 {
		t.Fatalf("vals[0]=%d vals[%d]=%d, want 111/222", vals[0], lastStart, vals[lastStart])
	}
}

func TestGroupCommitSharesFlush(t *testing.T) {
	f := newFixture(t, 600)
	s := f.s
	perPage := int64(page.Capacity(s, page.NSM))
	mk := func(pageIdx int64, v int64) *Txn {
		tx := f.mgr.Begin()
		lo, hi := pageIdx*perPage, pageIdx*perPage+2
		if _, err := tx.Update("t",
			expr.And{Terms: []expr.Expr{
				expr.Cmp{Op: expr.GE, L: expr.ColRef(s, "id"), R: expr.IntConst(lo)},
				expr.Cmp{Op: expr.LT, L: expr.ColRef(s, "id"), R: expr.IntConst(hi)}}},
			setVal(v)); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	group := []*Txn{mk(0, 1), mk(1, 2)}
	ack, err := f.mgr.CommitGroup(group, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = ack
	st := f.mgr.Log().Stats()
	if st.Flushes != 1 {
		t.Fatalf("group of 2 used %d flushes, want 1", st.Flushes)
	}
	vals := f.readVals(t)
	if vals[0] != 1 || vals[perPage] != 2 {
		t.Fatalf("group commit lost a member: vals[0]=%d vals[%d]=%d", vals[0], perPage, vals[perPage])
	}
}

func TestIntraGroupConflictAbortsWholeGroup(t *testing.T) {
	f := newFixture(t, 50)
	a := f.mgr.Begin()
	b := f.mgr.Begin()
	if _, err := a.Update("t", nil, setVal(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update("t", nil, setVal(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.CommitGroup([]*Txn{a, b}, 0); !errors.Is(err, ErrWriteConflict) {
		t.Fatal("same-page group members must conflict")
	}
	if vals := f.readVals(t); vals[10] != 10 {
		t.Fatalf("aborted group leaked: id 10 = %d", vals[10])
	}
	// Both members are dead.
	if _, err := a.Commit(0); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("member a after group abort: %v", err)
	}
}

func TestNonDurableTableSkipsLog(t *testing.T) {
	f := newFixture(t, 50)
	f.tab.Durable = false
	tx := f.mgr.Begin()
	if _, err := tx.Update("t", nil, setVal(31)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(0); err != nil {
		t.Fatal(err)
	}
	if st := f.mgr.Log().Stats(); st.Appends != 0 || st.PageWrites != 0 {
		t.Fatalf("non-durable commit logged: %+v", st)
	}
	if vals := f.readVals(t); vals[3] != 31 {
		t.Fatalf("non-durable commit not force-written: id 3 = %d", vals[3])
	}
}

func TestUpdateValidation(t *testing.T) {
	f := newFixture(t, 10)
	tx := f.mgr.Begin()
	if _, err := tx.Update("nope", nil, setVal(1)); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := tx.Update("t", nil, nil); err == nil {
		t.Error("empty SET accepted")
	}
	if _, err := tx.Update("t", nil, []SetClause{{Column: "ghost", E: expr.IntConst(1)}}); err == nil {
		t.Error("unknown column accepted")
	}
	// The transaction survives failed updates and can still commit
	// staged work.
	if _, err := tx.Update("t", nil, setVal(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(0); err != nil {
		t.Fatal(err)
	}
}

// aliasDev hands out its own page buffers, as the simulated SSD does:
// a reader that writes through one corrupts the device.
type aliasDev struct{ *memDev }

func (d aliasDev) ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error) {
	p, ok := d.pages[lba]
	if !ok {
		return nil, ready, fmt.Errorf("aliasdev: read unmapped page %d", lba)
	}
	return p, ready, nil
}

// TestUpdateCopiesOnlyMatchingPages pins the scan's contract: an update
// whose predicate matches rows of one page out of N reads the other
// N-1 where they live and stages exactly one private page; the device's
// buffers are untouched until commit; the redo records and the staged
// image are exactly the rebuilt page's; and what the scan allocates
// does not grow with N. The pool variant runs through a 2-frame pool,
// which the scan can only cross if it drops each page's pin.
func TestUpdateCopiesOnlyMatchingPages(t *testing.T) {
	perPage := page.Capacity(testSchema(), page.NSM)
	id := expr.ColRef(testSchema(), "id")
	is := func(v int) expr.Expr { return expr.Cmp{Op: expr.EQ, L: id, R: expr.IntConst(int64(v))} }
	// Two predicates that both select ids perPage+3 .. perPage+5: a range,
	// and a LIKE over a CHAR-valued CASE OR'd with an integer CASE.
	filters := []expr.Expr{
		expr.And{Terms: []expr.Expr{
			expr.Cmp{Op: expr.GE, L: id, R: expr.IntConst(int64(perPage + 3))},
			expr.Cmp{Op: expr.LT, L: id, R: expr.IntConst(int64(perPage + 6))},
		}},
		expr.Or{Terms: []expr.Expr{
			expr.LikePrefix{
				E:      expr.Case{Cond: is(perPage + 3), Then: expr.StrConst("PROMO X"), Else: expr.StrConst("PLAIN")},
				Prefix: "PROMO",
			},
			is(perPage + 4),
			expr.Case{Cond: is(perPage + 5), Then: expr.IntConst(1), Else: expr.IntConst(0)},
		}},
	}
	// allocs builds an N-page table and reports what one Update of page 1
	// under filter allocates, after checking everything else about it.
	allocs := func(t *testing.T, pages int, pooled bool, filter expr.Expr) float64 {
		f := newFixture(t, pages*perPage)
		if f.tab.Pages != int64(pages) {
			t.Fatalf("fixture has %d pages, want %d", f.tab.Pages, pages)
		}
		f.tab.Dev = aliasDev{f.dev}
		if pooled {
			f.tab.Pool = bufpool.New(2, nil)
		}
		before := make(map[int64][]byte)
		for lba, p := range f.dev.pages {
			before[lba] = append([]byte(nil), p...)
		}

		// The expected image and records, built independently.
		var wantRecs []wal.Record
		b := page.NewBuilder(f.s, page.NSM)
		b.Reset(1)
		for i := 0; i < perPage; i++ {
			id := int64(perPage + i)
			tup := schema.Tuple{schema.IntVal(id), schema.IntVal(id)}
			if id >= int64(perPage+3) && id < int64(perPage+6) {
				tup[1] = schema.IntVal(-1)
				wantRecs = append(wantRecs, wal.Record{Txn: 1, Type: wal.RecUpdate, Table: "t",
					PageIdx: 1, Slot: uint16(i), Tuple: f.s.EncodeTuple(nil, tup)})
			}
			b.Append(tup)
		}
		wantImage := append([]byte(nil), b.Finish()...)

		tx := f.mgr.Begin()
		n, err := tx.Update("t", filter, setVal(-1))
		if err != nil || n != 3 {
			t.Fatalf("Update = %d, %v; want 3 rows", n, err)
		}
		if staged := tx.staged["t"]; len(staged) != 1 || !bytes.Equal(staged[1], wantImage) {
			t.Fatalf("staged %d pages; page 1 matches the rebuilt image: %v", len(staged), bytes.Equal(staged[1], wantImage))
		}
		if !reflect.DeepEqual(tx.records, wantRecs) {
			t.Fatalf("redo records\n got %+v\nwant %+v", tx.records, wantRecs)
		}
		for lba, p := range f.dev.pages {
			if !bytes.Equal(p, before[lba]) {
				t.Fatalf("device page %d changed before commit", lba)
			}
		}
		tx.Abort()

		// Now and then a sample picks up a one-off allocation that has
		// nothing to do with the table's size. That noise only ever adds,
		// so the least of several samples is the Update's own count.
		least := math.Inf(1)
		for i := 0; i < 5; i++ {
			least = math.Min(least, testing.AllocsPerRun(5, func() {
				tx := f.mgr.Begin()
				if n, err := tx.Update("t", filter, setVal(-1)); err != nil || n != 3 {
					t.Fatalf("Update = %d, %v", n, err)
				}
				tx.Abort()
			}))
		}
		return least
	}
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			for _, filter := range filters {
				small, large := allocs(t, 4, pooled, filter), allocs(t, 32, pooled, filter)
				if large > small {
					t.Fatalf("%s: allocations grow with the table: %v for 4 pages, %v for 32", filter, small, large)
				}
			}
		})
	}
}
