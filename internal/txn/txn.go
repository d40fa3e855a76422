// Package txn provides begin/commit/abort transactions with MVCC
// snapshot semantics over the page heap, logging redo after-images to
// a write-ahead log before any committed state becomes visible.
//
// Isolation model. A transaction stages every page it modifies in a
// private copy; readers never see staged pages. Commit is
// first-committer-wins: each committed page carries a commit sequence
// number, and a transaction whose staged pages were committed by
// someone else after its begin snapshot fails with ErrWriteConflict
// instead of silently overwriting. Engine clones and cluster replicas
// read only durable device state, so in-flight queries on them observe
// complete checkpoints — never a partial update (the buffer-pool
// coherence veto covers the primary engine's own pushdown).
//
// Durability model. Tables with a buffer pool follow no-force: commit
// publishes pages to the pool as dirty (the §4.3 coherence veto
// engages) and the WAL's redo records make the commit durable; media
// catches up at the next checkpoint. Tables without a pool follow
// force: commit writes pages straight to media after the WAL flush.
// Non-durable tables (HDD-resident; never imaged or recovered) skip
// the log and are force-written page-atomically at commit.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"smartssd/internal/bufpool"
	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/wal"
)

// Typed sentinels.
var (
	// ErrWriteConflict reports first-committer-wins failure: another
	// transaction committed one of this transaction's staged pages
	// after its begin snapshot.
	ErrWriteConflict = errors.New("txn: write conflict")
	// ErrTxnDone reports use of a transaction after Commit or Abort.
	ErrTxnDone = errors.New("txn: transaction already finished")
)

// SetClause assigns one column from an expression over the row's
// pre-update values.
type SetClause struct {
	Column string
	E      expr.Expr
}

// Device is the page-granular medium a table lives on. Both
// *ssd.Device and *hdd.Device satisfy it.
type Device interface {
	ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error)
	WritePage(lba int64, data []byte, ready time.Duration) (time.Duration, error)
}

// Table describes one updatable table to the transaction manager.
type Table struct {
	Name     string
	Schema   *schema.Schema
	Layout   page.Layout
	StartLBA int64
	Pages    int64
	// Dev reads committed pages and receives force-written commits.
	Dev Device
	// Pool, when non-nil, receives committed pages as dirty host
	// copies (no-force policy; the coherence veto vetoes pushdown
	// until the next checkpoint). When nil, commit force-writes pages
	// to Dev directly.
	Pool *bufpool.Pool
	// Durable tables log redo after-images and participate in crash
	// recovery. Non-durable tables (HDD baselines) are force-written
	// only.
	Durable bool
}

// Manager coordinates transactions over one WAL. Not safe for
// concurrent use; callers serialize (the engine is single-threaded,
// the cluster holds its mutex).
type Manager struct {
	log     *wal.Log
	resolve func(name string) (Table, error)

	nextTxn   uint64
	commitSeq uint64
	// lastWrite stamps the commit sequence that last rewrote each
	// (table, page), for first-committer-wins conflict checks.
	lastWrite map[string]map[int64]uint64
}

// NewManager returns a manager logging to log and resolving table
// names through resolve.
func NewManager(log *wal.Log, resolve func(name string) (Table, error)) *Manager {
	return &Manager{
		log:       log,
		resolve:   resolve,
		lastWrite: make(map[string]map[int64]uint64),
	}
}

// Log exposes the manager's WAL (for checkpointing and stats).
func (m *Manager) Log() *wal.Log { return m.log }

// Begin starts a transaction whose snapshot is the current committed
// state.
func (m *Manager) Begin() *Txn {
	m.nextTxn++
	return &Txn{
		mgr:      m,
		id:       m.nextTxn,
		beginSeq: m.commitSeq,
		staged:   make(map[string]map[int64][]byte),
	}
}

// Txn is one transaction. All reads and writes go through the staging
// map, so nothing is visible to other transactions or queries until
// Commit.
type Txn struct {
	mgr      *Manager
	id       uint64
	beginSeq uint64
	// staged maps table → page index → private page copy.
	staged map[string]map[int64][]byte
	// records accumulates redo after-images for durable tables.
	records []wal.Record
	done    bool
}

// ID reports the transaction id (also its WAL transaction id).
func (t *Txn) ID() uint64 { return t.id }

// committedPage returns the committed bytes of page idx for reading
// only: the staged copy if this transaction already rewrote it, else
// the pool's frame (caching a device read, as the host read path
// does), else the device's own buffer. Nothing is copied — callers
// must not write through the result. When pinned is true the bytes are
// a pool frame the caller must Unpin once it has finished reading.
func (t *Txn) committedPage(tab Table, idx int64) (data []byte, pinned bool, err error) {
	if data := t.staged[tab.Name][idx]; data != nil {
		return data, false, nil
	}
	lba := tab.StartLBA + idx
	if tab.Pool == nil {
		data, _, err := tab.Dev.ReadPage(lba, 0)
		return data, false, err
	}
	data, hit := tab.Pool.Get(lba)
	if !hit {
		devData, _, err := tab.Dev.ReadPage(lba, 0)
		if err != nil {
			return nil, false, err
		}
		// Borrow the device's immutable page buffer: this is a
		// clean cache fill, and a later commit publish replaces
		// the borrowed reference with an owned dirty copy.
		if err := tab.Pool.PutBorrowed(lba, devData); err != nil {
			return nil, false, fmt.Errorf("txn: pool full: %w", err)
		}
		data, _ = tab.Pool.Get(lba)
		// Drop the extra pin from Put; the Get pin remains.
		if err := tab.Pool.Unpin(lba, false); err != nil {
			return nil, false, err
		}
	}
	return data, true, nil
}

// Update applies SET clauses to the rows of table matching filter,
// staging the rebuilt pages privately. It reports the number of rows
// updated. A nil filter updates every row.
//
// The scan reads committed pages where they live and copies nothing: a
// page costs the transaction memory only once one of its rows matches.
func (t *Txn) Update(table string, filter expr.Expr, sets []SetClause) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	tab, err := t.mgr.resolve(table)
	if err != nil {
		return 0, err
	}
	if len(sets) == 0 {
		return 0, errors.New("txn: Update without SET clauses")
	}
	setIdx := make([]int, len(sets))
	for i, c := range sets {
		idx := tab.Schema.ColumnIndex(c.Column)
		if idx < 0 {
			return 0, fmt.Errorf("txn: Update: no column %q in %q", c.Column, table)
		}
		setIdx[i] = idx
	}

	var updated int64
	r := page.ReaderFor(tab.Schema)
	match := newPageFilter(tab, r, filter)
	var builder *page.Builder
	for idx := int64(0); idx < tab.Pages; idx++ {
		data, pinned, err := t.committedPage(tab, idx)
		if err != nil {
			return updated, err
		}
		if err = r.Bind(data); err != nil {
			err = fmt.Errorf("txn: Update: page %d: %w", idx, err)
		} else if match.any() {
			if builder == nil {
				builder = page.NewBuilder(tab.Schema, tab.Layout)
			}
			var n int64
			n, err = t.rewritePage(tab, idx, &match.row, builder, filter, sets, setIdx)
			updated += n
		}
		if pinned {
			if uerr := tab.Pool.Unpin(tab.StartLBA+idx, false); err == nil {
				err = uerr
			}
		}
		if err != nil {
			return updated, err
		}
	}
	return updated, nil
}

// rewritePage rebuilds the page row.r is bound to with the SET clauses
// applied to its matching rows, logs their after-images, and stages the
// result as page idx of tab. It reports the number of rows updated.
func (t *Txn) rewritePage(tab Table, idx int64, row *pageRow, builder *page.Builder,
	filter expr.Expr, sets []SetClause, setIdx []int) (int64, error) {
	r, s := row.r, tab.Schema
	var updated int64
	var tup schema.Tuple
	var scratch []byte
	builder.Reset(r.PageNo())
	for i := 0; i < r.Count(); i++ {
		tup = r.Tuple(tup, i)
		if row.i = i; filter == nil || filter.Eval(row).Int != 0 {
			// Evaluate all SET expressions against pre-update
			// values before assigning any (SQL UPDATE semantics).
			vals := make([]schema.Value, len(sets))
			for si, c := range sets {
				vals[si] = c.E.Eval(expr.TupleRow(tup))
			}
			out := cloneRow(tup)
			for si, ci := range setIdx {
				out[ci] = vals[si]
			}
			tup = out
			updated++
			if tab.Durable {
				scratch = s.EncodeTuple(scratch[:0], tup)
				t.records = append(t.records, wal.Record{
					Txn:     t.id,
					Type:    wal.RecUpdate,
					Table:   tab.Name,
					PageIdx: uint32(idx),
					Slot:    uint16(i),
					Tuple:   append([]byte(nil), scratch...),
				})
			}
		}
		if !builder.Append(tup) {
			return updated, fmt.Errorf("txn: Update: rebuilt page %d overflowed", idx)
		}
	}
	// The rebuilt image is the page's private copy; the committed bytes
	// the reader is bound to are never written.
	byIdx := t.staged[tab.Name]
	if byIdx == nil {
		byIdx = make(map[int64][]byte)
		t.staged[tab.Name] = byIdx
	}
	byIdx[idx] = append([]byte(nil), builder.Finish()...)
	return updated, nil
}

// Abort discards the transaction. Nothing was visible, nothing was
// logged; the log never carries records for aborted transactions.
func (t *Txn) Abort() {
	t.done = true
	t.staged = nil
	t.records = nil
}

// Commit makes the transaction durable and visible: conflict check,
// WAL append + flush (the durability point — the returned time is the
// group-commit acknowledgement), then publish of the staged pages. A
// conflict aborts the transaction.
func (t *Txn) Commit(ready time.Duration) (time.Duration, error) {
	return t.mgr.CommitGroup([]*Txn{t}, ready)
}

// stagedTables returns the transaction's staged table names, sorted
// for deterministic publish order.
func (t *Txn) stagedTables() []string {
	names := make([]string, 0, len(t.staged))
	for name := range t.staged {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// checkConflicts reports whether any of t's staged pages was committed
// after t's begin snapshot.
func (m *Manager) checkConflicts(t *Txn) error {
	for _, name := range t.stagedTables() {
		byIdx := m.lastWrite[name]
		if byIdx == nil {
			continue
		}
		for idx := range t.staged[name] {
			if seq := byIdx[idx]; seq > t.beginSeq {
				return fmt.Errorf("%w: page %d of %q committed by a later transaction", ErrWriteConflict, idx, name)
			}
		}
	}
	return nil
}

// CommitGroup commits several transactions through one WAL flush —
// group commit: every transaction in the group shares the same
// acknowledgement time, and the log pays one page-write sequence for
// all of them. The group fails as a unit on conflict or flush error
// (every member is aborted); on success all members are durable.
func (m *Manager) CommitGroup(txs []*Txn, ready time.Duration) (time.Duration, error) {
	for _, t := range txs {
		if t.done {
			return ready, ErrTxnDone
		}
		if t.mgr != m {
			return ready, errors.New("txn: transaction from another manager")
		}
	}
	// Conflict-check the whole group first, including intra-group
	// conflicts: two group members staging the same page conflict with
	// each other (both began before either committed).
	type pageKey struct {
		table string
		idx   int64
	}
	inGroup := make(map[pageKey]int)
	for ti, t := range txs {
		if err := m.checkConflicts(t); err != nil {
			m.abortAll(txs)
			return ready, err
		}
		for _, name := range t.stagedTables() {
			for idx := range t.staged[name] {
				k := pageKey{name, idx}
				if prev, ok := inGroup[k]; ok && prev != ti {
					m.abortAll(txs)
					return ready, fmt.Errorf("%w: page %d of %q staged by two group members",
						ErrWriteConflict, idx, name)
				}
				inGroup[k] = ti
			}
		}
	}

	// Write-ahead: append begin/update/commit for every member, then
	// one flush. Until the flush returns, nothing is committed.
	logged := false
	for _, t := range txs {
		if len(t.records) == 0 {
			continue
		}
		logged = true
		if _, err := m.log.Append(wal.Record{Txn: t.id, Type: wal.RecBegin}); err != nil {
			m.abortAll(txs)
			return ready, err
		}
		for _, rec := range t.records {
			if _, err := m.log.Append(rec); err != nil {
				m.abortAll(txs)
				return ready, err
			}
		}
		if _, err := m.log.Append(wal.Record{Txn: t.id, Type: wal.RecCommit}); err != nil {
			m.abortAll(txs)
			return ready, err
		}
	}
	ack := ready
	if logged {
		var err error
		ack, err = m.log.Flush(ready)
		if err != nil {
			m.abortAll(txs)
			return ack, fmt.Errorf("txn: commit flush: %w", err)
		}
	}

	// Publish: pool tables become dirty host copies (no-force; the
	// coherence veto engages), pool-less tables are force-written.
	for _, t := range txs {
		m.commitSeq++
		for _, name := range t.stagedTables() {
			tab, err := m.resolve(name)
			if err != nil {
				return ack, err
			}
			byIdx := t.staged[name]
			idxs := make([]int64, 0, len(byIdx))
			for idx := range byIdx {
				idxs = append(idxs, idx)
			}
			sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
			for _, idx := range idxs {
				lba := tab.StartLBA + idx
				if tab.Pool != nil {
					if err := tab.Pool.Put(lba, byIdx[idx]); err != nil {
						return ack, fmt.Errorf("txn: publish page %d: %w", lba, err)
					}
					if err := tab.Pool.Unpin(lba, true); err != nil {
						return ack, err
					}
				} else {
					if _, err := tab.Dev.WritePage(lba, byIdx[idx], ack); err != nil {
						return ack, fmt.Errorf("txn: force-write page %d: %w", lba, err)
					}
				}
			}
			stamps := m.lastWrite[name]
			if stamps == nil {
				stamps = make(map[int64]uint64)
				m.lastWrite[name] = stamps
			}
			for _, idx := range idxs {
				stamps[idx] = m.commitSeq
			}
		}
		t.done = true
		t.staged = nil
		t.records = nil
	}
	return ack, nil
}

func (m *Manager) abortAll(txs []*Txn) {
	for _, t := range txs {
		if !t.done {
			t.Abort()
		}
	}
}

// pageRow adapts a tuple inside a bound page to expr.Row. It is used by
// pointer, one per scan, so the expr.Row conversion never allocates.
type pageRow struct {
	r *page.Reader
	i int
}

func (p *pageRow) Col(c int) schema.Value { return p.r.Column(p.i, c) }

// pageFilter answers whether any row of the page its reader is bound to
// satisfies a predicate: through the compiled batch kernel the scans
// use when the predicate is in the batch compiler's class — the
// referenced columns are decoded in bulk from the page, read-only —
// and row by row otherwise.
type pageFilter struct {
	filter expr.Expr
	row    pageRow
	kernel *expr.BatchExpr // nil: evaluate filter row by row
	batch  *schema.Batch
	ident  []int32
	cols   []int // the filter's columns; vectors are attached to batch
}

func newPageFilter(tab Table, r *page.Reader, filter expr.Expr) *pageFilter {
	f := &pageFilter{filter: filter, row: pageRow{r: r}}
	if filter == nil {
		return f
	}
	var ok bool
	if f.kernel, ok = expr.CompileBatch(filter); !ok {
		return f
	}
	capacity := page.Capacity(tab.Schema, tab.Layout)
	f.batch = schema.NewBatch(tab.Schema.NumColumns())
	f.ident = make([]int32, capacity)
	f.cols = expr.DistinctColumns(filter)
	for _, c := range f.cols {
		if tab.Schema.Column(c).Kind == schema.Char {
			f.batch.SetBytesVec(c, make([][]byte, capacity))
		} else {
			f.batch.SetInt64Vec(c, make([]int64, capacity))
		}
	}
	return f
}

// any reports whether any row of the bound page matches (a nil filter
// matches every row).
func (f *pageFilter) any() bool {
	r := f.row.r
	n := r.Count()
	if f.kernel == nil {
		for f.row.i = 0; f.row.i < n; f.row.i++ {
			if f.filter == nil || f.filter.Eval(&f.row).Int != 0 {
				return true
			}
		}
		return false
	}
	f.batch.SetLen(n)
	for _, c := range f.cols {
		if v := f.batch.Int64Vec(c); v != nil {
			r.Int64ColumnInto(c, v)
		} else {
			r.BytesColumnInto(c, f.batch.BytesVec(c))
		}
	}
	sel := f.ident[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	return len(f.kernel.Select(f.batch, sel)) > 0
}

func cloneRow(t schema.Tuple) schema.Tuple {
	out := make(schema.Tuple, len(t))
	for i, v := range t {
		if v.Bytes != nil {
			v.Bytes = append([]byte(nil), v.Bytes...)
		}
		out[i] = v
	}
	return out
}
