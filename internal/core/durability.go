package core

import (
	"errors"
	"fmt"
	"time"

	"smartssd/internal/expr"
	"smartssd/internal/fault"
	"smartssd/internal/ssd"
	"smartssd/internal/txn"
	"smartssd/internal/wal"
)

// The durable write path of both backends: a write-ahead log at the top
// of an SSD (the engine's, or the cluster's device 0) and redo recovery,
// both brought up by internal/txn. The first Update activates the log,
// so read-only engines — and their goldens — never touch it.

// RecoveryReport summarizes one crash recovery.
type RecoveryReport = txn.RecoveryReport

// SetClause assigns one column from an expression over the row's
// pre-update values. It is an alias of the transaction layer's clause
// so callers can stay at the core API.
type SetClause = txn.SetClause

// guardedWrite is the one way a data page reaches media on the durable
// write path: the engine's pool flushes and every copy of a cluster
// commit. It counts the attempt in *writes, and a power cut on inj
// refuses the write entirely (pages are page-atomic; they never
// partially reach media).
func guardedWrite(writes *uint64, inj *fault.Injector, dev *ssd.Device, lba int64, data []byte, ready time.Duration) (time.Duration, error) {
	*writes++
	if err := wal.GuardDataWrite(inj); err != nil {
		return ready, err
	}
	return dev.WritePage(lba, data, ready)
}

// checkLogRegion refuses a table that would take pages more pages
// beyond used on the device that holds log, reaching into its region.
// Before activation (log nil) the region is free to take; activation
// then refuses instead.
func checkLogRegion(log *wal.Log, name string, used, pages int64) error {
	if log != nil && used+pages > log.Start() {
		return fmt.Errorf("core: table %q (%d pages) would overlap the WAL region at page %d",
			name, pages, log.Start())
	}
	return nil
}

// resolveTxnTable adapts a catalogued table to the transaction layer.
func (e *Engine) resolveTxnTable(name string) (txn.Table, error) {
	t, err := e.Table(name)
	if err != nil {
		return txn.Table{}, err
	}
	f := t.File
	tab := txn.Table{Name: name, Schema: f.Schema(), Layout: f.Layout(), StartLBA: f.StartLBA(), Pages: f.Pages()}
	switch t.Target {
	case OnSSD:
		tab.Dev = e.ssd
		tab.Pool = e.pool
		tab.Durable = true
	case OnHDD:
		if e.hdd == nil {
			return txn.Table{}, errors.New("core: HDD disabled in this engine")
		}
		// Same code path, no pool-coherence veto: HDD scans read from
		// the device, so commits are force-written there.
		tab.Dev = e.hdd
	}
	return tab, nil
}

// Update runs a single-statement transaction: begin, stage the SET
// clauses on rows matching filter, commit. For SSD-resident tables the
// commit is durable (WAL flush) before it acknowledges, and the
// modified pages become dirty host copies in the buffer pool — which
// makes the device's copies stale and (until FlushPool) vetoes
// pushdown over the table, exactly the coherence problem §4.3 of the
// paper discusses. HDD-resident tables take the same code path without
// the pool-coherence veto: their pages are force-written at commit
// (the HDD is never imaged, so it has no redo log to replay).
//
// The engine's query class has no update pushdown ("queries with any
// updates cannot be processed in the SSD without appropriate
// coordination with the DBMS transaction manager"), so Update always
// executes on the host. It reports the number of rows updated.
func (e *Engine) Update(table string, filter expr.Expr, sets []SetClause) (int64, error) {
	if e.txns == nil {
		m, err := txn.Activate(e.ssd, e.ssd.Injector(), e.ssdAlloc.Used(), e.resolveTxnTable)
		if err != nil {
			return 0, fmt.Errorf("core: %w", err)
		}
		e.txns = m
	}
	tx := e.txns.Begin()
	n, err := tx.Update(table, filter, sets)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	if _, err := tx.Commit(0); err != nil {
		return 0, err
	}
	return n, nil
}

// FlushPool writes all dirty buffer-pool pages back to the device,
// restoring coherence so the planner may push down again. With the
// write-ahead log active this is a checkpoint: once every data page is
// durable the log is reset (trimmed, epoch bumped).
func (e *Engine) FlushPool() error {
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	if log := e.WAL(); log != nil {
		return log.Reset()
	}
	return nil
}

// WAL exposes the write-ahead log (nil until the first Update).
func (e *Engine) WAL() *wal.Log { return e.txns.Log() }

// DurableWrites reports how many guarded durable writes — WAL page
// writes plus data-page flushes — the engine has attempted. The
// power-cut sweep uses a fault-free run's count as the bound on
// meaningful cut points.
func (e *Engine) DurableWrites() uint64 { return e.dataWrites + e.WAL().Stats().PageWrites }

// LastRecovery reports the most recent Recover result (nil if Recover
// never ran).
func (e *Engine) LastRecovery() *RecoveryReport { return e.lastRecovery }

// Recover replays the write-ahead log onto the device pages and adopts
// a fresh transaction manager over the checkpointed log (txn.Recover).
// LoadImage calls it automatically, so reloading a crashed engine's
// image yields exactly the committed-prefix state.
func (e *Engine) Recover() (*RecoveryReport, error) {
	m, rep, err := txn.Recover(e.ssd, e.ssd.Injector(), e.resolveTxnTable)
	if err != nil {
		return nil, fmt.Errorf("core: recover: %w", err)
	}
	e.lastRecovery = rep
	if m != nil {
		e.txns = m
		// Cached pages may predate the repairs; recovery starts cold.
		e.pool.Clear()
		e.ResetTiming()
	}
	return rep, nil
}
