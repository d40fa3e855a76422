package core

import (
	"fmt"
	"time"

	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/ssd"
	"smartssd/internal/txn"
	"smartssd/internal/wal"
)

// Cluster write path. The host is the coordinator (§4.3's "master
// node"): it keeps one write-ahead log on device 0's reserved region,
// stages every partition's pages through the transaction layer, and —
// once the log flush acknowledges — force-writes the rebuilt pages to
// the partition's primary and every chained replica, so all copies
// stay byte-identical and replica failover keeps working after
// updates. There is no two-phase commit: workers hold no independent
// state, exactly as in the paper's coordinator framing.

// copyRef locates one physical copy of a partition.
type copyRef struct {
	dev   *ssd.Device
	start int64
}

// partitionCopies adapts one partition (primary plus replicas) to
// txn.Device: reads come from the primary, writes fan out to every
// copy at the copy's own extent, each guarded against power cuts by
// the coordinator's injector.
type partitionCopies struct {
	c            *Cluster
	primaryStart int64
	copies       []copyRef
}

func (p partitionCopies) ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error) {
	return p.copies[0].dev.ReadPage(lba, ready)
}

func (p partitionCopies) WritePage(lba int64, data []byte, ready time.Duration) (time.Duration, error) {
	idx := lba - p.primaryStart
	last := ready
	for _, cp := range p.copies {
		p.c.dataWrites++
		if err := wal.GuardDataWrite(p.c.devices[0].Injector()); err != nil {
			return last, err
		}
		done, err := cp.dev.WritePage(cp.start+idx, data, ready)
		if err != nil {
			return last, err
		}
		if done > last {
			last = done
		}
	}
	return last, nil
}

// ensureTxnLocked activates the coordinator log and transaction
// manager. Caller holds c.mu.
func (c *Cluster) ensureTxnLocked() error {
	if c.txns != nil {
		return nil
	}
	coord := c.devices[0]
	start, _ := wal.Region(coord.CapacityPages())
	if used := c.allocs[0].Used(); used > start {
		return fmt.Errorf("core: cluster WAL region starts at page %d but %d pages are allocated on device 0",
			start, used)
	}
	log, err := wal.Create(coord, coord.Injector())
	if err != nil {
		return err
	}
	c.walLog = log
	c.txns = txn.NewManager(log, c.resolvePartition)
	return nil
}

// resolvePartition maps a partition file name ("table.pN") to its
// transaction-layer table, whose device fans writes out to every copy.
func (c *Cluster) resolvePartition(name string) (txn.Table, error) {
	for tname, files := range c.tables {
		for i, f := range files {
			if f.Name() != name {
				continue
			}
			copies := []copyRef{{dev: c.devices[i], start: f.StartLBA()}}
			if reps := c.replicaFiles[tname]; len(reps) > i {
				for j, rf := range reps[i] {
					copies = append(copies, copyRef{dev: c.devices[(i+1+j)%len(c.devices)], start: rf.StartLBA()})
				}
			}
			return txn.Table{
				Name:     name,
				Schema:   f.Schema(),
				Layout:   f.Layout(),
				StartLBA: f.StartLBA(),
				Pages:    f.Pages(),
				Dev:      partitionCopies{c: c, primaryStart: f.StartLBA(), copies: copies},
				Durable:  true,
			}, nil
		}
	}
	return txn.Table{}, fmt.Errorf("%w: partition %q", ErrNoTable, name)
}

// Update runs one transactional UPDATE across every partition of the
// named table: stage all partitions, append the redo records to the
// coordinator log, flush (the durability point — the returned time is
// when the commit is acknowledged), then force-write the rebuilt pages
// to the primary and every replica copy. It reports the number of rows
// updated and the acknowledgement time.
func (c *Cluster) Update(table string, filter expr.Expr, sets []SetClause) (int64, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	files, ok := c.tables[table]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	if c.replicated[table] {
		// Each device holds every row, so updating each copy as a
		// partition would count every row once per device.
		return 0, 0, fmt.Errorf("core: cluster table %q is replicated; updates need a partitioned table", table)
	}
	if err := c.ensureTxnLocked(); err != nil {
		return 0, 0, err
	}
	tx := c.txns.Begin()
	var updated int64
	for _, f := range files {
		n, err := tx.Update(f.Name(), filter, sets)
		if err != nil {
			tx.Abort()
			return updated, 0, err
		}
		updated += n
	}
	ack, err := tx.Commit(0)
	if err != nil {
		return updated, ack, err
	}
	return updated, ack, nil
}

// DurableWrites reports the cluster's guarded durable-write attempts
// (coordinator log pages plus fanned-out data-page writes); the
// power-cut sweep uses a fault-free run's count as its bound.
func (c *Cluster) DurableWrites() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.dataWrites
	if c.walLog != nil {
		n += c.walLog.Stats().PageWrites
	}
	return n
}

// Recover replays the coordinator log in place: power is restored,
// committed after-images are installed on every copy of every touched
// partition, and the log is checkpointed. Mid-log damage and record
// corruption surface as typed errors (wal.ErrTornWrite,
// wal.ErrCorruptRecord); they are never silently replayed. Recovery is
// idempotent — a crash mid-apply just replays again.
func (c *Cluster) Recover() (*RecoveryReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	coord := c.devices[0]
	coord.Injector().RestorePower()
	log, rec, err := wal.Open(coord, coord.Injector())
	if err != nil {
		return nil, fmt.Errorf("core: cluster recover: %w", err)
	}
	rep := &RecoveryReport{
		Committed:     rec.Committed,
		LogPages:      rec.ValidPages,
		TruncatedTail: rec.TruncatedTail,
	}
	if rec.ValidPages == 0 && !rec.TruncatedTail {
		return rep, nil
	}

	type pageKey struct {
		part string
		idx  uint32
	}
	repaired := make(map[pageKey][]byte)
	tabs := make(map[string]txn.Table)
	var order []pageKey
	for _, u := range rec.CommittedUpdates() {
		tab, ok := tabs[u.Table]
		if !ok {
			tab, err = c.resolvePartition(u.Table)
			if err != nil {
				return nil, fmt.Errorf("core: cluster recover: redo lsn %d: %w", u.LSN, err)
			}
			tabs[u.Table] = tab
		}
		if int64(u.PageIdx) >= tab.Pages {
			return nil, fmt.Errorf("core: cluster recover: redo lsn %d: page %d beyond %q (%d pages)",
				u.LSN, u.PageIdx, u.Table, tab.Pages)
		}
		k := pageKey{u.Table, u.PageIdx}
		buf, ok := repaired[k]
		if !ok {
			pc := tab.Dev.(partitionCopies)
			data, _, err := pc.copies[0].dev.ReadPage(tab.StartLBA+int64(u.PageIdx), 0)
			if err != nil {
				return nil, fmt.Errorf("core: cluster recover: read %q page %d: %w", u.Table, u.PageIdx, err)
			}
			buf = append([]byte(nil), data...)
			repaired[k] = buf
			order = append(order, k)
		}
		if err := page.ReplaceTuple(tab.Schema, buf, int(u.Slot), u.Tuple); err != nil {
			return nil, fmt.Errorf("core: cluster recover: redo lsn %d: %w", u.LSN, err)
		}
		rep.UpdatesApplied++
	}
	for _, k := range order {
		tab := tabs[k.part]
		pc := tab.Dev.(partitionCopies)
		for _, cp := range pc.copies {
			if err := cp.dev.RestorePage(cp.start+int64(k.idx), repaired[k]); err != nil {
				return nil, fmt.Errorf("core: cluster recover: repair %q page %d: %w", k.part, k.idx, err)
			}
		}
		rep.PagesRepaired++
	}

	if err := log.Reset(); err != nil {
		return nil, err
	}
	c.walLog = log
	c.txns = txn.NewManager(log, c.resolvePartition)
	c.resetTimingLocked()
	return rep, nil
}
