package core

import (
	"fmt"
	"time"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/txn"
)

// Cluster write path. The host is the coordinator (§4.3's "master
// node"): it keeps one write-ahead log on device 0's reserved region,
// stages every partition's pages through the transaction layer, and —
// once the log flush acknowledges — force-writes the rebuilt pages to
// the partition's primary and every chained replica, so all copies
// stay byte-identical and replica failover keeps working after
// updates. There is no two-phase commit: workers hold no independent
// state, exactly as in the paper's coordinator framing.

// partitionCopies adapts one partition to txn.Device: reads come from
// the primary, while writes and recovery's restores fan out to every
// copy its ladder lists, each at the copy's own extent. Writes are
// guarded against power cuts by the coordinator's injector.
type partitionCopies struct {
	c    *Cluster
	devs []int             // the devices holding a copy, primary first
	refs []device.TableRef // the copy's extent on each
}

func (p partitionCopies) ReadPage(lba int64, ready time.Duration) ([]byte, time.Duration, error) {
	return p.c.devices[p.devs[0]].ReadPage(lba, ready)
}

func (p partitionCopies) Checked(lba int64, buf []byte) bool {
	return p.c.devices[p.devs[0]].Checked(lba, buf)
}

func (p partitionCopies) MarkChecked(lba int64, buf []byte) {
	p.c.devices[p.devs[0]].MarkChecked(lba, buf)
}

func (p partitionCopies) WritePage(lba int64, data []byte, ready time.Duration) (time.Duration, error) {
	last := ready
	for r, d := range p.devs {
		done, err := guardedWrite(&p.c.dataWrites, p.c.devices[0].Injector(), p.c.devices[d],
			p.refs[r].StartLBA+lba-p.refs[0].StartLBA, data, ready)
		if err != nil {
			return last, err
		}
		if done > last {
			last = done
		}
	}
	return last, nil
}

func (p partitionCopies) RestorePage(lba int64, data []byte) error {
	for r, d := range p.devs {
		if err := p.c.devices[d].RestorePage(p.refs[r].StartLBA+lba-p.refs[0].StartLBA, data); err != nil {
			return err
		}
	}
	return nil
}

// resolvePartition maps a partition file name ("table.pN") to its
// transaction-layer table, whose device fans writes out to every copy.
func (c *Cluster) resolvePartition(name string) (txn.Table, error) {
	for tname, files := range c.tables {
		for i, f := range files {
			if f.Name() == name {
				devs, refs := c.ladder(tname, files, i)
				return txn.Table{Name: name, Schema: f.Schema(), Layout: f.Layout(), StartLBA: f.StartLBA(),
					Pages: f.Pages(), Dev: partitionCopies{c: c, devs: devs, refs: refs}, Durable: true}, nil
			}
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
	if c.txns == nil {
		coord := c.devices[0]
		m, err := txn.Activate(coord, coord.Injector(), c.allocs[0].Used(), c.resolvePartition)
		if err != nil {
			return 0, 0, fmt.Errorf("core: cluster device 0: %w", err)
		}
		c.txns = m
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
	return updated, ack, err
}

// DurableWrites reports the cluster's guarded durable-write attempts
// (coordinator log pages plus fanned-out data-page writes); the
// power-cut sweep uses a fault-free run's count as its bound.
func (c *Cluster) DurableWrites() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dataWrites + c.txns.Log().Stats().PageWrites
}

// Recover replays the coordinator log in place (txn.Recover): power is
// restored, committed after-images are installed on every copy of
// every touched partition, and the log is checkpointed. Restoring every
// copy also repairs copies a crash left diverged mid-fan-out.
func (c *Cluster) Recover() (*RecoveryReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	coord := c.devices[0]
	m, rep, err := txn.Recover(coord, coord.Injector(), c.resolvePartition)
	if err != nil {
		return nil, fmt.Errorf("core: cluster recover: %w", err)
	}
	if m != nil {
		c.txns = m
		c.resetTimingLocked()
	}
	return rep, nil
}
