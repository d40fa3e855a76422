package txn

import (
	"fmt"

	"smartssd/internal/fault"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/wal"
)

// Activate and Recover bring a manager up over a device's log region,
// for every backend: the engine's SSD, the cluster's device 0. What
// differs between backends lives in the tables resolve returns.

// Activate checks that the used pages allocated from LBA 0 stay below
// dev's log region, creates the log there (trimming whatever the region
// held) and returns a manager over it.
func Activate(dev wal.Device, inj *fault.Injector, used int64, resolve func(name string) (Table, error)) (*Manager, error) {
	if start, _ := wal.Region(dev.CapacityPages()); used > start {
		return nil, fmt.Errorf("txn: WAL region starts at page %d but %d pages are allocated", start, used)
	}
	log, err := wal.Create(dev, inj)
	if err != nil {
		return nil, err
	}
	return NewManager(log, resolve), nil
}

// RecoveryReport summarizes one crash recovery.
type RecoveryReport struct {
	// Committed lists recovered transaction ids in commit order.
	Committed []uint64
	// UpdatesApplied counts redo after-images installed.
	UpdatesApplied int
	// PagesRepaired counts distinct data pages rewritten.
	PagesRepaired int
	// LogPages counts valid log pages scanned.
	LogPages int64
	// TruncatedTail reports that a torn tail page (the power-cut
	// artifact) was discarded.
	TruncatedTail bool
}

// restorer is the untimed page install recovery repairs through: one
// device's page, or every copy of a partition's.
type restorer interface {
	RestorePage(lba int64, data []byte) error
}

// Recover restores power, installs the committed after-images of dev's
// log onto the tables resolve names, and checkpoints the log. It
// returns a manager over the checkpointed log, or nil when the region
// held nothing durable and nothing was written. Mid-log damage
// (wal.ErrTornWrite) and record corruption (wal.ErrCorruptRecord) are
// errors, never replayed. After-images are absolute, so a crash
// mid-repair just replays again.
func Recover(dev wal.Device, inj *fault.Injector, resolve func(name string) (Table, error)) (*Manager, *RecoveryReport, error) {
	inj.RestorePower()
	log, rec, err := wal.Open(dev, inj)
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{
		Committed:     rec.Committed,
		LogPages:      rec.ValidPages,
		TruncatedTail: rec.TruncatedTail,
	}
	if rec.ValidPages == 0 && !rec.TruncatedTail {
		return nil, rep, nil
	}
	if err := redo(rec.CommittedUpdates(), resolve, rep); err != nil {
		return nil, nil, err
	}
	if err := log.Reset(); err != nil {
		return nil, nil, err
	}
	return NewManager(log, resolve), rep, nil
}

// redo installs the after-images ups, in order, counting them in rep.
// Each touched page is read once and restored once, and only after
// every image applied: a record for an unknown table, past a table's
// extent or unfit for its page fails recovery with nothing written.
func redo(ups []wal.Record, resolve func(name string) (Table, error), rep *RecoveryReport) error {
	type pageKey struct {
		table string
		idx   uint32
	}
	type repair struct {
		s   *schema.Schema
		dev restorer
		lba int64
		buf []byte
	}
	repairs := make(map[pageKey]*repair)
	var order []*repair
	for _, u := range ups {
		k := pageKey{u.Table, u.PageIdx}
		r := repairs[k]
		if r == nil {
			tab, err := resolve(u.Table)
			if err != nil {
				return fmt.Errorf("txn: redo lsn %d: %w", u.LSN, err)
			}
			dev, ok := tab.Dev.(restorer)
			switch {
			case int64(u.PageIdx) >= tab.Pages:
				return fmt.Errorf("txn: redo lsn %d: page %d beyond %q (%d pages)", u.LSN, u.PageIdx, u.Table, tab.Pages)
			case !ok:
				return fmt.Errorf("txn: redo lsn %d: %q is not on a restorable device", u.LSN, u.Table)
			}
			lba := tab.StartLBA + int64(u.PageIdx)
			data, _, err := tab.Dev.ReadPage(lba, 0)
			if err != nil {
				return fmt.Errorf("txn: redo: read %q page %d: %w", u.Table, u.PageIdx, err)
			}
			r = &repair{s: tab.Schema, dev: dev, lba: lba, buf: append([]byte(nil), data...)}
			repairs[k] = r
			order = append(order, r)
		}
		if err := page.ReplaceTuple(r.s, r.buf, int(u.Slot), u.Tuple); err != nil {
			return fmt.Errorf("txn: redo lsn %d: %w", u.LSN, err)
		}
		rep.UpdatesApplied++
	}
	for _, r := range order {
		if err := r.dev.RestorePage(r.lba, r.buf); err != nil {
			return fmt.Errorf("txn: redo: repair page %d: %w", r.lba, err)
		}
		rep.PagesRepaired++
	}
	return nil
}
