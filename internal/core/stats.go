package core

import "smartssd/internal/schema"

// ColumnStats is the catalog's per-column value summary, collected
// while a table loads: the observed min and max of every integer-valued
// column (Int32, Int64, Date). Char columns and tables restored from a
// device image (which bypasses Load) report Known false. The SQL
// planner's selectivity estimator turns these ranges into predicate
// selectivities; absent stats it falls back to fixed heuristics.
type ColumnStats struct {
	// Known reports whether any value was observed for this column.
	Known bool
	// Min and Max bound the observed values (integer encoding: dates as
	// epoch days, decimals in their x100 scaling).
	Min, Max int64
}

// statsAccumulator folds loaded tuples into per-column ranges.
type statsAccumulator struct {
	s    *schema.Schema
	cols []ColumnStats
}

// newStatsAccumulator continues prior's ranges on a private copy: the
// cluster's TableStats readers do not wait for a Load, so a published
// slice is never written again.
func newStatsAccumulator(s *schema.Schema, prior []ColumnStats) *statsAccumulator {
	cols := make([]ColumnStats, s.NumColumns())
	if len(prior) == len(cols) {
		copy(cols, prior)
	}
	return &statsAccumulator{s: s, cols: cols}
}

// observe folds one tuple. Char columns stay unknown: range stats over
// byte strings have no consumer in the cost model.
func (a *statsAccumulator) observe(t schema.Tuple) {
	for i := range a.cols {
		if a.s.Column(i).Kind == schema.Char {
			continue
		}
		v := t[i].Int
		c := &a.cols[i]
		if !c.Known {
			c.Known, c.Min, c.Max = true, v, v
			continue
		}
		if v < c.Min {
			c.Min = v
		}
		if v > c.Max {
			c.Max = v
		}
	}
}

// copyColumnStats deep-copies a stats table (Clone must not alias the
// base engine's accumulators, which a later Load would keep mutating).
func copyColumnStats(src map[string][]ColumnStats) map[string][]ColumnStats {
	dst := make(map[string][]ColumnStats, len(src))
	for name, cols := range src {
		cp := make([]ColumnStats, len(cols))
		copy(cp, cols)
		dst[name] = cp
	}
	return dst
}

// TableStats reports the per-column ranges observed while name loaded,
// in schema column order. ok is false for unknown tables and for tables
// that never went through Load (image-restored engines).
func (e *Engine) TableStats(name string) ([]ColumnStats, bool) {
	cols, ok := e.stats[name]
	if !ok {
		return nil, false
	}
	return append([]ColumnStats(nil), cols...), true
}

// TableStats reports the per-column ranges observed while name loaded
// across all partitions (and replicas, which hold the same rows).
func (c *Cluster) TableStats(name string) ([]ColumnStats, bool) {
	c.catMu.RLock()
	defer c.catMu.RUnlock()
	cols, ok := c.stats[name]
	if !ok {
		return nil, false
	}
	return append([]ColumnStats(nil), cols...), true
}
