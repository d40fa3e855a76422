package exec

import (
	"errors"
	"fmt"
	"time"

	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// The reference interpreter: the operators run tuple at a time, each
// pushing tuples tagged with the virtual time they became available
// into its consumer and charging the host CPU as they pass. Collect
// must reproduce its rows, completion time, Stats and every charge it
// makes to the host CPU.

// emitFn receives one output tuple and the virtual time it became
// available. It must not retain t; it may be reused.
type emitFn func(t schema.Tuple, at time.Duration) error

// errStop may be returned by an emitFn to stop the run early.
var errStop = errors.New("exec: stop requested")

// refCollect is Collect through the reference interpreter.
func refCollect(ctx *Ctx, op Operator) ([]schema.Tuple, time.Duration, error) {
	var rows []schema.Tuple
	var arena schema.TupleArena
	end, err := refRun(ctx, op, func(t schema.Tuple, _ time.Duration) error {
		rows = append(rows, arena.Clone(t))
		return nil
	})
	if m := ctx.takeRunMax(); m > end {
		end = m
	}
	return rows, end, err
}

// refRun runs op, calling emit for every output tuple, and reports the
// virtual completion time of the whole run.
func refRun(ctx *Ctx, op Operator, emit emitFn) (time.Duration, error) {
	cost := ctx.Host.Cost
	switch o := op.(type) {
	case *TableScan:
		var end time.Duration
		var out schema.Tuple
		ioEnd, err := o.drivePages(ctx, func(r *page.Reader, arrival time.Duration) error {
			n := int64(r.Count())
			cycles := cost.PageCycles + n*cost.TupleCycles
			if o.Filter != nil {
				cycles += n * int64(o.Filter.Ops()) * cost.OpCycles
			}
			done := ctx.charge(cycles, arrival)
			end = max(end, done)
			ctx.Stats.PagesRead++
			ctx.Stats.RowsScanned += n
			for i := 0; i < r.Count(); i++ {
				out = r.Tuple(out, i)
				if o.Filter != nil && o.Filter.Eval(expr.TupleRow(out)).Int == 0 {
					continue
				}
				ctx.Stats.RowsEmitted++
				if err := emit(out, done); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return end, err
		}
		return max(end, ioEnd), nil

	case *Filter:
		ops := int64(o.Pred.Ops())
		return refRun(ctx, o.Input, func(t schema.Tuple, at time.Duration) error {
			done := ctx.charge(ops*cost.OpCycles, at)
			if o.Pred.Eval(expr.TupleRow(t)).Int == 0 {
				return nil
			}
			return emit(t, done)
		})

	case *Project:
		var ops int64
		for _, c := range o.Cols {
			ops += int64(c.E.Ops())
		}
		out := make(schema.Tuple, len(o.Cols))
		return refRun(ctx, o.Input, func(t schema.Tuple, at time.Duration) error {
			done := ctx.charge(ops*cost.OpCycles+cost.EmitCycles, at)
			for i, c := range o.Cols {
				out[i] = c.E.Eval(expr.TupleRow(t))
			}
			return emit(out, done)
		})

	case *HashJoin:
		var keys schema.KeyTable
		var rows []schema.Tuple
		var arena schema.TupleArena
		keys.Reset(1)
		_, err := refRun(ctx, o.Build, func(t schema.Tuple, at time.Duration) error {
			ctx.chargeBatched(cost.HashBuildCycles, at)
			keys.AddRow1(uint64(t[o.BuildKey].Int))
			rows = append(rows, arena.Clone(t))
			ctx.Stats.HashBuilds++
			return nil
		})
		buildDone := ctx.takeRunMax()
		if err != nil {
			return buildDone, err
		}
		np := o.Probe.Schema().NumColumns()
		out := make(schema.Tuple, np+o.Build.Schema().NumColumns())
		var end time.Duration
		last, err := refRun(ctx, o.Probe, func(t schema.Tuple, at time.Duration) error {
			ready := max(at, buildDone)
			ctx.Stats.HashProbes++
			b := keys.Chain1(uint64(t[o.ProbeKey].Int))
			if b < 0 {
				ctx.chargeBatched(cost.HashProbeCycles, ready)
				return nil
			}
			done := ctx.charge(cost.HashProbeCycles, ready)
			for ; b >= 0; b = keys.Next(b) {
				done = ctx.charge(cost.EmitCycles, done)
				copy(out, t)
				copy(out[np:], rows[b])
				ctx.Stats.RowsEmitted++
				if err := emit(out, done); err != nil {
					return err
				}
			}
			end = max(end, done)
			return nil
		})
		end = max(end, ctx.takeRunMax())
		if err != nil {
			return end, err
		}
		return max(end, last, buildDone), nil

	case *Aggregate:
		var ops int64
		for _, a := range o.Aggs {
			if a.E != nil {
				ops += int64(a.E.Ops())
			}
		}
		perTuple := ops*cost.OpCycles + int64(len(o.Aggs))*cost.AggCycles
		g := plan.NewGroups(o.Aggs, o.Input.Schema(), o.GroupBy)
		last, err := refRun(ctx, o.Input, func(t schema.Tuple, at time.Duration) error {
			ctx.chargeBatched(perTuple, at)
			row := expr.TupleRow(t)
			id := g.GroupRow(row)
			for i, a := range o.Aggs {
				var v int64
				if a.Kind != Count {
					v = a.E.Eval(row).Int
				}
				g.FoldValue(id, i, v)
			}
			ctx.Stats.Folded++
			return nil
		})
		end := ctx.takeRunMax()
		if err != nil {
			return end, err
		}
		end = max(end, last)
		out := make(schema.Tuple, g.Width())
		for i := 0; i < g.Rows(); i++ {
			done := ctx.charge(cost.EmitCycles, end)
			g.Row(i, out)
			ctx.Stats.RowsEmitted++
			if err := emit(out, done); err != nil {
				return end, err
			}
			end = max(end, done)
		}
		return end, nil
	}
	return 0, fmt.Errorf("exec: no reference operator %T", op)
}
