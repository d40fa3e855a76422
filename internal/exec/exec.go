// Package exec implements the host-side relational operators — the role
// SQL Server plays in the paper: table scan, filter, projection, simple
// hash join, and aggregation over heap files on simulated devices.
//
// The operators describe a plan; Collect executes it (see collect.go).
// The simulated cost is that of a push-based pipeline: every operator
// passes on tuples tagged with the virtual time they become available,
// so I/O arrival times flow through the pipeline and CPU work is charged
// against the host CPU model as tuples pass. The run's elapsed time is
// the completion time of the last emitted (or aggregated) tuple —
// exactly a pipelined execution on the simulated timeline.
package exec

import (
	"time"

	"smartssd/internal/expr"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/sim"
)

// CostModel holds the host CPU cost constants, in cycles. The defaults
// describe a server-class core running tuple-at-a-time operator code
// (the paper's 2 GHz Xeon testbed).
type CostModel struct {
	// PageCycles is the fixed cost to latch, checksum, and set up
	// iteration over one page.
	PageCycles int64
	// TupleCycles is the per-tuple iteration/decode overhead (slot
	// lookup for NSM, offset arithmetic for PAX).
	TupleCycles int64
	// OpCycles is the cost per expression operator node per evaluation.
	OpCycles int64
	// HashBuildCycles is the cost to insert one tuple into a join hash
	// table; HashProbeCycles the cost to probe it once.
	HashBuildCycles int64
	HashProbeCycles int64
	// AggCycles is the cost to fold one tuple into an aggregate.
	AggCycles int64
	// EmitCycles is the cost to materialize one output tuple.
	EmitCycles int64
}

// DefaultCostModel reports host CPU costs for a 2 GHz out-of-order core.
func DefaultCostModel() CostModel {
	return CostModel{
		PageCycles:      600,
		TupleCycles:     12,
		OpCycles:        4,
		HashBuildCycles: 60,
		HashProbeCycles: 40,
		AggCycles:       10,
		EmitCycles:      20,
	}
}

// Host models the host machine's query-processing CPU: a multi-core
// rate server plus the cost constants charged against it.
type Host struct {
	CPU  *sim.Server
	Cost CostModel
}

// NewHost builds a host CPU model. The paper's testbed has two quad-core
// 2 GHz Xeons; cores is the number the executor may use.
func NewHost(perCore sim.Rate, cores int) *Host {
	return &Host{
		CPU:  sim.NewMultiServer("host-cpu", perCore, cores),
		Cost: DefaultCostModel(),
	}
}

// DefaultHost reports the paper's host: 8 cores at 2 GHz.
func DefaultHost() *Host { return NewHost(sim.GHz(2), 8) }

// Reset clears the host CPU timing state between runs.
func (h *Host) Reset() { h.CPU.Reset() }

// Stats counts work done during one run.
type Stats struct {
	PagesRead   int64
	RowsScanned int64
	RowsEmitted int64
	HashBuilds  int64
	HashProbes  int64
	// Folded counts the rows folded into aggregates.
	Folded    int64
	CPUCycles int64
}

// Scratch holds per-engine reusable memory for operator state that
// lives exactly one run (the hash-join build side, the aggregate group
// table). An engine that runs many queries resets the
// scratch between runs instead of regrowing fresh arenas, so a reused
// worker reaches steady-state zero allocation on these paths. Not safe
// for concurrent use; each engine owns its own.
type Scratch struct {
	join   plan.Join
	groups plan.Groups
	// vec backs the scans' column and selection vectors, carved once
	// per run and reused page to page.
	vec schema.TupleArena
	// kernels caches compiled batch expressions across runs, keyed by
	// their canonical structural signature (expr.BatchExpr.Key), so a
	// reused engine compiles each distinct expression once.
	kernels map[string]*expr.BatchExpr
}

// Reset recycles the scratch arenas for the next run. Tuples carved
// during prior runs are invalidated; operators never leak scratch
// memory into results (Collect deep-copies into its own arena). The
// compiled-kernel cache survives Reset deliberately: kernels hold no
// run state beyond reusable scratch vectors.
func (s *Scratch) Reset() {
	s.vec.Reset()
}

// Ctx carries the host model and run statistics through an operator tree.
type Ctx struct {
	Host  *Host
	Stats Stats
	// Scratch, when set, provides reusable arenas for join build and
	// aggregate group state; Collect falls back to run-local ones when
	// it is nil.
	Scratch *Scratch

	// Pending batched charge run: runCount consecutive charges of
	// runCycles each, all ready at runReady, not yet scheduled on the
	// CPU server. Flushed as one ServeRun before any other charge, so
	// the global order of CPU reservations is exactly the sequential
	// one. runMax accumulates the completion times of flushed runs
	// until a consumer takes them.
	runCycles int64
	runReady  time.Duration
	runCount  int
	runMax    time.Duration
}

// NewCtx builds a run context over host.
func NewCtx(host *Host) *Ctx { return &Ctx{Host: host} }

// charge schedules cycles of CPU work ready at the given time and
// returns its completion time. Any pending batched run is flushed
// first, preserving the sequential order of CPU reservations.
func (c *Ctx) charge(cycles int64, ready time.Duration) time.Duration {
	if c.runCount > 0 {
		c.flushRun()
	}
	c.Stats.CPUCycles += cycles
	return c.Host.CPU.Serve(ready, cycles)
}

// chargeBatched accumulates one charge into the pending run when it
// matches the run's (cycles, ready) signature, starting a new run
// (flushing the old) otherwise. Callers that need the completion time
// of the whole phase take it with takeRunMax at the phase boundary;
// per-charge completion times are not observable on this path, which
// is what lets identical charges collapse into one closed-form
// ServeRun reservation per lane.
func (c *Ctx) chargeBatched(cycles int64, ready time.Duration) {
	if c.runCount > 0 && (cycles != c.runCycles || ready != c.runReady) {
		c.flushRun()
	}
	c.runCycles = cycles
	c.runReady = ready
	c.runCount++
}

// chargeBatchedN accumulates n identical charges at once — exactly n
// successive chargeBatched calls with the same signature. Collect uses
// it to book a whole selection vector's worth of per-tuple work (or a
// counted run of join-probe misses) in one call while preserving the
// per-tuple pipeline's flush points: a signature change or any direct
// charge still flushes first.
func (c *Ctx) chargeBatchedN(cycles int64, ready time.Duration, n int) {
	if n <= 0 {
		return
	}
	if c.runCount > 0 && (cycles != c.runCycles || ready != c.runReady) {
		c.flushRun()
	}
	c.runCycles = cycles
	c.runReady = ready
	c.runCount += n
}

// chargeRun books k identical charges immediately — flush-equivalent to
// k successive charge calls with the same arguments — and returns the
// last completion time. Unlike flushRun it does NOT fold the completion
// into runMax: it replicates charges (Project's per-row output charges)
// that are direct Serves in the per-tuple pipeline and never touch the
// batched-run accumulator, so a later takeRunMax barrier sees exactly
// what the pipeline's would.
func (c *Ctx) chargeRun(cycles int64, ready time.Duration, k int) time.Duration {
	if c.runCount > 0 {
		c.flushRun()
	}
	if k <= 0 {
		return ready
	}
	c.Stats.CPUCycles += cycles * int64(k)
	return c.Host.CPU.ServeRun(ready, cycles, k)
}

// flushRun schedules the pending batched run as one ServeRun call —
// timing- and counter-identical to runCount sequential Serves — and
// folds its completion time into runMax.
func (c *Ctx) flushRun() {
	if c.runCount == 0 {
		return
	}
	k := c.runCount
	c.runCount = 0
	c.Stats.CPUCycles += c.runCycles * int64(k)
	if done := c.Host.CPU.ServeRun(c.runReady, c.runCycles, k); done > c.runMax {
		c.runMax = done
	}
}

// takeRunMax flushes any pending batched run and returns the maximum
// completion time of all runs flushed since the previous take,
// resetting the accumulator. Each batching phase takes its own maximum
// at its phase boundary, so one phase's completion times never inflate
// another's (a nested operator's charges stay out of an enclosing
// build-side barrier, keeping timing byte-identical to sequential).
func (c *Ctx) takeRunMax() time.Duration {
	c.flushRun()
	m := c.runMax
	c.runMax = 0
	return m
}

// Operator is a node of a host plan.
type Operator interface {
	// Schema reports the output tuple schema.
	Schema() *schema.Schema
	// Explain renders one line describing this operator (children are
	// rendered by ExplainTree).
	Explain() string
	// Children reports the operator's inputs.
	Children() []Operator
}

// ExplainTree renders an operator tree, one operator per line.
func ExplainTree(op Operator) string {
	var b []byte
	var walk func(o Operator, depth int)
	walk = func(o Operator, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, ' ', ' ')
		}
		b = append(b, o.Explain()...)
		b = append(b, '\n')
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return string(b)
}
