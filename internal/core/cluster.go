package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"smartssd/internal/device"
	"smartssd/internal/expr"
	"smartssd/internal/heap"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/ssd"
	"smartssd/internal/txn"
	"smartssd/internal/wal"
)

// Cluster realizes the end of the paper's design spectrum (§4.3): "the
// host machine could simply be the coordinator that stages computation
// across an array of Smart SSDs, making the system look like a parallel
// DBMS with the master node being the host server, and the worker nodes
// ... being the Smart SSDs."
//
// Tables are horizontally partitioned round-robin across the devices;
// queries run as one in-device program per partition, in parallel
// (devices have independent timelines), and the host merges partial
// results: concatenation for projections, algebraic combination for
// aggregates.
//
// Concurrency contract. A Cluster is safe for concurrent use and runs
// are atomic: Run, RunRouted, Update, Recover, CreateTable, Load,
// Replicate, SetReplication, and ResetTiming serialize on mu,
// exactly as if the calls had arrived in some serial order. A
// simulated device is a single-timeline state machine (every
// sim.Server mutates its clock and counters), so two runs never share
// the cluster — but devices are independent of one another, and the
// partitions of one run execute concurrently, one goroutine per device,
// when no device can fault (see RunRouted). Catalog reads (Schema,
// TableNames, TableStats, Replication, Explain) take only catMu and
// never wait for a run. Callers that need parallel execution across sessions run
// each session on its own Engine.Clone (see internal/serve); the
// cluster is the shared, partitioned backend. Accessors that return
// internal devices (Device) hand out live simulator state: do not
// drive them while another goroutine may be inside Run.
type Cluster struct {
	// mu serializes every method that touches device timelines or
	// writes the catalog. Without it, two concurrent Run calls interleave
	// on the same sim clocks and the run becomes schedule-dependent (a
	// -race regression test pins this: see
	// TestClusterConcurrentRunsAreSafe).
	mu sync.Mutex
	// catMu lets catalog readers (tables, replicas, replicaFiles, stats,
	// and the files' page counts) skip mu. Writers hold mu and take
	// catMu around the change alone, so it is a leaf lock; holders of mu
	// read the catalog without it.
	catMu sync.RWMutex

	devices  []*ssd.Device
	runtimes []*device.Runtime
	allocs   []heap.Allocator
	tables   map[string][]*heap.File
	// replicas is how many devices hold each partition's data (1 = no
	// redundancy). Partition i's extra copies chain onto devices
	// (i+1)%n .. (i+replicas-1)%n.
	replicas int
	// replicaFiles[name][i][j] is partition i's j'th extra copy,
	// resident on device (i+1+j)%n.
	replicaFiles map[string][][]*heap.File
	// stats holds per-table column ranges observed during Load and
	// Replicate (see stats.go); the SQL planner's selectivity estimator
	// reads them through TableStats.
	stats map[string][]ColumnStats

	// Durability layer: a coordinator write-ahead log on device 0,
	// activated lazily by the first Update (see cluster_update.go).
	walLog *wal.Log
	txns   *txn.Manager
	// dataWrites counts guarded data-page writes across all copies.
	dataWrites uint64
}

// NewCluster builds n identical Smart SSDs from params. When params
// enables fault injection, each worker gets an independent fault
// stream (the configured seed offset by the worker index), so failures
// land on different devices rather than striking all workers in
// lockstep.
func NewCluster(n int, params ssd.Params, cost device.CostModel) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: cluster needs at least one device, got %d", n)
	}
	c := &Cluster{
		allocs:       make([]heap.Allocator, n),
		tables:       make(map[string][]*heap.File),
		replicas:     1,
		replicaFiles: make(map[string][][]*heap.File),
		stats:        make(map[string][]ColumnStats),
	}
	for i := 0; i < n; i++ {
		p := params
		if p.Fault.Enabled() {
			p.Fault.Seed += int64(i) * 1_000_003
		}
		d, err := ssd.New(p)
		if err != nil {
			return nil, err
		}
		c.devices = append(c.devices, d)
		c.runtimes = append(c.runtimes, device.NewRuntime(d, cost))
	}
	return c, nil
}

// SetReplication makes every partition created afterwards keep k total
// copies (its primary plus k-1 chained replicas on the following
// devices). Must be called before CreateTable for tables that need
// failover; k is clamped to [1, Devices()].
func (c *Cluster) SetReplication(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < 1 {
		k = 1
	}
	if k > len(c.devices) {
		k = len(c.devices)
	}
	c.catMu.Lock()
	c.replicas = k
	c.catMu.Unlock()
}

// Replication reports the configured copies per partition.
func (c *Cluster) Replication() int {
	c.catMu.RLock()
	defer c.catMu.RUnlock()
	return c.replicas
}

// Devices reports the worker count.
func (c *Cluster) Devices() int { return len(c.devices) }

// Device reports worker i's device.
func (c *Cluster) Device(i int) *ssd.Device { return c.devices[i] }

// ResetTiming zeroes every device's timing state and protocol phase
// counters (data preserved). The serving layer calls this before each
// session's cluster run so a session's Elapsed measures that session
// alone, independent of what ran before it — the cluster analogue of
// the engine's cold-run methodology.
func (c *Cluster) ResetTiming() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetTimingLocked()
}

func (c *Cluster) resetTimingLocked() {
	for i, d := range c.devices {
		d.ResetTiming()
		c.runtimes[i].ResetPhases()
	}
}

// Schema reports the named table's row schema.
func (c *Cluster) Schema(name string) (*schema.Schema, error) {
	c.catMu.RLock()
	defer c.catMu.RUnlock()
	files, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return files[0].Schema(), nil
}

// TableNames lists the cluster's tables sorted by name.
func (c *Cluster) TableNames() []string {
	c.catMu.RLock()
	defer c.catMu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for name := range c.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CreateTable creates one partition of the named table on every device.
func (c *Cluster) CreateTable(name string, s *schema.Schema, l page.Layout, maxPagesPerDevice int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return fmt.Errorf("core: cluster table %q already exists", name)
	}
	files := make([]*heap.File, len(c.devices))
	for i, d := range c.devices {
		f, err := heap.Create(fmt.Sprintf("%s.p%d", name, i), d, &c.allocs[i], s, l, maxPagesPerDevice)
		if err != nil {
			return err
		}
		files[i] = f
	}
	var reps [][]*heap.File
	if c.replicas > 1 {
		reps = make([][]*heap.File, len(c.devices))
		for i := range c.devices {
			for j := 0; j < c.replicas-1; j++ {
				alt := (i + 1 + j) % len(c.devices)
				f, err := heap.Create(fmt.Sprintf("%s.p%d.r%d", name, i, j+1),
					c.devices[alt], &c.allocs[alt], s, l, maxPagesPerDevice)
				if err != nil {
					return err
				}
				reps[i] = append(reps[i], f)
			}
		}
	}
	c.catMu.Lock()
	c.tables[name] = files
	if reps != nil {
		c.replicaFiles[name] = reps
	}
	c.catMu.Unlock()
	return nil
}

// Load distributes generated tuples round-robin across the table's
// partitions, then resets all device timing.
func (c *Cluster) Load(name string, next func() (schema.Tuple, bool)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Appends move the files' page counts, which Explain reads.
	c.catMu.Lock()
	defer c.catMu.Unlock()
	files, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	apps := make([]*heap.Appender, len(files))
	for i, f := range files {
		apps[i] = f.NewAppender()
	}
	// Replica appenders mirror every tuple of partition p to its chained
	// copies (empty when replication is off).
	reps := c.replicaFiles[name]
	repApps := make([][]*heap.Appender, len(files))
	for p := range reps {
		for _, rf := range reps[p] {
			repApps[p] = append(repApps[p], rf.NewAppender())
		}
	}
	acc := newStatsAccumulator(files[0].Schema(), c.stats[name])
	i := 0
	for {
		t, ok := next()
		if !ok {
			break
		}
		acc.observe(t)
		p := i % len(apps)
		if err := apps[p].Append(t); err != nil {
			return err
		}
		for _, ra := range repApps[p] {
			if err := ra.Append(t); err != nil {
				return err
			}
		}
		i++
	}
	for _, app := range apps {
		if err := app.Close(); err != nil {
			return err
		}
	}
	for _, pa := range repApps {
		for _, ra := range pa {
			if err := ra.Close(); err != nil {
				return err
			}
		}
	}
	c.stats[name] = acc.cols
	for _, d := range c.devices {
		d.ResetTiming()
	}
	return nil
}

// Replicate copies generated tuples to every partition in full — for
// small build-side tables every worker needs locally (the parallel-DBMS
// broadcast join).
func (c *Cluster) Replicate(name string, gen func() func() (schema.Tuple, bool)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.catMu.Lock()
	defer c.catMu.Unlock()
	files, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	// Every copy appends the same stream, so stats fold only the first.
	acc := newStatsAccumulator(files[0].Schema(), c.stats[name])
	for fi, f := range files {
		app := f.NewAppender()
		next := gen()
		for {
			t, ok := next()
			if !ok {
				break
			}
			if fi == 0 {
				acc.observe(t)
			}
			if err := app.Append(t); err != nil {
				return err
			}
		}
		if err := app.Close(); err != nil {
			return err
		}
	}
	c.stats[name] = acc.cols
	for _, d := range c.devices {
		d.ResetTiming()
	}
	return nil
}

// ClusterResult is a merged parallel run.
type ClusterResult struct {
	// Tag carries the caller's label for this run (e.g. the serving
	// session that issued it); the cluster never sets it.
	Tag  string
	Rows []schema.Tuple
	// Elapsed is the slowest worker's completion (workers run in
	// parallel on independent devices).
	Elapsed time.Duration
	// PerDevice holds each worker's completion time.
	PerDevice []time.Duration
	// Attempts counts every in-device execution the run issued: one per
	// worker's primary partition plus one per replica tried during
	// failover. With nothing faulted it equals Devices().
	Attempts int
	// Failovers counts partitions that were re-executed on a replica
	// after their primary device faulted.
	Failovers int
	// FailoverReasons records, per worker index, why that worker's
	// primary execution was abandoned (the fault class of its error, as
	// in FaultReport.FallbackReason). Nil when no primary faulted.
	FailoverReasons map[int]string
	// FailedWorkers lists workers whose partitions were lost entirely
	// (primary faulted and no replica survived); when non-empty the run
	// also returns a *PartialResultError.
	FailedWorkers []int
	// Executed records, per partition, the device index that produced
	// the partition's rows (-1 for lost partitions). Without routing it
	// is the identity mapping unless failover moved a partition.
	Executed []int
}

// ClusterQuery is a pushdown query over a partitioned table; fields
// mirror QuerySpec with table names resolved against the cluster.
type ClusterQuery struct {
	Table  string
	Join   *JoinClause // build table must be replicated
	Filter expr.Expr
	Output []plan.OutputCol
	Aggs   []plan.AggSpec
	// GroupBy lists combined-row column indexes to group the aggregates
	// by. Each worker computes its partition's groups in-device; the
	// host merges partial groups by key and emits them sorted by the
	// group-by values, so merged output is independent of partition
	// count and routing.
	GroupBy []int
}

// RouteFunc picks which copy of a partition executes. It receives the
// partition index and the candidate device indexes holding a copy —
// the primary first, then its chained replicas — and returns the
// device to try first; the remaining candidates stay in chained order
// as the failover ladder. Returning a device not in candidates falls
// back to the primary. Every copy holds identical data, so routing
// moves load between devices without changing the merged rows.
type RouteFunc func(part int, candidates []int) int

// Run executes the query on every worker and merges the results.
func (c *Cluster) Run(q ClusterQuery) (*ClusterResult, error) {
	return c.RunRouted(q, nil)
}

// parallelMinPages is the mean number of pages a device must scan in a
// run before its partitions are worth a goroutine each. Measured on 2
// cores over the daemon's data set: four 577-page lineitem partition
// scans take 4.9 ms in order and 2.4 ms fanned out. Four 100-page part
// scans save 0.13 of 0.64 ms with the second core idle, but behind the
// daemon, where the other worker has that core, the small-session
// workload they belong to read 5 % lower with them fanned out (median
// of five alternating pairs, 2 325 against 2 444 ops/s).
const parallelMinPages = 256

// fansOut reports whether a run scanning pages pages in all executes its
// partitions concurrently: only when no device can fault — failover
// crosses devices mid-run, so with any injector armed the order of
// calls matters — and the scan is big enough to pay for the hand-offs.
func (c *Cluster) fansOut(pages int64) bool {
	for _, d := range c.devices {
		if d.Injector() != nil {
			return false
		}
	}
	return pages >= parallelMinPages*int64(len(c.devices))
}

// partitionRun is one partition's share of a cluster run: its ladder,
// decided before anything executes, and what running it produced.
type partitionRun struct {
	devs   []int          // candidate devices, first choice first
	copies []*heap.File   // the partition copy resident on each
	tried  int            // ladder rungs attempted so far
	dev    int            // device that produced rows; -1 until one does
	rows   []schema.Tuple // that device's partial result
	end    time.Duration  // and its completion time
	reason string         // fault class that lost the first rung
	cause  error          // last device fault seen
	err    error          // a non-fault error, which fails the whole run
}

// RunRouted is Run with replica routing: route (when non-nil) picks
// the first device tried for each partition among those holding a
// copy. The serving layer uses it to spread read sessions across
// replicas least-loaded-first with a deterministic tie-break by device
// index.
//
// Every partition's ladder and route choice is resolved first, in
// partition order. Then the partitions execute: one after the other,
// or (see fansOut) grouped by first-choice device and the groups
// concurrently — every device still sees the calls it would have seen
// in order, from a single goroutine, so the result and every device's
// counters are the same either way.
func (c *Cluster) RunRouted(q ClusterQuery, route RouteFunc) (*ClusterResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	files, ok := c.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, q.Table)
	}
	var buildFiles []*heap.File
	if q.Join != nil {
		buildFiles, ok = c.tables[q.Join.BuildTable]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoTable, q.Join.BuildTable)
		}
	}
	if err := checkGroupBy(q, files, buildFiles); err != nil {
		return nil, err
	}

	n := len(c.devices)
	parts := make([]partitionRun, n)
	var pages int64
	reps := c.replicaFiles[q.Table]
	for i := range parts {
		p := &parts[i]
		p.dev = -1
		p.devs = []int{i}
		p.copies = []*heap.File{files[i]}
		if len(reps) > i {
			for j, rf := range reps[i] {
				p.devs = append(p.devs, (i+1+j)%n)
				p.copies = append(p.copies, rf)
			}
		}
		// Rotate the chosen candidate to the front; the rest keep their
		// chained order behind it as the failover ladder.
		if route != nil {
			if want := route(i, append([]int(nil), p.devs...)); want != p.devs[0] {
				for pos := 1; pos < len(p.devs); pos++ {
					if p.devs[pos] == want {
						p.devs[0], p.devs[pos] = p.devs[pos], p.devs[0]
						p.copies[0], p.copies[pos] = p.copies[pos], p.copies[0]
						break
					}
				}
			}
		}
		pages += p.copies[0].Pages()
		if buildFiles != nil {
			pages += buildFiles[p.devs[0]].Pages()
		}
	}

	// climb runs partition i up its ladder until a rung answers, a
	// non-fault error ends the run, or limit rungs have been tried.
	climb := func(i, limit int) {
		p := &parts[i]
		for p.dev < 0 && p.err == nil && p.tried < limit {
			dev, f := p.devs[p.tried], p.copies[p.tried]
			p.tried++
			rows, end, err := c.runtimes[dev].RunPartial(lowerPartition(q, f, dev, buildFiles))
			switch {
			case err == nil:
				p.dev, p.rows, p.end = dev, rows, end
			case !isDeviceFault(err):
				p.err = fmt.Errorf("core: worker %d on device %d: %w", i, dev, err)
			default:
				p.cause = fmt.Errorf("core: worker %d on device %d: %w", i, dev, err)
				if p.tried == 1 {
					p.reason = faultReason(err)
				}
			}
		}
	}
	if c.fansOut(pages) {
		// One group per first-choice device, each in partition order on
		// its own goroutine — and first rungs only, so that a goroutine
		// never leaves its device. Without an injector a first rung is
		// lost only to a refused OPEN (the program outgrows device DRAM),
		// which leaves no trace on the device: those ladders are finished
		// in order below.
		groups := make([][]int, n)
		for i := range parts {
			d := parts[i].devs[0]
			groups[d] = append(groups[d], i)
		}
		firstRungs := func(g []int) {
			for _, i := range g {
				climb(i, 1)
			}
		}
		var wg sync.WaitGroup
		var own []int // one group runs on the calling goroutine
		for _, g := range groups {
			if len(g) == 0 {
				continue
			}
			if own == nil {
				own = g
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				firstRungs(g)
			}()
		}
		firstRungs(own)
		wg.Wait()
	}

	res := &ClusterResult{
		PerDevice: make([]time.Duration, n),
		Executed:  make([]int, n),
	}
	partials := make([][]schema.Tuple, 0, n)
	var lastCause error
	for i := range parts {
		p := &parts[i]
		climb(i, len(p.devs))
		if p.err != nil {
			return nil, p.err
		}
		res.Attempts += p.tried
		res.Executed[i] = p.dev
		if p.cause != nil {
			lastCause = p.cause
			if res.FailoverReasons == nil {
				res.FailoverReasons = make(map[int]string)
			}
			res.FailoverReasons[i] = p.reason
		}
		if p.dev < 0 {
			res.FailedWorkers = append(res.FailedWorkers, i)
			continue
		}
		if p.tried > 1 {
			res.Failovers++
		}
		partials = append(partials, p.rows)
		res.PerDevice[i] = p.end
		if p.end > res.Elapsed {
			res.Elapsed = p.end
		}
	}

	if len(q.Aggs) > 0 {
		var out *schema.Schema // types the group columns; nil when there are none
		if len(q.GroupBy) > 0 {
			out = lowerPartition(q, files[0], 0, buildFiles).OutputSchema()
		}
		res.Rows = mergeAggRows(q.Aggs, out, len(q.GroupBy), partials...)
		sortGroups(res.Rows, out, len(q.GroupBy))
	} else {
		for _, p := range partials {
			res.Rows = append(res.Rows, p...)
		}
	}
	if len(res.FailedWorkers) > 0 {
		return res, &PartialResultError{Failed: res.FailedWorkers, Cause: lastCause}
	}
	return res, nil
}

// lowerPartition builds the in-device program for one partition file
// running on worker w (the build side uses w's local replicated copy).
func lowerPartition(q ClusterQuery, f *heap.File, w int, buildFiles []*heap.File) device.Query {
	dq := device.Query{
		Table:   device.RefOf(f),
		Filter:  q.Filter,
		Output:  q.Output,
		Aggs:    q.Aggs,
		GroupBy: q.GroupBy,
	}
	if q.Join != nil {
		bf := buildFiles[w]
		dq.Join = &device.JoinSpec{
			Build:    device.RefOf(bf),
			BuildKey: bf.Schema().MustColumnIndex(q.Join.BuildKey),
			ProbeKey: f.Schema().MustColumnIndex(q.Join.ProbeKey),
		}
	}
	return dq
}

// checkGroupBy reports an error unless every group-by column lies in
// the combined row (probe columns first, then the build table's).
func checkGroupBy(q ClusterQuery, files, buildFiles []*heap.File) error {
	n := files[0].Schema().NumColumns()
	if buildFiles != nil {
		n += buildFiles[0].Schema().NumColumns()
	}
	for _, g := range q.GroupBy {
		if g < 0 || g >= n {
			return fmt.Errorf("core: group-by column %d out of the combined row", g)
		}
	}
	return nil
}

// sortGroups orders merged group rows by their leading nGroup columns
// (the group-by values, typed by out): a deterministic order
// independent of partition count, routing, and failover.
func sortGroups(rows []schema.Tuple, out *schema.Schema, nGroup int) {
	sort.Slice(rows, func(i, j int) bool {
		for g := 0; g < nGroup; g++ {
			if cv := schema.Compare(out.Column(g).Kind, rows[i][g], rows[j][g]); cv != 0 {
				return cv < 0
			}
		}
		return false
	})
}

// Explain renders the cluster's execution plan for q — the partition
// fan-out, one partition's in-device program, and the host-side merge —
// without executing anything.
func (c *Cluster) Explain(q ClusterQuery) (string, error) {
	c.catMu.RLock()
	defer c.catMu.RUnlock()
	files, ok := c.tables[q.Table]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoTable, q.Table)
	}
	var buildFiles []*heap.File
	if q.Join != nil {
		if buildFiles, ok = c.tables[q.Join.BuildTable]; !ok {
			return "", fmt.Errorf("%w: %q", ErrNoTable, q.Join.BuildTable)
		}
	}
	if err := checkGroupBy(q, files, buildFiles); err != nil {
		return "", err
	}
	out := fmt.Sprintf("cluster plan: %d partitions of %s, one in-device program each\n",
		len(files), q.Table)
	out += "per-partition device plan:\n" + lowerPartition(q, files[0], 0, buildFiles).Explain()
	merge := "concatenate partition rows"
	switch {
	case len(q.Aggs) > 0 && len(q.GroupBy) > 0:
		merge = "merge partial groups by key, sorted by the group-by columns"
	case len(q.Aggs) > 0:
		merge = "combine partial aggregates (sums and counts add, mins and maxes fold)"
	}
	out += "merge: " + merge + "\n"
	return out, nil
}
