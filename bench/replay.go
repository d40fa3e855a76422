package main

import (
	"fmt"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/serve"
	"smartssd/internal/sql"
)

// leastLoaded reproduces the daemon's replica routing (fewest sessions
// so far, ties to the lowest device index) for in-process cluster runs.
type leastLoaded struct{ loads []int64 }

func (r *leastLoaded) route(_ int, candidates []int) int {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if r.loads[c] < r.loads[best] || (r.loads[c] == r.loads[best] && c < best) {
			best = c
		}
	}
	r.loads[best]++
	return best
}

// clusterOp runs one cluster-target query the way serve's executor
// does: reset timing, then a routed read or an update. It reports the
// rows (nil for updates), the update's row count, and the simulated
// elapsed time.
func clusterOp(cl *core.Cluster, route *leastLoaded, q *serve.Query) (*core.ClusterResult, int64, time.Duration, error) {
	cl.ResetTiming()
	if len(q.Sets) > 0 {
		n, ack, err := cl.Update(q.Req.Table, q.Filter, q.Sets)
		return nil, n, ack, err
	}
	res, err := cl.RunRouted(sql.ClusterQueryOf(q.Spec), route.route)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, 0, res.Elapsed, nil
}

// replay runs ops serially in-process — engine-target ops through the
// oracle's cached runs, cluster-target ops on the twin cluster — and
// checks the cluster's answers against the host oracle on the way. It
// reports the mean simulated elapsed time per op in milliseconds, the
// virtual-clock end-to-end metric: serial and in-process, so it repeats
// exactly for a seed.
func replay(b *backends, orc *oracle, ops []*op) (float64, error) {
	route := &leastLoaded{loads: make([]int64, b.cluster.Devices())}
	var sum int64
	for i, p := range ops {
		x, err := orc.expect(p)
		if err != nil {
			return 0, err
		}
		q, err := orc.decode(p.body)
		if err != nil {
			return 0, err
		}
		switch {
		case q.Explain:
			// Nothing executes: no simulated time.
		case q.Cluster:
			res, n, elapsed, err := clusterOp(b.cluster, route, q)
			if err != nil {
				return 0, fmt.Errorf("replay op %d (%s): %w", i, p.class, err)
			}
			got := fmt.Sprintf("[%d]", n)
			if res != nil {
				got = canonTuples(res.Rows, x.sorted)
			}
			if got != x.rows {
				return 0, fmt.Errorf("replay op %d (%s): in-process cluster rows differ from the host oracle:\n got %s\nwant %s",
					i, p.class, got, x.rows)
			}
			sum += elapsed.Nanoseconds()
		default:
			sum += x.elapsedNS
		}
	}
	return float64(sum) / float64(len(ops)) / 1e6, nil
}
