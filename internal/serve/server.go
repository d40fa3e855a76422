package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/fault"
	"smartssd/internal/metrics"
	"smartssd/internal/runner"
	"smartssd/internal/schema"
	"smartssd/internal/sql"
	"smartssd/internal/trace"
)

// Config sizes the service.
type Config struct {
	// Workers is how many sessions execute concurrently; each worker
	// owns a private engine clone. Default 4.
	Workers int
	// QueueCapacity bounds how many admitted sessions may wait for a
	// worker; a full queue sheds load with 429. Default 2*Workers.
	QueueCapacity int
	// RetryAfterSeconds is advertised in the Retry-After header of 429
	// responses. It is configuration, not a clock read. Default 1.
	RetryAfterSeconds int
	// MaxRetainedSessions bounds how many finished sessions the table
	// keeps for clients that poll but never CLOSE. When a session
	// finishes beyond the cap, the finished session with the lowest
	// sequence number is evicted (a deterministic counter, not a
	// wall-clock TTL); running sessions are never evicted. Default 1024.
	MaxRetainedSessions int
}

func (c *Config) fill() {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.QueueCapacity < 1 {
		c.QueueCapacity = 2 * c.Workers
	}
	if c.RetryAfterSeconds < 1 {
		c.RetryAfterSeconds = 1
	}
	if c.MaxRetainedSessions < 1 {
		c.MaxRetainedSessions = 1024
	}
}

// SessionStats counts session lifecycle events since the server
// started.
type SessionStats struct {
	Opened           int64 `json:"opened"`
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	Rejected         int64 `json:"rejected"`
	Closed           int64 `json:"closed"`
	Evicted          int64 `json:"evicted"`
	DeadlineTimeouts int64 `json:"deadline_timeouts"`
}

// session is one open query session. done closes exactly once, after
// status/body (and trace, if requested) are set; status stays zero
// until then, which is how the retention sweep tells finished sessions
// from running ones.
type session struct {
	id     string
	seq    int
	tag    string
	done   chan struct{}
	status int
	body   []byte
	rec    *trace.Recorder
}

// Server is the query service: a bounded worker pool of engine clones,
// an optional shared cluster backend, and the session table.
type Server struct {
	cfg     Config
	cluster *core.Cluster
	engines []*core.Engine
	pool    *runner.Pool

	mu          sync.Mutex
	sessions    map[string]*session
	nextID      int
	stats       SessionStats
	loads       []int64 // sessions routed per cluster device
	lastElapsed time.Duration

	// clusterMu makes ResetTiming + RunRouted one atomic cold run, so a
	// cluster session's Elapsed measures that session alone no matter
	// how sessions interleave.
	clusterMu sync.Mutex
}

// New builds a server over a loaded engine (cloned once per worker) and
// an optional loaded cluster. The engine must not be mutated afterwards
// (the clones share its stored pages).
func New(cfg Config, base *core.Engine, cluster *core.Cluster) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		cluster:  cluster,
		sessions: make(map[string]*session),
	}
	for w := 0; w < cfg.Workers; w++ {
		e, err := base.Clone()
		if err != nil {
			return nil, fmt.Errorf("serve: clone worker %d: %w", w, err)
		}
		s.engines = append(s.engines, e)
	}
	if cluster != nil {
		s.loads = make([]int64, cluster.Devices())
	}
	s.pool = runner.NewPool(cfg.Workers, cfg.QueueCapacity)
	return s, nil
}

// Close drains admitted sessions and stops the workers.
func (s *Server) Close() { s.pool.Close() }

// Pool exposes the admission queue for tests and the daemon's smoke
// mode (Pause/Resume make shedding deterministic).
func (s *Server) Pool() *runner.Pool { return s.pool }

// TableSchema resolves a table against the engine catalog first, then
// the cluster's. It only exists to satisfy SchemaSource; DecodeRequest
// resolves through TargetTableSchema, which never falls through to the
// wrong backend's catalog.
func (s *Server) TableSchema(name string) (*schema.Schema, error) {
	if sch, err := (EngineSchemas{E: s.engines[0]}).TableSchema(name); err == nil {
		return sch, nil
	}
	if s.cluster != nil {
		return s.cluster.Schema(name)
	}
	return nil, fmt.Errorf("%w: %q", core.ErrNoTable, name)
}

// TargetTableSchema resolves a table against the catalog of the backend
// that will execute the session, so a cluster session's expressions are
// compiled with the cluster's column layout even when the engine
// catalogues a same-named table with a diverging schema.
func (s *Server) TargetTableSchema(cluster bool, name string) (*schema.Schema, error) {
	if cluster {
		if s.cluster == nil {
			return nil, fmt.Errorf("serve: no cluster backend")
		}
		return s.cluster.Schema(name)
	}
	return EngineSchemas{E: s.engines[0]}.TableSchema(name)
}

// TargetTableStats reports the load-time column stats of the requested
// backend's table, feeding the SQL path's selectivity estimator. The
// engine clones share the base engine's loaded pages, so worker 0's
// stats hold for every worker.
func (s *Server) TargetTableStats(cluster bool, name string) ([]core.ColumnStats, bool) {
	if cluster {
		if s.cluster == nil {
			return nil, false
		}
		return s.cluster.TableStats(name)
	}
	return s.engines[0].TableStats(name)
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", s.handleOpen)
	mux.HandleFunc("GET /sessions/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleClose)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	return mux
}

// openBody is the POST /sessions response: the only body that carries
// the server-assigned id.
type openBody struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Tag   string `json:"tag,omitempty"`
}

// resultBody is a finished session's answer. It carries the client's
// tag, never the session id, so the bodies of a fixed workload are
// byte-identical whatever order sessions were opened in.
type resultBody struct {
	Tag       string   `json:"tag,omitempty"`
	State     string   `json:"state"`
	Target    string   `json:"target"`
	Placement string   `json:"placement,omitempty"`
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	ElapsedNS int64    `json:"elapsed_ns"`
	Faults    string   `json:"faults,omitempty"`
}

// errorBody reports a failed request or session.
type errorBody struct {
	Tag   string `json:"tag,omitempty"`
	State string `json:"state"`
	Error string `json:"error"`
	// Class is the degradation ladder's fault class when the failure
	// maps to one ("get-timeout", "device-failed", ...).
	Class string `json:"class,omitempty"`
	// RetryAfterSeconds accompanies 429 rejections.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone is the only failure; nothing to do
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{State: "REJECTED", Error: "body too large"})
		return
	}
	// The decoder resolves the schema through TargetTableSchema, so the
	// compiled expressions are already pinned to the requested backend.
	q, err := DecodeRequest(s, data)
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorBody{State: "REJECTED", Error: err.Error()})
		return
	}

	s.mu.Lock()
	s.nextID++
	sess := &session{
		id:   fmt.Sprintf("s-%06d", s.nextID),
		seq:  s.nextID,
		tag:  q.Req.Tag,
		done: make(chan struct{}),
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	admitted := s.pool.TrySubmit(func(worker int) {
		status, body, rec := s.execute(worker, q)
		s.finish(sess, status, body, rec)
	})
	if !admitted {
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.stats.Rejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Tag:               q.Req.Tag,
			State:             "REJECTED",
			Error:             "serve: admission queue full",
			RetryAfterSeconds: s.cfg.RetryAfterSeconds,
		})
		return
	}
	s.mu.Lock()
	s.stats.Opened++
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, openBody{ID: sess.id, State: "OPEN", Tag: sess.tag})
}

// finish publishes a session's outcome. A session the client closed
// while it was still running gets a 410 tombstone instead of its result
// (the admitted work still ran), so a GET that was already long-polling
// unblocks rather than waiting forever on a session nothing will
// complete. Either way done closes exactly once, here.
func (s *Server) finish(sess *session, status int, body []byte, rec *trace.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, open := s.sessions[sess.id]; !open {
		sess.status = http.StatusGone
		sess.body = encodeResult(errorBody{
			Tag: sess.tag, State: "CLOSED", Error: "serve: session closed before completion",
		})
		close(sess.done)
		return
	}
	sess.status = status
	sess.body = body
	sess.rec = rec
	if status == http.StatusOK {
		s.stats.Completed++
	} else {
		s.stats.Failed++
		if status == http.StatusGatewayTimeout {
			s.stats.DeadlineTimeouts++
		}
	}
	close(sess.done)
	s.evictLocked()
}

// evictLocked bounds the session table for clients that never CLOSE:
// while more than MaxRetainedSessions finished sessions are retained,
// the one with the lowest sequence number is dropped. Sequence numbers
// are allocation counters, so eviction order is deterministic in the
// session ids, not in wall-clock time; running sessions (status still
// zero) are never touched. Callers hold s.mu.
func (s *Server) evictLocked() {
	for {
		finished := 0
		var oldest *session
		for _, c := range s.sessions {
			if c.status == 0 {
				continue
			}
			finished++
			if oldest == nil || c.seq < oldest.seq {
				oldest = c
			}
		}
		if finished <= s.cfg.MaxRetainedSessions {
			return
		}
		delete(s.sessions, oldest.id)
		s.stats.Evicted++
	}
}

// encodeResult builds a finished session's body bytes once, so every
// GET replays the identical bytes.
func encodeResult(v any) []byte {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// All body types marshal by construction.
		data = []byte(fmt.Sprintf(`{"state":"FAILED","error":%q}`, err))
	}
	return append(data, '\n')
}

// columnNames labels the result columns from the compiled query. The
// SQL path supplies its own labels (which lead with GROUP BY columns);
// the structured path derives them from the agg and output lists.
func columnNames(q *Query) []string {
	if q.Columns != nil {
		return q.Columns
	}
	var names []string
	for _, a := range q.Spec.Aggs {
		names = append(names, a.Name)
	}
	for _, o := range q.Spec.Output {
		names = append(names, o.Name)
	}
	return names
}

// encodeRows maps tuples to JSON values: byte-backed values (Char
// columns) encode as strings, everything else as its integer (Date
// columns as epoch days).
func encodeRows(tuples []schema.Tuple) [][]any {
	rows := make([][]any, 0, len(tuples))
	for _, t := range tuples {
		row := make([]any, len(t))
		for i, v := range t {
			if v.Bytes != nil {
				row[i] = string(v.Bytes)
			} else {
				row[i] = v.Int
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// execute runs one compiled query on worker and returns the result's
// HTTP status, encoded body, and trace (if requested). Every session
// answers the same way: FAILED with the error's fault class when the
// run fails, FAILED with get-timeout when its simulated elapsed time
// passes the deadline, DONE with the run's body otherwise.
func (s *Server) execute(worker int, q *Query) (int, []byte, *trace.Recorder) {
	var body resultBody
	var rec *trace.Recorder
	var err error
	switch {
	case q.Explain:
		body, err = s.explain(worker, q)
	case q.Cluster:
		body, err = s.runCluster(q)
	default:
		body, rec, err = s.runEngine(worker, q)
	}
	status := http.StatusInternalServerError
	if err == nil {
		status = http.StatusGatewayTimeout
		// An update's commit is durable by now; only its acknowledgement
		// can miss the deadline, which recovers like a client that never
		// read its ack.
		err = fault.Deadline(time.Duration(body.ElapsedNS), q.Deadline)
	}
	if err != nil {
		return status, encodeResult(errorBody{
			Tag: q.Req.Tag, State: "FAILED", Error: err.Error(), Class: core.FaultClass(err),
		}), rec
	}
	body.Tag, body.State = q.Req.Tag, "DONE"
	return http.StatusOK, encodeResult(body), rec
}

// explain answers an EXPLAIN session: the plan report — logical plan,
// physical candidates, and the pushdown decision's cost evidence —
// rendered one line per row, without executing anything.
func (s *Server) explain(worker int, q *Query) (resultBody, error) {
	body := resultBody{Target: "engine", Columns: []string{"plan"}}
	var report string
	var err error
	if q.Cluster {
		body.Target = "cluster"
		report, err = sql.ExplainCluster(s.cluster, q.Compiled)
	} else {
		report, err = sql.ExplainEngine(s.engines[worker], q.Compiled)
	}
	if err != nil {
		return body, err
	}
	for _, l := range strings.Split(strings.TrimRight(report, "\n"), "\n") {
		body.Rows = append(body.Rows, []any{l})
	}
	return body, nil
}

func (s *Server) runEngine(worker int, q *Query) (resultBody, *trace.Recorder, error) {
	eng := s.engines[worker]
	var rec *trace.Recorder
	if q.Req.Trace {
		rec = trace.NewRecorder()
		eng.SetRecorder(rec)
		defer eng.SetRecorder(nil)
	}
	res, err := eng.Run(q.Spec, q.Mode)
	if err != nil {
		return resultBody{}, rec, err
	}
	body := resultBody{
		Target:    "engine",
		Placement: res.Placement.String(),
		Columns:   columnNames(q),
		Rows:      encodeRows(res.Rows),
		ElapsedNS: res.Elapsed.Nanoseconds(),
	}
	if res.Faults.Any() {
		body.Faults = res.Faults.String()
	}
	return body, rec, nil
}

// runCluster runs a read or an UPDATE session on the shared cluster as
// one cold run. An update's body is its commit acknowledgement:
// Cluster.Update returns only after the commit's write-ahead-log flush
// is durable on the coordinator device.
func (s *Server) runCluster(q *Query) (resultBody, error) {
	var res *core.ClusterResult
	var n int64
	var elapsed time.Duration
	var err error
	s.clusterMu.Lock()
	s.cluster.ResetTiming()
	if len(q.Sets) > 0 {
		n, elapsed, err = s.cluster.Update(q.Req.Table, q.Filter, q.Sets)
	} else if res, err = s.cluster.RunRouted(q.Spec, s.routeLeastLoaded); err == nil {
		elapsed = res.Elapsed
	}
	s.clusterMu.Unlock()
	if err != nil {
		return resultBody{}, err
	}
	s.mu.Lock()
	s.lastElapsed = elapsed
	s.mu.Unlock()
	body := resultBody{Target: "cluster", ElapsedNS: elapsed.Nanoseconds()}
	if res == nil {
		body.Columns, body.Rows = []string{"rows_updated"}, [][]any{{n}}
	} else {
		body.Columns, body.Rows = columnNames(q), encodeRows(res.Rows)
	}
	return body, nil
}

// routeLeastLoaded picks, among the devices holding a copy of the
// partition, the one that has executed the fewest sessions so far,
// breaking ties by the lowest device index. Replicas hold identical
// data and cluster runs start from reset timing, so routing moves load
// without changing any response byte.
func (s *Server) routeLeastLoaded(part int, candidates []int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := candidates[0]
	for _, c := range candidates[1:] {
		if s.loads[c] < s.loads[best] || (s.loads[c] == s.loads[best] && c < best) {
			best = c
		}
	}
	s.loads[best]++
	return best
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{State: "UNKNOWN", Error: "serve: unknown session"})
		return
	}
	// Long-poll: the GET blocks until the session finishes or the
	// client gives up. No wall-clock timer — the channel close is the
	// completion signal and the request context is the cancel signal.
	select {
	case <-sess.done:
	case <-r.Context().Done():
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(sess.status)
	_, _ = w.Write(sess.body)
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		s.stats.Closed++
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{State: "UNKNOWN", Error: "serve: unknown session"})
		return
	}
	writeJSON(w, http.StatusOK, openBody{ID: sess.id, State: "CLOSED", Tag: sess.tag})
}

// metricsBody is the GET /metrics response.
type metricsBody struct {
	Sessions SessionStats `json:"sessions"`
	Queue    struct {
		Workers  int `json:"workers"`
		Capacity int `json:"capacity"`
		Depth    int `json:"depth"`
		InFlight int `json:"in_flight"`
	} `json:"queue"`
	// DeviceLoads counts sessions routed per cluster device (empty
	// without a cluster backend).
	DeviceLoads []int64 `json:"device_loads,omitempty"`
	// Cluster is a per-resource utilization report over the cluster's
	// devices, normalized over the last session's elapsed window.
	Cluster *metrics.Report `json:"cluster,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var body metricsBody
	s.mu.Lock()
	body.Sessions = s.stats
	body.DeviceLoads = append([]int64(nil), s.loads...)
	lastElapsed := s.lastElapsed
	s.mu.Unlock()
	body.Queue.Workers = s.pool.Workers()
	body.Queue.Capacity = s.pool.Capacity()
	body.Queue.Depth = s.pool.QueueDepth()
	body.Queue.InFlight = s.pool.InFlight()
	if s.cluster != nil && lastElapsed > 0 {
		// Snapshot under clusterMu so no session is mid-run while the
		// counters are read.
		s.clusterMu.Lock()
		var groups []metrics.Group
		for i := 0; i < s.cluster.Devices(); i++ {
			for _, g := range s.cluster.Device(i).ResourceGroups() {
				g.Name = fmt.Sprintf("d%d-%s", i, g.Name)
				groups = append(groups, g)
			}
		}
		rep := metrics.Snapshot(lastElapsed, groups...)
		s.clusterMu.Unlock()
		body.Cluster = &rep
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{State: "UNKNOWN", Error: "serve: unknown session"})
		return
	}
	select {
	case <-sess.done:
	case <-r.Context().Done():
		return
	}
	if sess.rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{
			Tag: sess.tag, State: "DONE", Error: "serve: session was not opened with trace:true",
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := sess.rec.WriteChromeTrace(w); err != nil {
		// Headers are already out; the client sees a truncated body.
		return
	}
}
