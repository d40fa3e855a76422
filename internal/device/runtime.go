package device

import (
	"errors"
	"fmt"
	"time"

	"smartssd/internal/expr"
	"smartssd/internal/metrics"
	"smartssd/internal/schema"
	"smartssd/internal/ssd"
	"smartssd/internal/trace"
)

// SessionID identifies one OPEN'd session, as returned to the host.
type SessionID int64

// DefaultChunkBytes is the result-chunk size a GET retrieves: results
// are staged in device DRAM and shipped in I/O-unit-sized pieces.
const DefaultChunkBytes = 256 * 1024

// Errors reported by the session protocol.
var (
	// ErrUnknownSession is returned for a session id that was never
	// opened on this runtime.
	ErrUnknownSession = errors.New("device: unknown session id")
	// ErrClosed is returned for operations on a session that has been
	// closed (including a second CLOSE).
	ErrClosed = errors.New("device: session closed")
	// ErrGrantDenied is returned when an OPEN cannot be granted the
	// memory its program needs — because the program alone exceeds
	// device DRAM, because concurrent sessions have exhausted the
	// grant pool, or because an injected firmware fault refused it.
	ErrGrantDenied  = errors.New("device: memory grant denied")
	ErrInvalidQuery = errors.New("device: invalid query")
)

// Errors reported when injected faults hit a session mid-flight.
var (
	// ErrSessionAborted is a user-program crash inside the device: the
	// session is dead and its partial results are discarded.
	ErrSessionAborted = errors.New("device: session aborted")
	// ErrDeviceTimeout is a device-CPU hang surfaced as a GET that
	// never completes; the host's watchdog gives up after the
	// configured timeout.
	ErrDeviceTimeout = errors.New("device: get timed out")
	// ErrDeviceFailed is a whole-device failure: every subsequent
	// command on the device fails the same way.
	ErrDeviceFailed = errors.New("device: device failed")
)

// Legacy aliases, kept so older callers' errors.Is checks keep working.
var (
	ErrNoSession   = ErrUnknownSession
	ErrMemoryGrant = ErrGrantDenied
)

// Runtime is the Smart SSD runtime framework of §3: it accepts
// user-defined query programs through a session-based protocol layered
// on the standard SATA/SAS command set.
//
//	OPEN  — validate the program, grant threads and memory, return id.
//	GET   — poll for status and retrieve the next staged result chunk.
//	CLOSE — release session resources.
type Runtime struct {
	dev        *ssd.Device
	cost       CostModel
	chunkBytes int64
	next       SessionID
	sessions   map[SessionID]*session
	granted    int64 // DRAM bytes granted to live sessions
	phases     PhaseStats
	rec        *trace.Recorder // nil unless SetRecorder installed one
	// kernels caches compiled expressions across programs, keyed by
	// their structural signature.
	kernels map[string]*expr.BatchExpr
}

// PhaseStats aggregates protocol-phase latencies across sessions. An
// OPEN and a CLOSE are instantaneous in the model (pure bookkeeping),
// so only their counts are meaningful; a GET's latency is the delivery
// gap — how long the host waited for that chunk beyond the previous
// chunk's arrival.
type PhaseStats struct {
	Open  metrics.Phase
	Get   metrics.Phase
	Close metrics.Phase
}

// Phases reports the stats as a slice for metrics.Report attachment,
// omitting phases that never ran.
func (p PhaseStats) Phases() []metrics.Phase {
	var out []metrics.Phase
	for _, ph := range []metrics.Phase{p.Open, p.Get, p.Close} {
		if ph.Count > 0 {
			out = append(out, ph)
		}
	}
	return out
}

func observe(ph *metrics.Phase, d time.Duration) {
	ph.Count++
	ph.Total += d
	if d > ph.Max {
		ph.Max = d
	}
}

// NewRuntime builds the runtime for one device using cost constants c.
func NewRuntime(dev *ssd.Device, c CostModel) *Runtime {
	return &Runtime{
		dev:        dev,
		cost:       c,
		chunkBytes: DefaultChunkBytes,
		sessions:   make(map[SessionID]*session),
		phases:     newPhaseStats(),
		kernels:    make(map[string]*expr.BatchExpr),
	}
}

func newPhaseStats() PhaseStats {
	return PhaseStats{
		Open:  metrics.Phase{Name: "OPEN"},
		Get:   metrics.Phase{Name: "GET"},
		Close: metrics.Phase{Name: "CLOSE"},
	}
}

// PhaseStats reports cumulative protocol-phase latencies since the last
// ResetPhases.
func (r *Runtime) PhaseStats() PhaseStats { return r.phases }

// ResetPhases clears the phase-latency aggregates so the next run is
// measured independently.
func (r *Runtime) ResetPhases() { r.phases = newPhaseStats() }

// SetRecorder attaches (or, with nil, removes) an event recorder that
// receives one protocol span per OPEN/GET/CLOSE command, labeled by
// session. Device resources are not touched; hook those separately via
// ssd.Device.SetRecorder.
func (r *Runtime) SetRecorder(rec *trace.Recorder) { r.rec = rec }

// Device reports the underlying simulated device.
func (r *Runtime) Device() *ssd.Device { return r.dev }

// Cost reports the runtime's embedded-CPU cost model.
func (r *Runtime) Cost() CostModel { return r.cost }

type sessionState uint8

const (
	stateOpen sessionState = iota
	stateDone
	stateAborted
)

// session holds one program's runtime state: the granted resources, the
// result chunks produced by the program, and the GET read cursor.
type session struct {
	id      SessionID
	query   Query
	kernels kernels
	state   sessionState
	grant   int64 // DRAM bytes granted at OPEN, released at CLOSE
	result  *result
	cursor  int           // next chunk index for GET
	lastAt  time.Duration // arrival time of the last delivered chunk
}

// Open starts a session for query q: the OPEN command. The query is
// validated, its expressions compiled, and its memory grant checked
// against device DRAM — both the program's own footprint and the pool
// already granted to concurrent sessions — before any work is admitted.
func (r *Runtime) Open(q Query) (SessionID, error) {
	if err := q.validate(); err != nil {
		return 0, err
	}
	k, err := q.compile(r.kernels)
	if err != nil {
		return 0, err
	}
	if r.dev.Injector().Dead() || r.dev.Injector().DeviceFail() {
		return 0, fmt.Errorf("%w: open refused", ErrDeviceFailed)
	}
	need := q.MemoryNeed(r.cost)
	if need > r.dev.DeviceDRAMBytes() {
		return 0, fmt.Errorf("%w: program needs %d bytes, device DRAM is %d",
			ErrGrantDenied, need, r.dev.DeviceDRAMBytes())
	}
	if r.granted+need > r.dev.DeviceDRAMBytes() {
		return 0, fmt.Errorf("%w: program needs %d bytes, %d of %d already granted",
			ErrGrantDenied, need, r.granted, r.dev.DeviceDRAMBytes())
	}
	if r.dev.Injector().GrantDenied() {
		return 0, fmt.Errorf("%w: grant refused by firmware", ErrGrantDenied)
	}
	r.next++
	id := r.next
	r.sessions[id] = &session{id: id, query: q, kernels: k, state: stateOpen, grant: need}
	r.granted += need
	observe(&r.phases.Open, 0)
	if r.rec != nil {
		r.rec.Span(fmt.Sprintf("session-%d", id), "OPEN", 0, 0)
	}
	return id, nil
}

// GetResult is one GET command's answer: a batch of result tuples, the
// virtual time the batch arrived in host memory, and whether the
// program has produced everything (Done with an empty batch means the
// session is fully drained).
type GetResult struct {
	Rows []schema.Tuple
	At   time.Duration
	Done bool
}

// Get retrieves the next staged result chunk: the GET command. The
// first Get runs the program to completion on the device timeline
// (traditional block devices are passive; the host drives all
// retrieval), then successive Gets drain the staged chunks in order.
func (r *Runtime) Get(id SessionID) (GetResult, error) {
	s, ok := r.sessions[id]
	if !ok {
		return GetResult{}, r.missing(id)
	}
	if s.state == stateAborted {
		return GetResult{}, fmt.Errorf("%w: %d", ErrSessionAborted, id)
	}
	inj := r.dev.Injector()
	if inj.Dead() {
		return GetResult{}, fmt.Errorf("%w: get on session %d", ErrDeviceFailed, id)
	}
	if wait := inj.GetTimeout(); wait > 0 {
		// Device-CPU hang: the program never responds and the host's
		// watchdog fires after wait simulated nanoseconds. The session
		// is unrecoverable.
		s.state = stateAborted
		return GetResult{At: time.Duration(wait)}, fmt.Errorf("%w: session %d after %v",
			ErrDeviceTimeout, id, time.Duration(wait))
	}
	if inj.SessionAbort() {
		s.state = stateAborted
		return GetResult{}, fmt.Errorf("%w: %d", ErrSessionAborted, id)
	}
	if s.result == nil {
		res, err := runProgram(r.dev, r.cost, r.chunkBytes, s.query, s.kernels)
		if err != nil {
			return GetResult{}, fmt.Errorf("device: session %d: %w", id, err)
		}
		s.result = res
		s.state = stateDone
	}
	if s.cursor >= len(s.result.chunks) {
		r.finishGet(s, s.result.end)
		return GetResult{At: s.result.end, Done: true}, nil
	}
	c := s.result.chunks[s.cursor]
	s.cursor++
	r.finishGet(s, c.shippedAt)
	return GetResult{
		Rows: c.rows,
		At:   c.shippedAt,
		Done: s.cursor >= len(s.result.chunks),
	}, nil
}

// missing classifies an id absent from the session table. Ids are a
// monotonic counter, so one at or below the last issued was opened and
// has since been closed; anything else was never opened here.
func (r *Runtime) missing(id SessionID) error {
	if id > 0 && id <= r.next {
		return fmt.Errorf("%w: %d", ErrClosed, id)
	}
	return fmt.Errorf("%w: %d", ErrUnknownSession, id)
}

// finishGet accounts one successful GET: its latency is the delivery
// gap from the previous chunk's arrival to this one's.
func (r *Runtime) finishGet(s *session, at time.Duration) {
	prev := s.lastAt
	if at < prev {
		at = prev
	}
	observe(&r.phases.Get, at-prev)
	if r.rec != nil {
		r.rec.Span(fmt.Sprintf("session-%d", s.id), "GET", prev, at)
	}
	s.lastAt = at
}

// Close releases a session: the CLOSE command. Closing an unknown or
// already-closed session is an error, mirroring a firmware status
// check, but an aborted session closes normally (that is how the host
// reclaims its grant). Close works even on a failed device — it only
// releases host-visible bookkeeping.
func (r *Runtime) Close(id SessionID) error {
	s, ok := r.sessions[id]
	if !ok {
		return r.missing(id)
	}
	observe(&r.phases.Close, 0)
	if r.rec != nil {
		r.rec.Span(fmt.Sprintf("session-%d", id), "CLOSE", s.lastAt, s.lastAt)
	}
	s.result = nil
	r.granted -= s.grant
	delete(r.sessions, id)
	return nil
}

// OpenSessions reports the number of live sessions (diagnostics).
func (r *Runtime) OpenSessions() int { return len(r.sessions) }

// GrantedBytes reports the device DRAM currently granted to live
// sessions (diagnostics).
func (r *Runtime) GrantedBytes() int64 { return r.granted }

// RunQuery is the host-side convenience wrapper the modified DBMS path
// uses: OPEN, drain with GET, CLOSE. It returns all result rows and the
// virtual time the final byte reached the host.
func (r *Runtime) RunQuery(q Query) ([]schema.Tuple, time.Duration, error) {
	rows, end, _, err := r.run(q)
	return rows, end, err
}

// RunPartial is RunQuery for one share of a split aggregation (a
// cluster partition, the device half of a hybrid run): a scalar
// aggregate whose program matched no row returns no row, so the merge
// folds nothing in for it. The row is still computed, shipped and
// charged exactly as under RunQuery.
func (r *Runtime) RunPartial(q Query) ([]schema.Tuple, time.Duration, error) {
	rows, end, n, err := r.run(q)
	if n.Survived == 0 && len(q.Aggs) > 0 && len(q.GroupBy) == 0 {
		rows = nil
	}
	return rows, end, err
}

// run is RunQuery, also reporting the program's totals.
func (r *Runtime) run(q Query) ([]schema.Tuple, time.Duration, Counts, error) {
	id, err := r.Open(q)
	if err != nil {
		return nil, 0, Counts{}, err
	}
	defer r.Close(id)
	var rows []schema.Tuple
	var end time.Duration
	for {
		res, err := r.Get(id)
		if err != nil {
			return nil, 0, Counts{}, err
		}
		rows = append(rows, res.Rows...)
		if res.At > end {
			end = res.At
		}
		if res.Done {
			return rows, end, r.sessions[id].result.counts, nil
		}
	}
}
