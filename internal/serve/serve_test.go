package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/device"
	"smartssd/internal/nand"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/ssd"
)

func smallParams() ssd.Params {
	p := ssd.DefaultParams()
	p.Geometry = nand.Geometry{
		Channels: 8, ChipsPerChannel: 2, BlocksPerChip: 16, PagesPerBlock: 32, PageSize: 8192,
	}
	return p
}

func lineitemSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "l_quantity", Kind: schema.Int32},
		schema.Column{Name: "l_extendedprice", Kind: schema.Int32},
		schema.Column{Name: "l_discount", Kind: schema.Int32},
		schema.Column{Name: "l_shipdate", Kind: schema.Date},
		schema.Column{Name: "l_returnflag", Kind: schema.Char, Len: 1},
	)
}

func genRows(seed int64, n int) []schema.Tuple {
	rng := rand.New(rand.NewSource(seed))
	flags := []string{"A", "N", "R"}
	rows := make([]schema.Tuple, n)
	for i := range rows {
		rows[i] = schema.Tuple{
			schema.IntVal(int64(1 + rng.Intn(50))),
			schema.IntVal(int64(900 + rng.Intn(100000))),
			schema.IntVal(int64(rng.Intn(11))),
			schema.DateVal(1992+rng.Intn(7), time.Month(1+rng.Intn(12)), 1+rng.Intn(28)),
			schema.StrVal(flags[rng.Intn(len(flags))]),
		}
	}
	return rows
}

func feeder(rows []schema.Tuple) func() (schema.Tuple, bool) {
	i := 0
	return func() (schema.Tuple, bool) {
		if i >= len(rows) {
			return nil, false
		}
		t := rows[i]
		i++
		return t, true
	}
}

// newBackends builds an engine and a 4-device, 2-replica cluster loaded
// with the same 8000 lineitem rows.
func newBackends(t *testing.T) (*core.Engine, *core.Cluster) {
	t.Helper()
	rows := genRows(7, 8000)
	s := lineitemSchema()
	e, err := core.New(core.Config{SSD: smallParams(), DisableHDD: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("lineitem", s, page.PAX, 512, core.OnSSD); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("lineitem", feeder(rows)); err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(4, smallParams(), device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cl.SetReplication(2)
	if err := cl.CreateTable("lineitem", s, page.PAX, 512); err != nil {
		t.Fatal(err)
	}
	if err := cl.Load("lineitem", feeder(rows)); err != nil {
		t.Fatal(err)
	}
	return e, cl
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	e, cl := newBackends(t)
	s, err := New(cfg, e, cl)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

func del(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func openSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	status, data := post(t, ts, body)
	if status != http.StatusCreated {
		t.Fatalf("POST /sessions = %d: %s", status, data)
	}
	var ob struct{ ID, State string }
	if err := json.Unmarshal(data, &ob); err != nil {
		t.Fatalf("open body: %v: %s", err, data)
	}
	if ob.State != "OPEN" || ob.ID == "" {
		t.Fatalf("open body = %s", data)
	}
	return ob.ID
}

const q6Body = `{
  "tag": "q6",
  "table": "lineitem",
  "predicate": "l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount >= 5 AND l_discount <= 7 AND l_quantity < 24",
  "aggs": [
    {"kind": "sum", "expr": "l_extendedprice * l_discount", "name": "revenue"},
    {"kind": "count", "name": "cnt"}
  ],
  "mode": "device"
}`

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCapacity: 8})
	id := openSession(t, ts, q6Body)

	status, data, _ := get(t, ts, "/sessions/"+id+"/result")
	if status != http.StatusOK {
		t.Fatalf("GET result = %d: %s", status, data)
	}
	var rb resultBody
	if err := json.Unmarshal(data, &rb); err != nil {
		t.Fatalf("result body: %v: %s", err, data)
	}
	if rb.State != "DONE" || rb.Tag != "q6" || rb.Target != "engine" || rb.Placement != "device" {
		t.Fatalf("result = %+v", rb)
	}
	if len(rb.Rows) != 1 || len(rb.Rows[0]) != 2 {
		t.Fatalf("rows = %v", rb.Rows)
	}
	if rb.Columns[0] != "revenue" || rb.Columns[1] != "cnt" {
		t.Fatalf("columns = %v", rb.Columns)
	}
	if rb.ElapsedNS <= 0 {
		t.Fatalf("elapsed_ns = %d", rb.ElapsedNS)
	}

	// The result re-reads identically, then CLOSE removes the session.
	status2, data2, _ := get(t, ts, "/sessions/"+id+"/result")
	if status2 != status || !bytes.Equal(data2, data) {
		t.Fatal("second GET differs from first")
	}
	if status, data := del(t, ts, "/sessions/"+id); status != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", status, data)
	}
	if status, _, _ := get(t, ts, "/sessions/"+id+"/result"); status != http.StatusNotFound {
		t.Fatalf("GET after close = %d, want 404", status)
	}
	if status, _ := del(t, ts, "/sessions/"+id); status != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", status)
	}
}

// workloadBody builds the i'th request of the fixed replay workload:
// a deterministic mix of engine and cluster sessions, placements, and
// Q6-parameter variations, each tagged with its index.
func workloadBody(i int) string {
	target := "engine"
	if i%2 == 1 {
		target = "cluster"
	}
	mode := []string{"device", "host", "auto"}[i%3]
	if target == "cluster" {
		mode = ""
	}
	yr := 1992 + i%6
	return fmt.Sprintf(`{
  "tag": "w-%03d",
  "table": "lineitem",
  "target": %q,
  "mode": %q,
  "predicate": "l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01' AND l_discount >= %d",
  "aggs": [
    {"kind": "sum", "expr": "l_extendedprice", "name": "sum_price"},
    {"kind": "count", "name": "cnt"},
    {"kind": "max", "expr": "l_quantity", "name": "max_qty"}
  ]
}`, i, target, mode, yr, yr+1, i%8)
}

// TestConcurrentSessionsMatchSerial is the service's core correctness
// claim: 64 clients racing the same fixed workload receive result
// bodies byte-identical to a serial replay on a fresh server. Run under
// -race in CI.
func TestConcurrentSessionsMatchSerial(t *testing.T) {
	const n = 64

	// Serial replay.
	_, serialTS := newTestServer(t, Config{Workers: 4, QueueCapacity: n})
	want := make(map[string][]byte)
	for i := 0; i < n; i++ {
		id := openSession(t, serialTS, workloadBody(i))
		status, data, _ := get(t, serialTS, "/sessions/"+id+"/result")
		if status != http.StatusOK {
			t.Fatalf("serial session %d = %d: %s", i, status, data)
		}
		want[fmt.Sprintf("w-%03d", i)] = data
		if status, _ := del(t, serialTS, "/sessions/"+id); status != http.StatusOK {
			t.Fatalf("serial close %d failed", i)
		}
	}

	// Concurrent replay on a fresh, identically loaded server.
	_, concTS := newTestServer(t, Config{Workers: 4, QueueCapacity: n})
	var mu sync.Mutex
	got := make(map[string][]byte)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(concTS.URL+"/sessions", "application/json",
				strings.NewReader(workloadBody(i)))
			if err != nil {
				errs <- err
				return
			}
			open, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("session %d open = %d: %s", i, resp.StatusCode, open)
				return
			}
			var ob struct{ ID string }
			if err := json.Unmarshal(open, &ob); err != nil {
				errs <- err
				return
			}
			rr, err := http.Get(concTS.URL + "/sessions/" + ob.ID + "/result")
			if err != nil {
				errs <- err
				return
			}
			data, err := io.ReadAll(rr.Body)
			rr.Body.Close()
			if err != nil || rr.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("session %d result = %d: %s", i, rr.StatusCode, data)
				return
			}
			mu.Lock()
			got[fmt.Sprintf("w-%03d", i)] = data
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for tag, w := range want {
		g, ok := got[tag]
		if !ok {
			t.Fatalf("concurrent run missing %s", tag)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs:\nconcurrent: %s\nserial:     %s", tag, g, w)
		}
	}
}

// TestLoadSheddingReturns429 pins the admission contract: with workers
// paused and the queue full, POST sheds load with 429, a Retry-After
// header, and a complete JSON body — and every admitted session still
// completes with a full result.
func TestLoadSheddingReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 2, RetryAfterSeconds: 3})
	s.Pool().Pause()

	var admitted []string
	var shed int
	for i := 0; i < 6; i++ {
		resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(q6Body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated:
			var ob struct{ ID string }
			if err := json.Unmarshal(data, &ob); err != nil {
				t.Fatalf("open body: %v", err)
			}
			admitted = append(admitted, ob.ID)
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") != "3" {
				t.Fatalf("Retry-After = %q, want 3", resp.Header.Get("Retry-After"))
			}
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil {
				t.Fatalf("429 body is not complete JSON: %v: %s", err, data)
			}
			if eb.State != "REJECTED" || eb.RetryAfterSeconds != 3 {
				t.Fatalf("429 body = %s", data)
			}
		default:
			t.Fatalf("POST = %d: %s", resp.StatusCode, data)
		}
	}
	if len(admitted) != 2 || shed != 4 {
		t.Fatalf("admitted %d shed %d, want 2 and 4", len(admitted), shed)
	}

	s.Pool().Resume()
	for _, id := range admitted {
		status, data, _ := get(t, ts, "/sessions/"+id+"/result")
		if status != http.StatusOK {
			t.Fatalf("admitted session result = %d: %s", status, data)
		}
		var rb resultBody
		if err := json.Unmarshal(data, &rb); err != nil || rb.State != "DONE" {
			t.Fatalf("admitted session body incomplete: %v: %s", err, data)
		}
	}
}

func TestDeadlineMapsToGetTimeout(t *testing.T) {
	for _, target := range []string{"engine", "cluster"} {
		body := fmt.Sprintf(`{
  "tag": "late",
  "table": "lineitem",
  "target": %q,
  "deadline_ns": 1,
  "aggs": [{"kind": "count", "name": "cnt"}]
}`, target)
		_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
		id := openSession(t, ts, body)
		status, data, _ := get(t, ts, "/sessions/"+id+"/result")
		if status != http.StatusGatewayTimeout {
			t.Fatalf("%s: deadline result = %d: %s", target, status, data)
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatalf("%s: 504 body: %v: %s", target, err, data)
		}
		if eb.State != "FAILED" || eb.Class != "get-timeout" || eb.Tag != "late" {
			t.Fatalf("%s: 504 body = %s", target, data)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCapacity: 8})
	clusterBody := strings.Replace(q6Body, `"mode": "device"`, `"target": "cluster"`, 1)
	for _, b := range []string{q6Body, clusterBody} {
		id := openSession(t, ts, b)
		if status, data, _ := get(t, ts, "/sessions/"+id+"/result"); status != http.StatusOK {
			t.Fatalf("session = %d: %s", status, data)
		}
	}
	status, data, _ := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	var mb metricsBody
	if err := json.Unmarshal(data, &mb); err != nil {
		t.Fatalf("metrics body: %v: %s", err, data)
	}
	if mb.Sessions.Opened != 2 || mb.Sessions.Completed != 2 {
		t.Fatalf("sessions = %+v", mb.Sessions)
	}
	if mb.Queue.Workers != 2 || mb.Queue.Capacity != 8 {
		t.Fatalf("queue = %+v", mb.Queue)
	}
	if len(mb.DeviceLoads) != 4 {
		t.Fatalf("device_loads = %v", mb.DeviceLoads)
	}
	var routed int64
	for _, l := range mb.DeviceLoads {
		routed += l
	}
	if routed != 4 { // one cluster session, one routed execution per partition
		t.Fatalf("routed executions = %d, want 4 (%v)", routed, mb.DeviceLoads)
	}
	if mb.Cluster == nil || len(mb.Cluster.Resources) == 0 {
		t.Fatalf("metrics missing cluster report: %s", data)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	traced := strings.Replace(q6Body, `"tag": "q6"`, `"tag": "q6", "trace": true`, 1)
	id := openSession(t, ts, traced)
	if status, data, _ := get(t, ts, "/sessions/"+id+"/result"); status != http.StatusOK {
		t.Fatalf("traced session = %d: %s", status, data)
	}
	status, data, hdr := get(t, ts, "/debug/trace?session="+id)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/trace = %d: %s", status, data)
	}
	if hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("trace content type = %q", hdr.Get("Content-Type"))
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace body is not a Chrome trace event array: %v: %.120s", err, data)
	}

	// Untraced sessions and unknown ids both 404.
	plain := openSession(t, ts, q6Body)
	if status, _, _ := get(t, ts, "/sessions/"+plain+"/result"); status != http.StatusOK {
		t.Fatal("plain session failed")
	}
	if status, _, _ := get(t, ts, "/debug/trace?session="+plain); status != http.StatusNotFound {
		t.Fatalf("untraced trace = %d, want 404", status)
	}
	if status, _, _ := get(t, ts, "/debug/trace?session=s-999999"); status != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", status)
	}
}

// TestDecodeRequestResolvesTargetSchema pins the decoder to the
// executing backend's catalog: when engine and cluster both catalogue a
// table name but with diverging column layouts, a cluster session's
// expressions must compile against the cluster schema (and an engine
// session's against the engine's), never the other way around.
func TestDecodeRequestResolvesTargetSchema(t *testing.T) {
	// Same logical rows (a=1, b=2) under different physical layouts:
	// the engine stores (a, b), the cluster stores (b, a).
	const n = 10
	engineSchema := schema.New(
		schema.Column{Name: "a", Kind: schema.Int32},
		schema.Column{Name: "b", Kind: schema.Int32},
	)
	clusterSchema := schema.New(
		schema.Column{Name: "b", Kind: schema.Int32},
		schema.Column{Name: "a", Kind: schema.Int32},
	)
	engineRows := make([]schema.Tuple, n)
	clusterRows := make([]schema.Tuple, n)
	for i := range engineRows {
		engineRows[i] = schema.Tuple{schema.IntVal(1), schema.IntVal(2)}
		clusterRows[i] = schema.Tuple{schema.IntVal(2), schema.IntVal(1)}
	}
	e, err := core.New(core.Config{SSD: smallParams(), DisableHDD: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("t", engineSchema, page.PAX, 64, core.OnSSD); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("t", feeder(engineRows)); err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(2, smallParams(), device.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("t", clusterSchema, page.PAX, 64); err != nil {
		t.Fatal(err)
	}
	if err := cl.Load("t", feeder(clusterRows)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, QueueCapacity: 4}, e, cl)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	for _, target := range []string{"engine", "cluster"} {
		body := fmt.Sprintf(`{
  "tag": "diverge",
  "table": "t",
  "target": %q,
  "aggs": [{"kind": "sum", "expr": "a", "name": "sum_a"}]
}`, target)
		id := openSession(t, ts, body)
		status, data, _ := get(t, ts, "/sessions/"+id+"/result")
		if status != http.StatusOK {
			t.Fatalf("%s: result = %d: %s", target, status, data)
		}
		var rb resultBody
		if err := json.Unmarshal(data, &rb); err != nil {
			t.Fatalf("%s: result body: %v: %s", target, err, data)
		}
		// sum(a) is n*1 on both backends; compiling "a" against the
		// wrong catalog would read column b and report n*2.
		if got, ok := rb.Rows[0][0].(float64); !ok || got != n {
			t.Fatalf("%s: sum(a) = %v, want %d (expression compiled against the wrong schema)",
				target, rb.Rows[0][0], n)
		}
	}
}

// TestSessionCloseWhileRunningUnblocksLongPoll: a DELETE racing a
// running session must not strand long-pollers. finish publishes a 410
// tombstone and closes done even though the session left the table.
func TestSessionCloseWhileRunningUnblocksLongPoll(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	s.Pool().Pause()
	id := openSession(t, ts, q6Body)

	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		t.Fatal("session not in table after open")
	}

	// A long-poll that grabbed the session before the DELETE.
	type reply struct {
		status int
		data   []byte
	}
	polled := make(chan reply, 1)
	go func() {
		status, data, _ := get(t, ts, "/sessions/"+id+"/result")
		polled <- reply{status, data}
	}()

	if status, _ := del(t, ts, "/sessions/"+id); status != http.StatusOK {
		t.Fatalf("DELETE while running = %d, want 200", status)
	}
	s.Pool().Resume()

	// The worker's finish must close done with the tombstone outcome.
	select {
	case <-sess.done:
	case <-time.After(10 * time.Second):
		t.Fatal("session done never closed after close-while-running")
	}
	if sess.status != http.StatusGone {
		t.Fatalf("tombstone status = %d, want 410", sess.status)
	}
	var eb errorBody
	if err := json.Unmarshal(sess.body, &eb); err != nil || eb.State != "CLOSED" || eb.Tag != "q6" {
		t.Fatalf("tombstone body = %s (err %v)", sess.body, err)
	}

	// The long-poll terminated: 410 if it was already waiting on the
	// session, 404 if the DELETE won the map lookup.
	select {
	case r := <-polled:
		if r.status != http.StatusGone && r.status != http.StatusNotFound {
			t.Fatalf("long-poll after close = %d: %s", r.status, r.data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll still blocked after close-while-running")
	}
}

// TestSessionEvictionBoundsRetention: finished sessions beyond
// MaxRetainedSessions are evicted lowest-sequence-first, so clients
// that never CLOSE cannot grow the session table without bound.
func TestSessionEvictionBoundsRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 8, MaxRetainedSessions: 2})

	var ids []string
	for i := 0; i < 3; i++ {
		id := openSession(t, ts, q6Body)
		if status, data, _ := get(t, ts, "/sessions/"+id+"/result"); status != http.StatusOK {
			t.Fatalf("session %d result = %d: %s", i, status, data)
		}
		ids = append(ids, id)
	}

	// The third finish pushed retention to 3 > 2: the oldest finished
	// session is gone, the two newest still replay their bodies.
	if status, _, _ := get(t, ts, "/sessions/"+ids[0]+"/result"); status != http.StatusNotFound {
		t.Fatalf("evicted session GET = %d, want 404", status)
	}
	for _, id := range ids[1:] {
		if status, data, _ := get(t, ts, "/sessions/"+id+"/result"); status != http.StatusOK {
			t.Fatalf("retained session GET = %d: %s", status, data)
		}
	}
	status, data, _ := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	var mb metricsBody
	if err := json.Unmarshal(data, &mb); err != nil {
		t.Fatalf("metrics body: %v: %s", err, data)
	}
	if mb.Sessions.Evicted != 1 || mb.Sessions.Completed != 3 {
		t.Fatalf("sessions = %+v, want 1 evicted of 3 completed", mb.Sessions)
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	e, cl := newBackends(t)
	s, err := New(Config{Workers: 1}, e, cl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []struct{ name, body string }{
		{"empty", ``},
		{"not json", `{`},
		{"unknown field", `{"table":"lineitem","bogus":1,"aggs":[{"kind":"count"}]}`},
		{"trailing data", `{"table":"lineitem","aggs":[{"kind":"count"}]} {}`},
		{"missing table", `{"aggs":[{"kind":"count"}]}`},
		{"unknown table", `{"table":"nope","aggs":[{"kind":"count"}]}`},
		{"long tag", `{"tag":"` + strings.Repeat("x", 200) + `","table":"lineitem","aggs":[{"kind":"count"}]}`},
		{"bad target", `{"table":"lineitem","target":"moon","aggs":[{"kind":"count"}]}`},
		{"bad mode", `{"table":"lineitem","mode":"warp","aggs":[{"kind":"count"}]}`},
		{"negative deadline", `{"table":"lineitem","deadline_ns":-1,"aggs":[{"kind":"count"}]}`},
		{"bad predicate", `{"table":"lineitem","predicate":"l_discount >","aggs":[{"kind":"count"}]}`},
		{"bad agg kind", `{"table":"lineitem","aggs":[{"kind":"avg","expr":"l_discount"}]}`},
		{"count with expr", `{"table":"lineitem","aggs":[{"kind":"count","expr":"l_discount"}]}`},
		{"sum without expr", `{"table":"lineitem","aggs":[{"kind":"sum"}]}`},
		{"bad agg expr", `{"table":"lineitem","aggs":[{"kind":"sum","expr":"nope + 1"}]}`},
		{"no aggs no output", `{"table":"lineitem"}`},
		{"aggs and output", `{"table":"lineitem","aggs":[{"kind":"count"}],"output":[{"name":"q","expr":"l_quantity"}]}`},
		{"output missing name", `{"table":"lineitem","output":[{"expr":"l_quantity"}]}`},
		{"output missing expr", `{"table":"lineitem","output":[{"name":"q"}]}`},
		{"cluster trace", `{"table":"lineitem","target":"cluster","trace":true,"aggs":[{"kind":"count"}]}`},
	}
	for _, c := range cases {
		if q, err := DecodeRequest(s, []byte(c.body)); err == nil {
			t.Errorf("%s: decoded to %+v, want error", c.name, q)
		}
	}
}

// TestDecodeRequestAppliesKindRules holds the JSON fields to the SQL
// binder's kind rules. Before they shared them, SUM or MAX of a CHAR
// column decoded and answered 0 on every backend, and a SET that
// stored a CHAR value into an integer column (or the reverse) committed
// zeros or blanks through the log.
func TestDecodeRequestAppliesKindRules(t *testing.T) {
	e, cl := newBackends(t)
	s, err := New(Config{Workers: 1}, e, cl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, target := range []string{"engine", "cluster"} {
		for _, kind := range []string{"sum", "min", "max"} {
			body := fmt.Sprintf(`{"table":"lineitem","target":%q,"aggs":[{"kind":%q,"expr":"l_returnflag"}]}`, target, kind)
			_, err := DecodeRequest(s, []byte(body))
			if err == nil || !strings.Contains(err.Error(), kind+" needs a numeric argument") {
				t.Errorf("%s: err = %v, want %q", body, err, kind+" needs a numeric argument")
			}
		}
	}
	set := func(col, e string) string {
		return fmt.Sprintf(`{"table":"lineitem","target":"cluster","predicate":"l_quantity < 10",`+
			`"update":[{"column":%q,"expr":%q}]}`, col, e)
	}
	for _, body := range []string{set("l_quantity", "l_returnflag"), set("l_returnflag", "l_quantity"), set("l_returnflag", "'A' = 'A'")} {
		if _, err := DecodeRequest(s, []byte(body)); err == nil || !strings.Contains(err.Error(), "cannot assign") {
			t.Errorf("%s: err = %v, want a cannot-assign error", body, err)
		}
	}
	// The integer kinds mix, and CHAR takes CHAR.
	for _, body := range []string{
		set("l_quantity", "l_discount + l_shipdate"),
		set("l_shipdate", "l_quantity"),
		set("l_returnflag", "'A'"),
		set("l_returnflag", "CASE WHEN l_quantity < 5 THEN l_returnflag ELSE 'N' END"),
		`{"table":"lineitem","aggs":[{"kind":"max","expr":"l_shipdate"},{"kind":"sum","expr":"l_quantity < 5"}]}`,
	} {
		if _, err := DecodeRequest(s, []byte(body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

func TestDecodeRequestOutputProjection(t *testing.T) {
	e, cl := newBackends(t)
	s, err := New(Config{Workers: 1}, e, cl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q, err := DecodeRequest(s, []byte(`{
  "table": "lineitem",
  "predicate": "l_returnflag = 'R' AND l_quantity < 3",
  "output": [
    {"name": "qty", "expr": "l_quantity"},
    {"name": "flag", "expr": "l_returnflag"}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Spec.Output) != 2 || q.Cluster || q.Mode != core.Auto {
		t.Fatalf("query = %+v", q)
	}
}

// FuzzDecodeRequest holds the wire decoder to its no-panic contract,
// and for bodies that decode, checks the normalized request re-encodes
// and re-decodes to the same compiled query.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		q6Body,
		`{"table":"lineitem","aggs":[{"kind":"count"}]}`,
		`{"table":"lineitem","target":"cluster","aggs":[{"kind":"min","expr":"l_quantity"}]}`,
		`{"table":"lineitem","output":[{"name":"q","expr":"l_quantity + 1"}],"deadline_ns":5000000}`,
		`{"table":"lineitem","predicate":"l_returnflag = 'R'","output":[{"name":"f","expr":"l_returnflag"}],"trace":true}`,
		`{"table":"nope","aggs":[{"kind":"count"}]}`,
		`{"table":"lineitem","aggs":[]}`,
		`{"tag":"\\u0000","table":"lineitem","aggs":[{"kind":"count"}]}`,
		`[]`,
		`{{`,
		``,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	e, cl := buildFuzzBackends(f)
	srv, err := New(Config{Workers: 1}, e, cl)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		q, err := DecodeRequest(srv, []byte(body))
		if err != nil {
			return // rejected inputs just need to not panic
		}
		re, err := json.Marshal(q.Req)
		if err != nil {
			t.Fatalf("normalized request does not re-encode: %v", err)
		}
		q2, err := DecodeRequest(srv, re)
		if err != nil {
			t.Fatalf("re-encoded request %s does not re-decode: %v", re, err)
		}
		if q2.Cluster != q.Cluster || q2.Mode != q.Mode || q2.Deadline != q.Deadline ||
			len(q2.Spec.Aggs) != len(q.Spec.Aggs) || len(q2.Spec.Output) != len(q.Spec.Output) {
			t.Fatalf("re-decode diverged: %+v vs %+v", q, q2)
		}
	})
}

// buildFuzzBackends is newBackends without *testing.T (fuzz setup gets
// a *testing.F).
func buildFuzzBackends(f *testing.F) (*core.Engine, *core.Cluster) {
	f.Helper()
	rows := genRows(7, 500)
	s := lineitemSchema()
	e, err := core.New(core.Config{SSD: smallParams(), DisableHDD: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := e.CreateTable("lineitem", s, page.PAX, 512, core.OnSSD); err != nil {
		f.Fatal(err)
	}
	if err := e.Load("lineitem", feeder(rows)); err != nil {
		f.Fatal(err)
	}
	cl, err := core.NewCluster(2, smallParams(), device.DefaultCostModel())
	if err != nil {
		f.Fatal(err)
	}
	if err := cl.CreateTable("lineitem", s, page.PAX, 512); err != nil {
		f.Fatal(err)
	}
	if err := cl.Load("lineitem", feeder(rows)); err != nil {
		f.Fatal(err)
	}
	return e, cl
}
