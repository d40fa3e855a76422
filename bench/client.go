package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one HTTP round trip; a session that exceeds it
// counts as failed.
const requestTimeout = 20 * time.Second

// sample is one session as its client saw it.
type sample struct {
	op *op
	// open, get and close are the three round trips of the session
	// protocol; total spans OPEN's first byte out to CLOSE's last byte
	// in, which is what a blocked host DBMS thread waits for.
	open, get, close, total time.Duration
	// end is when CLOSE returned.
	end       time.Time
	placement string
	err       error
	walFull   bool
}

// verified remembers a response that passed the full check, so a
// byte-identical repeat (the common case: bodies carry no session ids
// or wall-clock values) is accepted with one comparison.
type verified struct {
	body      []byte
	placement string
}

// client is one closed-loop caller: a single keep-alive connection on
// which it opens a session, long-polls its result and closes it, then
// takes the next op. Closed loop because the paper's caller is a host
// DBMS thread that blocks on GET until its session has finished.
type client struct {
	http *http.Client
	url  string
	// buf receives OPEN and CLOSE bodies, result the GET body (kept
	// apart so the answer survives CLOSE and can be checked after the
	// clock has stopped).
	buf, result bytes.Buffer
	seen        map[*op]verified
	reqBytes    int64
	rspBytes    int64
}

func newClient(url string) *client {
	return &client{
		url:  url,
		seen: make(map[*op]verified),
		http: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
			},
		},
	}
}

// roundTrip sends one request and leaves the response body in into.
func (c *client) roundTrip(method, url string, body []byte, into *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	into.Reset()
	_, err = into.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	c.reqBytes += int64(len(body))
	c.rspBytes += int64(into.Len())
	return resp.StatusCode, err
}

// session runs p as one OPEN → GET → CLOSE session and checks the
// answer against x once the clock has stopped.
func (c *client) session(p *op, x *expectation) sample {
	s := sample{op: p}
	t0 := now()
	status, err := c.roundTrip(http.MethodPost, c.url+"/sessions", p.body, &c.buf)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("OPEN = %d: %s", status, strings.TrimSpace(c.buf.String()))
	}
	if err != nil {
		s.err = err
		return s
	}
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &opened); err != nil || opened.ID == "" {
		s.err = fmt.Errorf("OPEN body without id: %s", c.buf.String())
		return s
	}
	t1 := now()
	getStatus, err := c.roundTrip(http.MethodGet, c.url+"/sessions/"+opened.ID+"/result", nil, &c.result)
	if err != nil {
		s.err = fmt.Errorf("GET: %w", err)
		return s
	}
	t2 := now()
	closeStatus, err := c.roundTrip(http.MethodDelete, c.url+"/sessions/"+opened.ID, nil, &c.buf)
	t3 := now()
	s.open, s.get, s.close, s.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	s.end = t3
	if err == nil && closeStatus != http.StatusOK {
		err = fmt.Errorf("CLOSE = %d: %s", closeStatus, strings.TrimSpace(c.buf.String()))
	}
	if err != nil {
		s.err = err
		return s
	}

	result := c.result.Bytes()
	if v, ok := c.seen[p]; ok && getStatus == http.StatusOK && bytes.Equal(v.body, result) {
		s.placement = v.placement
		return s
	}
	r, err := x.check(getStatus, result)
	if err != nil {
		s.err = fmt.Errorf("%s: %w", p.class, err)
		s.walFull = bytes.Contains(result, []byte(walFullMarker))
		return s
	}
	s.placement = r.Placement
	c.seen[p] = verified{body: append([]byte(nil), result...), placement: r.Placement}
	return s
}

// segment is one batch of ops driven by all clients.
type segment struct {
	samples []sample
	// start is when the first OPEN went out; wall spans from there to
	// the last CLOSE.
	start time.Time
	wall  time.Duration
	// cpu is the daemon CPU time the segment consumed (zero when the
	// server is in-process).
	cpu time.Duration
}

// runSegment hands ops out to the clients through one shared counter
// and returns when every op has finished or, with a non-zero deadline,
// when the deadline has passed and the sessions in flight have
// finished. The first failed session also ends it: the run is already
// incorrect, and a daemon that has stopped answering would otherwise
// cost a request timeout per remaining op. Each client is one
// goroutine; all are joined before it returns.
func runSegment(clients []*client, ops []*op, expect map[*op]*expectation, deadline time.Time, cpu func() time.Duration) segment {
	var next atomic.Int64
	var failed atomic.Bool
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	cpu0 := cpu()
	seg := segment{start: now()}
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(ops) || failed.Load() || (!deadline.IsZero() && deadline.Before(now())) {
					return
				}
				s := c.session(ops[n], expect[ops[n]])
				if s.err != nil {
					failed.Store(true)
				}
				per[i] = append(per[i], s)
			}
		}(i, c)
	}
	wg.Wait()
	seg.wall, seg.cpu = now().Sub(seg.start), cpu()-cpu0
	for _, s := range per {
		seg.samples = append(seg.samples, s...)
	}
	return seg
}

// failures counts the segment's failed sessions, and how many of them
// reported a full write-ahead log.
func (s *segment) failures() (failed, walFull int, first error) {
	for _, x := range s.samples {
		if x.err != nil {
			failed++
			if first == nil {
				first = x.err
			}
			if x.walFull {
				walFull++
			}
		}
	}
	return failed, walFull, first
}

// window is a run of consecutive completions inside a segment.
type window struct {
	// samples are the window's sessions in completion order; span is
	// the time they took to complete: from the completion before the
	// window (or the segment's start) to the window's last.
	samples []sample
	span    time.Duration
}

// windows cuts the segment's successful sessions, in completion order,
// into overlapping runs of n, each starting a quarter of a run after
// the one before. A segment shorter than n yields no window.
func (s *segment) windows(n int) []window {
	done := make([]sample, 0, len(s.samples))
	for _, x := range s.samples {
		if x.err == nil {
			done = append(done, x)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end.Before(done[j].end) })
	stride := n / 4
	if stride < 1 {
		stride = 1
	}
	var out []window
	for i := 0; i+n <= len(done); i += stride {
		from := s.start
		if i > 0 {
			from = done[i-1].end
		}
		out = append(out, window{samples: done[i : i+n], span: done[i+n-1].end.Sub(from)})
	}
	return out
}

// latencies extracts one duration per session in milliseconds.
func (w *window) latencies(pick func(*sample) time.Duration) []float64 {
	out := make([]float64, len(w.samples))
	for i := range w.samples {
		out[i] = ms(pick(&w.samples[i]))
	}
	return out
}
