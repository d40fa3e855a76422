package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"smartssd/internal/core"
	"smartssd/internal/device"
	"smartssd/internal/page"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/serve"
	"smartssd/internal/sql"
	"smartssd/internal/ssd"
	"smartssd/workload"
)

// backends is the in-process twin of what cmd/smartssdd loads at
// startup: one engine and one replicated cluster over the same seeded
// generators. The daemon's loader lives in package main and cannot be
// imported, so this mirrors it; the correctness gate would catch any
// drift between the two (every answer is checked against this copy).
type backends struct {
	sf      float64
	engine  *core.Engine
	cluster *core.Cluster
}

func loadEngine(sf float64, seed int64) (*core.Engine, error) {
	e, err := core.New(core.Config{DisableHDD: true})
	if err != nil {
		return nil, err
	}
	pages := workload.NumLineitem(sf)/51 + 2
	if _, err := e.CreateTable("lineitem", workload.LineitemSchema(), page.PAX, pages, core.OnSSD); err != nil {
		return nil, err
	}
	if err := e.Load("lineitem", workload.LineitemGen(sf, seed)); err != nil {
		return nil, err
	}
	paPages := workload.NumPart(sf)/40 + 2
	if _, err := e.CreateTable("part", workload.PartSchema(), page.PAX, paPages, core.OnSSD); err != nil {
		return nil, err
	}
	if err := e.Load("part", workload.PartGen(sf, seed+1)); err != nil {
		return nil, err
	}
	return e, nil
}

func loadCluster(sf float64, seed int64) (*core.Cluster, error) {
	cl, err := core.NewCluster(daemonDevices, ssd.DefaultParams(), device.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	cl.SetReplication(daemonReplication)
	pages := workload.NumLineitem(sf)/51 + 2
	if err := cl.CreateTable("lineitem", workload.LineitemSchema(), page.PAX, pages); err != nil {
		return nil, err
	}
	if err := cl.Load("lineitem", workload.LineitemGen(sf, seed)); err != nil {
		return nil, err
	}
	paPages := workload.NumPart(sf)/40 + 2
	if err := cl.CreateTable("part", workload.PartSchema(), page.PAX, paPages); err != nil {
		return nil, err
	}
	err = cl.Replicate("part", func() func() (schema.Tuple, bool) {
		return workload.PartGen(sf, seed+1)
	})
	if err != nil {
		return nil, err
	}
	return cl, nil
}

func loadBackends(sf float64) (*backends, error) {
	e, err := loadEngine(sf, daemonDataSeed)
	if err != nil {
		return nil, fmt.Errorf("load engine: %w", err)
	}
	cl, err := loadCluster(sf, daemonDataSeed)
	if err != nil {
		return nil, fmt.Errorf("load cluster: %w", err)
	}
	return &backends{sf: sf, engine: e, cluster: cl}, nil
}

// expectation is what a correct response to one distinct request body
// must carry.
type expectation struct {
	// rows is the canonical rendering of the expected rows (see
	// canonRows); for updates it is the expected rows_updated.
	rows string
	// sorted marks grouped results without ORDER BY: the engine emits
	// groups in hash order and the cluster sorted, so both sides are
	// compared as sorted sets.
	sorted bool
	// elapsedNS is the simulated elapsed time an engine-target session
	// must report (engine sessions run cold on private clones, so the
	// value is independent of concurrency); -1 when not checked
	// (cluster sessions share device state that updates perturb).
	elapsedNS int64
}

// oracle computes and holds expectations for a workload's distinct
// request bodies.
type oracle struct {
	b *backends
	// planner answers EXPLAIN and nothing else. The planner prices the
	// host path by the table's uncached bytes, so an engine that has
	// just scanned lineitem on the host explains the same statement
	// differently from one that has not (README, "Findings"); the
	// daemon's workers never run a host scan of lineitem on the one
	// workload that sends EXPLAIN, and neither does this clone.
	planner *core.Engine
	// probe runs every non-host engine query; a clone, so the base
	// engine's stored pages stay shared and unmodified.
	probe *core.Engine
	// rowsByKey caches the host run per op key: the four renditions of
	// one parameter draw must agree, so they share one host run.
	rowsByKey map[string]string
	byBody    map[*op]*expectation
	// hostNS is the simulated elapsed of the host run per op key.
	hostNS map[string]int64
}

func newOracle(b *backends) (*oracle, error) {
	probe, err := b.engine.Clone()
	if err != nil {
		return nil, err
	}
	planner, err := b.engine.Clone()
	if err != nil {
		return nil, err
	}
	return &oracle{
		b:         b,
		probe:     probe,
		planner:   planner,
		rowsByKey: make(map[string]string),
		byBody:    make(map[*op]*expectation),
		hostNS:    make(map[string]int64),
	}, nil
}

// canonRow renders one tuple the way the wire format does (byte-backed
// values as strings, everything else as its integer) in compact JSON.
func canonRow(t schema.Tuple) string {
	row := make([]any, len(t))
	for i, v := range t {
		if v.Bytes != nil {
			row[i] = string(v.Bytes)
		} else {
			row[i] = v.Int
		}
	}
	data, err := json.Marshal(row)
	if err != nil {
		panic(err) // strings and int64s always marshal
	}
	return string(data)
}

// canonRows joins canonical rows, sorting them first when the result is
// an unordered set.
func canonRows(rows []string, sorted bool) string {
	if sorted {
		rows = append([]string(nil), rows...)
		sort.Strings(rows)
	}
	return strings.Join(rows, "\n")
}

func canonTuples(tuples []schema.Tuple, sorted bool) string {
	rows := make([]string, len(tuples))
	for i, t := range tuples {
		rows[i] = canonRow(t)
	}
	return canonRows(rows, sorted)
}

// engineSource resolves every table, whatever the request's target,
// against the engine's catalog and load-time statistics: engine and
// cluster are loaded from the same generators, so schemas and column
// ranges agree, and the oracle runs everything on the engine.
type engineSource struct{ e *core.Engine }

func (s engineSource) TableSchema(name string) (*schema.Schema, error) {
	return serve.EngineSchemas{E: s.e}.TableSchema(name)
}

func (s engineSource) TargetTableSchema(_ bool, name string) (*schema.Schema, error) {
	return s.TableSchema(name)
}

func (s engineSource) TargetTableStats(_ bool, name string) ([]core.ColumnStats, bool) {
	return s.e.TableStats(name)
}

// decode compiles a request body the way the daemon's handler does.
func (o *oracle) decode(body []byte) (*serve.Query, error) {
	return serve.DecodeRequest(engineSource{o.b.engine}, body)
}

// expect computes (once) the expectation for p.
func (o *oracle) expect(p *op) (*expectation, error) {
	if x, ok := o.byBody[p]; ok {
		return x, nil
	}
	q, err := o.decode(p.body)
	if err != nil {
		return nil, fmt.Errorf("oracle decode %s: %w", p.class, err)
	}
	x := &expectation{elapsedNS: -1}
	switch {
	case q.Explain:
		report, err := sql.ExplainEngine(o.planner, q.Compiled)
		if err != nil {
			return nil, fmt.Errorf("oracle explain: %w", err)
		}
		lines := strings.Split(strings.TrimRight(report, "\n"), "\n")
		rows := make([]string, len(lines))
		for i, l := range lines {
			rows[i] = canonRow(schema.Tuple{schema.StrVal(l)})
		}
		x.rows = canonRows(rows, false)
	case p.update:
		// rows_updated must equal the number of rows the predicate
		// selects; nothing the workload writes changes that count.
		res, err := o.probe.Run(core.QuerySpec{
			Table:  q.Req.Table,
			Filter: q.Filter,
			Aggs:   countAgg,
		}, core.ForceHost)
		if err != nil {
			return nil, fmt.Errorf("oracle update count: %w", err)
		}
		x.rows = canonTuples(res.Rows, false)
	default:
		x.sorted = len(q.Spec.GroupBy) > 0 && len(q.Spec.OrderBy) == 0
		rows, ok := o.rowsByKey[p.key]
		if !ok {
			res, err := o.probe.Run(q.Spec, core.ForceHost)
			if err != nil {
				return nil, fmt.Errorf("oracle host run %s: %w", p.class, err)
			}
			rows = canonTuples(res.Rows, x.sorted)
			o.rowsByKey[p.key] = rows
			o.hostNS[p.key] = res.Elapsed.Nanoseconds()
		}
		x.rows = rows
		if !q.Cluster {
			// The same request in its own mode, for the simulated
			// elapsed the wire must reproduce bit for bit.
			if q.Mode == core.ForceHost {
				x.elapsedNS = o.hostNS[p.key]
			} else {
				res, err := o.probe.Run(q.Spec, q.Mode)
				if err != nil {
					return nil, fmt.Errorf("oracle %s run: %w", p.class, err)
				}
				if got := canonTuples(res.Rows, x.sorted); got != rows {
					return nil, fmt.Errorf("oracle: %s in-process rows differ from the host run:\n%s\nvs\n%s",
						p.class, got, rows)
				}
				x.elapsedNS = res.Elapsed.Nanoseconds()
			}
		}
	}
	o.byBody[p] = x
	return x, nil
}

// countAgg is the aggregate list of the update oracle.
var countAgg = []plan.AggSpec{{Kind: plan.Count, Name: "rows_updated"}}

// response is the subset of the daemon's result body the checker reads.
type response struct {
	State     string              `json:"state"`
	Placement string              `json:"placement"`
	Rows      [][]json.RawMessage `json:"rows"`
	ElapsedNS int64               `json:"elapsed_ns"`
	Error     string              `json:"error"`
}

// walFullMarker is how a session reports a full coordinator log; it is
// counted on its own because fast 500s would flatter latency.
const walFullMarker = "wal: log region full"

// check verifies one finished session against its expectation: HTTP
// 200, state DONE, the expected rows, and (engine target) the expected
// simulated elapsed time.
func (x *expectation) check(status int, body []byte) (*response, error) {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("undecodable result (status %d): %v", status, err)
	}
	if status != 200 || r.State != "DONE" {
		return &r, fmt.Errorf("status %d state %q: %s", status, r.State, r.Error)
	}
	rows := make([]string, len(r.Rows))
	var buf bytes.Buffer
	for i, row := range r.Rows {
		buf.Reset()
		buf.WriteByte('[')
		for j, v := range row {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.Write(v)
		}
		buf.WriteByte(']')
		rows[i] = buf.String()
	}
	if got := canonRows(rows, x.sorted); got != x.rows {
		return &r, fmt.Errorf("rows differ from the in-process oracle:\n got %s\nwant %s", got, x.rows)
	}
	if x.elapsedNS >= 0 && r.ElapsedNS != x.elapsedNS {
		return &r, fmt.Errorf("elapsed_ns %d over the wire, %d in-process", r.ElapsedNS, x.elapsedNS)
	}
	return &r, nil
}
