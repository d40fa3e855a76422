package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"smartssd/workload"
)

// Dataset shape every daemon workload runs against. The daemon is
// always started with -seed 1: the benchmark's --seed draws request
// parameters only, so both sides of a comparison serve identical data.
const (
	daemonSF          = 0.02
	daemonDataSeed    = 1
	daemonDevices     = 4
	daemonReplication = 2
)

// An op is one session the benchmark opens.
type op struct {
	class string
	body  []byte
	// key groups ops that must answer with identical rows whatever
	// their syntax, target or placement: the sql_auto, json_host,
	// json_device and json_hybrid renditions of one parameter draw
	// share a key, and so share one oracle run.
	key string
	// update marks a cluster UPDATE session; its oracle is the row
	// count of the predicate, not a result set.
	update bool
}

// workloadDef describes one daemon workload: a fixed class pattern and
// a seeded parameter draw per op.
type workloadDef struct {
	name string
	// classes is the repeating pattern: op i has class
	// classes[i%len(classes)] whatever the seed.
	classes []string
	// warmOps is how many leading ops warm the daemon up before the
	// clock starts (their results are checked, their times discarded).
	warmOps int
	// winOps is the length of the sliding window the wall-clock metrics
	// are taken over: long enough to carry a 95th percentile, short
	// enough to fit between a noisy neighbour's bursts (README,
	// "Noise"). A multiple of len(classes), so every window carries the
	// same class mix.
	winOps int
	// maxOps caps the ops of one run, warm-up included. It bounds the
	// pre-generated op list and, on cluster_rw, the write-ahead-log
	// pages a run can consume (README, "WAL budget").
	maxOps int
	// draw builds the next op of the given class from the parameter
	// stream; sf is the scale factor the target daemon was loaded at
	// (it bounds the update windows' key range).
	draw func(class string, rng *rand.Rand, sf float64) op
}

// q6Params is one draw of the Q6-shaped selection.
type q6Params struct {
	year, disc, qty int
}

func drawQ6(rng *rand.Rand) q6Params {
	return q6Params{
		year: 1993 + rng.Intn(5),     // 1993..1997
		disc: 2 + rng.Intn(7),        // discount centre 2..8 (Q6 uses 6)
		qty:  2400 + 100*rng.Intn(2), // quantity bound 24 or 25, stored x100
	}
}

func (p q6Params) key() string { return fmt.Sprintf("q6/%d/%d/%d", p.year, p.disc, p.qty) }

// predicate renders the selection in the grammar both front ends
// accept (the SQL WHERE clause and the structured "predicate" field).
func (p q6Params) predicate() string {
	return fmt.Sprintf("l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01'"+
		" AND l_discount > %d AND l_discount < %d AND l_quantity < %d",
		p.year, p.year+1, p.disc-1, p.disc+1, p.qty)
}

func (p q6Params) sql() string {
	return "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE " + p.predicate()
}

// request is the subset of the serve wire format the workloads use.
// Field order is fixed by the struct, so bodies are byte-stable.
type request struct {
	SQL       string       `json:"sql,omitempty"`
	Table     string       `json:"table,omitempty"`
	Target    string       `json:"target,omitempty"`
	Mode      string       `json:"mode,omitempty"`
	Predicate string       `json:"predicate,omitempty"`
	Aggs      []requestAgg `json:"aggs,omitempty"`
	Update    []requestSet `json:"update,omitempty"`
}

type requestAgg struct {
	Kind string `json:"kind"`
	Expr string `json:"expr,omitempty"`
	Name string `json:"name,omitempty"`
}

type requestSet struct {
	Column string `json:"column"`
	Expr   string `json:"expr"`
}

func mustBody(r request) []byte {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // request holds only strings: cannot fail
	}
	return data
}

// q6Structured is the structured-body rendition of the Q6 draw.
func q6Structured(p q6Params, target, mode string) []byte {
	return mustBody(request{
		Table:     "lineitem",
		Target:    target,
		Mode:      mode,
		Predicate: p.predicate(),
		Aggs:      []requestAgg{{Kind: "sum", Expr: "l_extendedprice * l_discount", Name: "revenue"}},
	})
}

var scanEngine = workloadDef{
	name:    "scan_engine",
	classes: []string{"sql_auto", "json_host", "json_device", "json_hybrid"},
	warmOps: 800,
	winOps:  200,
	maxOps:  32000,
	draw: func(class string, rng *rand.Rand, _ float64) op {
		p := drawQ6(rng)
		o := op{class: class, key: p.key()}
		switch class {
		case "sql_auto":
			o.body = mustBody(request{SQL: p.sql()})
		case "json_host":
			o.body = q6Structured(p, "", "host")
		case "json_device":
			o.body = q6Structured(p, "", "device")
		default:
			o.body = q6Structured(p, "", "hybrid")
		}
		return o
	},
}

// typePrefixes are the first syllables of the generator's p_type.
var typePrefixes = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}

var serveSmall = workloadDef{
	name:    "serve_small",
	classes: []string{"explain", "part_agg_sql", "part_topk_sql", "part_range_cluster"},
	warmOps: 4000,
	winOps:  200,
	maxOps:  160000,
	draw: func(class string, rng *rand.Rand, _ float64) op {
		switch class {
		case "explain":
			p := drawQ6(rng)
			return op{class: class, key: "explain/" + p.key(),
				body: mustBody(request{SQL: "EXPLAIN " + p.sql()})}
		case "part_agg_sql":
			lo := 1 + rng.Intn(40)
			width := 5 + 5*rng.Intn(2)
			prefix := typePrefixes[rng.Intn(len(typePrefixes))]
			q := fmt.Sprintf("SELECT COUNT(*) AS n, MIN(p_retailprice) AS lo, MAX(p_retailprice) AS hi"+
				" FROM part WHERE p_size BETWEEN %d AND %d AND p_type LIKE '%s%%'", lo, lo+width, prefix)
			return op{class: class, key: q, body: mustBody(request{SQL: q})}
		case "part_topk_sql":
			lo := 1 + rng.Intn(48)
			q := fmt.Sprintf("SELECT p_partkey, p_brand, p_retailprice FROM part"+
				" WHERE p_size BETWEEN %d AND %d ORDER BY p_partkey LIMIT 100", lo, lo+2)
			return op{class: class, key: q, body: mustBody(request{SQL: q})}
		default:
			// MIN/MAX, not COUNT: part is replicated to every cluster
			// device and a cluster scan visits every copy, so a count
			// comes back multiplied by the device count (README,
			// "Findings"). MIN and MAX fold identically over copies.
			lo := 1 + rng.Intn(45)
			pred := fmt.Sprintf("p_size >= %d AND p_size < %d", lo, lo+5)
			return op{class: class, key: "part_range/" + pred, body: mustBody(request{
				Table:     "part",
				Target:    "cluster",
				Predicate: pred,
				Aggs: []requestAgg{
					{Kind: "min", Expr: "p_partkey", Name: "lo"},
					{Kind: "max", Expr: "p_retailprice", Name: "hi"},
				},
			})}
		}
	},
}

// updateWindow is the l_orderkey span of one update. The generator
// gives every order exactly four lineitems, so a window rewrites 32
// rows (8 per partition) and needs about one log page.
const updateWindow = 8

var clusterRW = workloadDef{
	name: "cluster_rw",
	classes: []string{
		"q6_cluster", "q6_cluster", "q1_cluster", "q6_cluster",
		"q6_cluster", "q14_cluster", "q6_cluster", "update",
	},
	warmOps: 240,
	winOps:  40,
	// One op in eight is an update of about one log page: 3840 ops are
	// 480 of the coordinator log's 1024 pages, which the daemon never
	// checkpoints.
	maxOps: 3840,
	draw: func(class string, rng *rand.Rand, sf float64) op {
		switch class {
		case "q6_cluster":
			p := drawQ6(rng)
			return op{class: class, key: p.key(), body: q6Structured(p, "cluster", "")}
		case "q1_cluster":
			// Q1 without l_tax: six groups, sorted by the cluster merge.
			month := 6 + rng.Intn(6)
			q := fmt.Sprintf("SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,"+
				" SUM(l_extendedprice) AS sum_base_price,"+
				" SUM(l_extendedprice * (100 - l_discount) / 100) AS sum_disc_price,"+
				" COUNT(*) AS count_order FROM lineitem"+
				" WHERE l_shipdate <= DATE '1998-%02d-01' GROUP BY l_returnflag, l_linestatus", month)
			return op{class: class, key: q, body: mustBody(request{SQL: q, Target: "cluster"})}
		case "q14_cluster":
			year, month := 1993+rng.Intn(5), 1+rng.Intn(12)
			ny, nm := year, month+1
			if nm > 12 {
				ny, nm = year+1, 1
			}
			q := fmt.Sprintf("SELECT SUM(CASE WHEN p_type LIKE 'PROMO%%' THEN l_extendedprice * (100 - l_discount) / 100 ELSE 0 END) AS promo_revenue,"+
				" SUM(l_extendedprice * (100 - l_discount) / 100) AS total_revenue"+
				" FROM lineitem, part WHERE l_partkey = p_partkey"+
				" AND l_shipdate >= DATE '%d-%02d-01' AND l_shipdate < DATE '%d-%02d-01'", year, month, ny, nm)
			return op{class: class, key: q, body: mustBody(request{SQL: q, Target: "cluster"})}
		default:
			// No read above references l_suppkey, so every read stays
			// checkable however updates interleave, and rows_updated
			// is fixed by the predicate alone.
			orders := int(workload.NumLineitem(sf)) / 4
			lo := 1 + updateWindow*rng.Intn(orders/updateWindow)
			pred := fmt.Sprintf("l_orderkey >= %d AND l_orderkey < %d", lo, lo+updateWindow)
			return op{class: class, key: "count/" + pred, update: true, body: mustBody(request{
				Table:     "lineitem",
				Target:    "cluster",
				Predicate: pred,
				Update:    []requestSet{{Column: "l_suppkey", Expr: "l_suppkey + 1"}},
			})}
		}
	},
}

var daemonWorkloads = []*workloadDef{&scanEngine, &serveSmall, &clusterRW}

// figuresBatch is the fourth workload's name; it has no op list (one
// op is one pass of the paper sweep).
const figuresBatch = "figures_batch"

func workloadByName(name string) *workloadDef {
	for _, w := range daemonWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opList is a workload's op sequence for one seed. Ops with identical
// bodies are interned, so the list costs a pointer per op and the
// checker can cache per distinct request.
type opList struct {
	def      *workloadDef
	ops      []*op
	distinct []*op
}

// generate builds the first n ops of def's sequence for seed against a
// daemon loaded at scale factor sf. The
// sequence is a pure function of (def, seed): op i's class is fixed by
// the pattern and its parameters come from one seeded stream consumed
// in op order.
func generate(def *workloadDef, seed int64, n int, sf float64) *opList {
	rng := rand.New(rand.NewSource(seed))
	l := &opList{def: def, ops: make([]*op, 0, n)}
	interned := make(map[string]*op)
	for i := 0; i < n; i++ {
		o := def.draw(def.classes[i%len(def.classes)], rng, sf)
		if prior, ok := interned[string(o.body)]; ok {
			l.ops = append(l.ops, prior)
			continue
		}
		p := &o
		interned[string(o.body)] = p
		l.distinct = append(l.distinct, p)
		l.ops = append(l.ops, p)
	}
	return l
}
