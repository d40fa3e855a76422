package experiments

import (
	"fmt"
	"strings"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/sql"
)

// PlannerPoint is one query of the planner-agreement sweep: the SQL
// front end's stats-based estimate, the cost model's placement choice,
// and the measured elapsed time of both forced backends.
type PlannerPoint struct {
	// Label names the point: the swept selectivity in percent, or the
	// TPC-H query.
	Label        string
	Estimated    float64
	Chosen       string // "host" or "device", from the compiled plan's Decision
	Host         time.Duration
	Device       time.Duration
	MeasuredBest string
	Agree        bool
	ResultRows   int64
}

// PlannerReport charts the planner's chosen backend against the
// measured-best backend across the Figure 5 selectivity sweep plus a
// grouped (TPC-H Q1) and a joined (TPC-H Q14) query, with every query
// entering through the SQL front end so the selectivity estimate comes
// from the catalog's column stats rather than a hand-annotated spec.
type PlannerReport struct {
	SQL    string // the sweep's statement template, with %d for the threshold
	Points []PlannerPoint
	Agreed int
}

// plannerAgreeSlack tolerates measurement ties at the crossover: the
// chosen backend "agrees" when its measured time is within 5% of the
// best one, so a coin-flip point does not read as a planner error.
const plannerAgreeSlack = 1.05

// plannerStmt is the Figure 5 selection-with-join query as SQL over
// the PAX synthetic tables; s_col_3 is uniform on [0,100), so the
// catalog estimate for "s_col_3 < v" is v/100 — the swept selectivity.
const plannerStmt = "SELECT s_col_1, r_col_2 FROM synth_s_pax, synth_r_pax WHERE r_col_1 = s_col_2 AND s_col_3 < %d"

// plannerQuery is one labelled statement of the sweep.
type plannerQuery struct {
	label, stmt string
}

// plannerTPCH are the shapes the selectivity sweep lacks, as SQL over
// the suite's TPC-H PAX tables: Q1 groups, Q14 joins.
var plannerTPCH = []plannerQuery{
	{"q1", "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty_x100," +
		" SUM(l_extendedprice) AS sum_base_price," +
		" SUM(l_extendedprice * (100 - l_discount) / 100) AS sum_disc_price," +
		" SUM(l_extendedprice * (100 - l_discount) * (100 + l_tax) / 10000) AS sum_charge," +
		" COUNT(*) AS count_order FROM lineitem_pax" +
		" WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus"},
	{"q14", "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (100 - l_discount) / 100 ELSE 0 END) AS promo_revenue," +
		" SUM(l_extendedprice * (100 - l_discount) / 100) AS total_revenue" +
		" FROM lineitem_pax, part_pax" +
		" WHERE l_partkey = p_partkey AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'"},
}

// Planner runs the sweep on a fresh suite.
func Planner(o Options, selectivities []int64) (PlannerReport, error) {
	s := NewSuite(o)
	defer s.Close()
	return s.Planner(selectivities)
}

// Planner runs the sweep on the suite's warm synthetic-join and TPC-H
// bases.
func (s *Suite) Planner(selectivities []int64) (PlannerReport, error) {
	if len(selectivities) == 0 {
		selectivities = DefaultFig5Selectivities
	}
	sweep := make([]plannerQuery, len(selectivities))
	for i, sel := range selectivities {
		sweep[i] = plannerQuery{fmt.Sprint(sel), fmt.Sprintf(plannerStmt, sel)}
	}
	sb, err := s.synthBase()
	if err != nil {
		return PlannerReport{}, err
	}
	rep := PlannerReport{SQL: plannerStmt}
	if rep.Points, err = s.plannerPoints(sb, sweep); err != nil {
		return PlannerReport{}, err
	}
	tb, err := s.tpchBase(false)
	if err != nil {
		return PlannerReport{}, err
	}
	tpchPoints, err := s.plannerPoints(tb, plannerTPCH)
	if err != nil {
		return PlannerReport{}, err
	}
	rep.Points = append(rep.Points, tpchPoints...)
	for _, p := range rep.Points {
		if p.Agree {
			rep.Agreed++
		}
	}
	return rep, nil
}

// plannerPoints compiles, decides and measures qs on sb's engines.
func (s *Suite) plannerPoints(sb *suiteBase, qs []plannerQuery) ([]PlannerPoint, error) {
	// Compile and decide serially on the base engine: the catalog (and
	// so the estimate and the decision) is identical on every clone,
	// and the planner never touches simulated resources.
	points := make([]PlannerPoint, len(qs))
	specs := make([]core.QuerySpec, len(qs))
	for i, q := range qs {
		c, err := sql.Compile(sql.EngineCatalog{E: sb.engines[0]}, q.stmt)
		if err != nil {
			return nil, fmt.Errorf("planner %s: %w", q.label, err)
		}
		d, err := sb.engines[0].Decide(c.Spec)
		if err != nil {
			return nil, fmt.Errorf("planner %s: %w", q.label, err)
		}
		chosen := "host"
		if d.Pushdown {
			chosen = "device"
		}
		specs[i] = c.Spec
		points[i] = PlannerPoint{Label: q.label, Estimated: c.Spec.EstSelectivity, Chosen: chosen}
	}

	// Measure both backends at every point; the pair per query fans out
	// independently, like Fig5.
	modes := []core.Mode{core.ForceHost, core.ForceDevice}
	results, err := sweepBase(s.o, sb, len(qs)*len(modes), func(eng *core.Engine, i int) (*core.Result, error) {
		res, err := eng.Run(specs[i/len(modes)], modes[i%len(modes)])
		if err != nil {
			return nil, fmt.Errorf("planner %s mode=%v: %w", qs[i/len(modes)].label, modes[i%len(modes)], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	for i := range points {
		host, dev := results[i*2], results[i*2+1]
		if len(host.Rows) != len(dev.Rows) {
			return nil, fmt.Errorf("planner %s: row counts diverge host=%d device=%d",
				qs[i].label, len(host.Rows), len(dev.Rows))
		}
		p := &points[i]
		p.Host, p.Device = host.Elapsed, dev.Elapsed
		p.ResultRows = int64(len(host.Rows))
		p.MeasuredBest = "host"
		best, chosen := p.Host, p.Host
		if p.Device < p.Host {
			p.MeasuredBest, best = "device", p.Device
		}
		if p.Chosen == "device" {
			chosen = p.Device
		}
		p.Agree = float64(chosen) <= plannerAgreeSlack*float64(best)
	}
	return points, nil
}

// Render prints the sweep with the agreement tally.
func (r PlannerReport) Render() string {
	var b strings.Builder
	b.WriteString("Planner: SQL cost-based placement vs. measured best (PAX)\n")
	fmt.Fprintf(&b, "sel%%: %s\n", r.SQL)
	b.WriteString("q1:   TPC-H Q1 over lineitem_pax (grouped aggregation)\n")
	b.WriteString("q14:  TPC-H Q14 over lineitem_pax, part_pax (hash join)\n")
	fmt.Fprintf(&b, "%-6s %8s %8s %12s %12s %8s %6s %10s\n",
		"point", "est", "chosen", "SSD(host)", "Smart SSD", "best", "agree", "rows")
	for _, p := range r.Points {
		agree := "no"
		if p.Agree {
			agree = "yes"
		}
		fmt.Fprintf(&b, "%-6s %8.4f %8s %12s %12s %8s %6s %10d\n",
			p.Label, p.Estimated, p.Chosen, fmtDur(p.Host), fmtDur(p.Device),
			p.MeasuredBest, agree, p.ResultRows)
	}
	fmt.Fprintf(&b, "agreement: %d/%d points (chosen backend within 5%% of measured best)\n",
		r.Agreed, len(r.Points))
	return b.String()
}
