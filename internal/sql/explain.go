package sql

import (
	"fmt"
	"strings"

	"smartssd/internal/core"
	"smartssd/internal/expr"
)

// EXPLAIN composition: the canonical SQL, the logical plan the binder
// lowered to, the selectivity estimate, both physical candidate plans
// (host operator tree and in-device program), and the pushdown
// planner's cost evidence — everything needed to see why a query ran
// where it did, without executing it.

// ExplainEngine renders the full EXPLAIN report for an engine-backed
// statement.
func ExplainEngine(e *core.Engine, c *Compiled) (string, error) {
	var b strings.Builder
	writeLogical(&b, c)
	plans, err := e.Explain(c.Spec)
	if err != nil {
		return "", err
	}
	b.WriteString(plans)
	d, err := e.Decide(c.Spec)
	if err != nil {
		return "", err
	}
	b.WriteString("cost evidence:\n")
	b.WriteString(d.Evidence())
	return b.String(), nil
}

// ExplainCluster renders the EXPLAIN report for a cluster-backed
// statement: the per-partition device program and the merge strategy
// (the cluster always pushes down, so there is no placement decision).
func ExplainCluster(cl *core.Cluster, c *Compiled) (string, error) {
	var b strings.Builder
	writeLogical(&b, c)
	plans, err := cl.Explain(c.Spec)
	if err != nil {
		return "", err
	}
	b.WriteString(plans)
	return b.String(), nil
}

// ClusterQueryOf returns spec unchanged: the cluster runs QuerySpec
// itself. It remains only because bench/ still calls it, and goes when
// bench/ next changes.
func ClusterQueryOf(spec core.QuerySpec) core.QuerySpec { return spec }

func writeLogical(b *strings.Builder, c *Compiled) {
	fmt.Fprintf(b, "sql: %s\n", c.SQL)
	b.WriteString("logical plan:\n")
	depth := 1
	add := func(format string, args ...interface{}) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(b, format, args...)
		b.WriteByte('\n')
		depth++
	}
	spec := c.Spec
	if spec.Limit > 0 {
		add("limit %d", spec.Limit)
	}
	if len(spec.OrderBy) > 0 {
		parts := make([]string, len(spec.OrderBy))
		for i, k := range spec.OrderBy {
			parts[i] = c.OutputNames[k.Col]
			if k.Desc {
				parts[i] += " DESC"
			}
		}
		add("order by %s", strings.Join(parts, ", "))
	}
	if len(spec.Aggs) > 0 {
		parts := make([]string, len(spec.Aggs))
		for i, a := range spec.Aggs {
			arg := "*"
			if a.E != nil {
				arg = expr.Render(a.E)
			}
			parts[i] = fmt.Sprintf("%s=%s(%s)", a.Name, a.Kind, arg)
		}
		line := "aggregate [" + strings.Join(parts, ", ") + "]"
		if n := len(spec.GroupBy); n > 0 {
			line += " group by [" + strings.Join(c.OutputNames[:n], ", ") + "]"
		}
		add("%s", line)
	} else {
		parts := make([]string, len(spec.Output))
		for i, o := range spec.Output {
			parts[i] = fmt.Sprintf("%s=%s", o.Name, expr.Render(o.E))
		}
		add("project [%s]", strings.Join(parts, ", "))
	}
	if spec.Filter != nil {
		add("filter %s", expr.Render(spec.Filter))
	}
	if spec.Join != nil {
		add("hash join (%s = %s)", spec.Join.ProbeKey, spec.Join.BuildKey)
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(b, "%sscan %s\n", indent, spec.Table)
		fmt.Fprintf(b, "%sscan %s (build)\n", indent, spec.Join.BuildTable)
	} else {
		add("scan %s", spec.Table)
	}
	fmt.Fprintf(b, "estimated selectivity: %.4f\n", spec.EstSelectivity)
}
