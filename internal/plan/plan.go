// Package plan holds the query-shape types shared by the host executor
// (package exec), the in-device programs (package device), and the
// pushdown planner (package opt): projected output columns and
// aggregate specifications for the paper's supported query class.
package plan

import (
	"smartssd/internal/expr"
	"smartssd/internal/schema"
)

// OutputCol names one projected expression.
type OutputCol struct {
	Name string
	E    expr.Expr
}

// ProjectSchema reports the schema of cols projected from rows of in.
// A projected CHAR is as wide as its source column: expression trees
// projecting CHAR are bare column references in the supported query
// class.
func ProjectSchema(in *schema.Schema, cols []OutputCol) *schema.Schema {
	out := make([]schema.Column, len(cols))
	for i, c := range cols {
		out[i] = schema.Column{Name: c.Name, Kind: c.E.Kind()}
		if out[i].Kind == schema.Char {
			out[i].Len = 32
			if col, ok := c.E.(expr.Col); ok {
				out[i].Len = in.Column(col.Index).Len
			}
		}
	}
	return schema.New(out...)
}

// AggSchema reports the schema of aggs over rows of in, grouped by the
// columns groupBy: the group columns, then one Int64 per aggregate.
func AggSchema(in *schema.Schema, groupBy []int, aggs []AggSpec) *schema.Schema {
	out := make([]schema.Column, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		out = append(out, in.Column(g))
	}
	for _, a := range aggs {
		out = append(out, schema.Column{Name: a.Name, Kind: schema.Int64})
	}
	return schema.New(out...)
}

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	Sum AggKind = iota
	Count
	Min
	Max
)

// String reports the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	default:
		return "MAX"
	}
}

// AggSpec is one aggregate output column: Kind over E, named Name.
// E is ignored for Count.
type AggSpec struct {
	Kind AggKind
	E    expr.Expr
	Name string
}

// OrderKey sorts by one output-schema column.
type OrderKey struct {
	// Col is the column index within the query's output schema.
	Col int
	// Desc selects descending order.
	Desc bool
}
