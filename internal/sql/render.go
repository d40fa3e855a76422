package sql

import (
	"fmt"
	"strings"

	"smartssd/internal/expr/syntax"
)

// Render serializes a statement to its canonical form: uppercase
// keywords, fully parenthesized expressions, "!=" normalized to "<>",
// aggregate names uppercased, and aliases always spelled with AS. The
// canonical form is a fixpoint: for any statement Parse accepts,
// Render(Parse(Render(stmt))) == Render(stmt) (FuzzSQLRoundTrip holds
// the grammar to that contract).
func Render(stmt *SelectStmt) string {
	var b strings.Builder
	if stmt.Explain {
		b.WriteString("EXPLAIN ")
	}
	b.WriteString("SELECT ")
	for i, item := range stmt.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		syntax.WriteExpr(&b, item.E)
		if item.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(item.Alias)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(stmt.From.Name)
	if j := stmt.Join; j != nil {
		if j.On == nil {
			b.WriteString(", ")
			b.WriteString(j.Table.Name)
		} else {
			b.WriteString(" JOIN ")
			b.WriteString(j.Table.Name)
			b.WriteString(" ON ")
			syntax.WriteExpr(&b, j.On)
		}
	}
	if stmt.Where != nil {
		b.WriteString(" WHERE ")
		syntax.WriteExpr(&b, stmt.Where)
	}
	if len(stmt.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range stmt.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			syntax.WriteExpr(&b, c)
		}
	}
	if len(stmt.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range stmt.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			if o.Position > 0 {
				fmt.Fprintf(&b, "%d", o.Position)
			} else {
				b.WriteString(o.Name)
			}
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if stmt.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", stmt.Limit)
	}
	return b.String()
}
