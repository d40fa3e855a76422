package syntax

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Render serializes an expression in the canonical form: fully
// parenthesized, "!=" normalized to "<>", aggregate names uppercased.
// Parsing the rendering renders identically.
func Render(e Expr) string {
	var b strings.Builder
	WriteExpr(&b, e)
	return b.String()
}

// WriteExpr appends Render(e) to b.
func WriteExpr(b *strings.Builder, e Expr) {
	switch v := e.(type) {
	case ColRef:
		if v.Table != "" {
			b.WriteString(v.Table)
			b.WriteByte('.')
		}
		b.WriteString(v.Name)
	case IntLit:
		fmt.Fprintf(b, "%d", v.V)
	case StrLit:
		fmt.Fprintf(b, "'%s'", v.V)
	case DateLit:
		fmt.Fprintf(b, "DATE '%s'", FormatDate(v.Days))
	case Cmp:
		op := v.Op
		if op == "!=" {
			op = "<>"
		}
		b.WriteByte('(')
		WriteExpr(b, v.L)
		fmt.Fprintf(b, " %s ", op)
		WriteExpr(b, v.R)
		b.WriteByte(')')
	case Logical:
		b.WriteByte('(')
		for i, t := range v.Terms {
			if i > 0 {
				fmt.Fprintf(b, " %s ", v.Op)
			}
			WriteExpr(b, t)
		}
		b.WriteByte(')')
	case Not:
		b.WriteString("NOT ")
		WriteExpr(b, v.E)
	case Arith:
		b.WriteByte('(')
		WriteExpr(b, v.L)
		fmt.Fprintf(b, " %s ", v.Op)
		WriteExpr(b, v.R)
		b.WriteByte(')')
	case Between:
		b.WriteByte('(')
		WriteExpr(b, v.E)
		if v.Negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		WriteExpr(b, v.Lo)
		b.WriteString(" AND ")
		WriteExpr(b, v.Hi)
		b.WriteByte(')')
	case Like:
		b.WriteByte('(')
		WriteExpr(b, v.E)
		if v.Negate {
			b.WriteString(" NOT")
		}
		fmt.Fprintf(b, " LIKE '%s')", v.Pattern)
	case CaseExpr:
		b.WriteString("CASE WHEN ")
		WriteExpr(b, v.Cond)
		b.WriteString(" THEN ")
		WriteExpr(b, v.Then)
		b.WriteString(" ELSE ")
		WriteExpr(b, v.Else)
		b.WriteString(" END")
	case FuncCall:
		b.WriteString(strings.ToUpper(v.Name))
		b.WriteByte('(')
		if v.Star || v.Arg == nil {
			b.WriteByte('*')
		} else {
			WriteExpr(b, v.Arg)
		}
		b.WriteByte(')')
	}
}

// ParseDate converts a 'YYYY-MM-DD' literal body to a day count since
// 1970-01-01 (the DATE column encoding), rejecting out-of-range
// components rather than normalizing them: DATE '1994-99-99' is a typo,
// not March of 2002.
func ParseDate(s string) (int64, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return 0, fmt.Errorf("malformed date '%s': want 'YYYY-MM-DD'", s)
	}
	var nums [3]int
	for i, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil {
			return 0, fmt.Errorf("malformed date '%s': want 'YYYY-MM-DD'", s)
		}
		nums[i] = n
	}
	y, m, d := nums[0], nums[1], nums[2]
	if y < 1700 || y > 2500 || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("date '%s' out of range", s)
	}
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	if t.Day() != d || int(t.Month()) != m {
		return 0, fmt.Errorf("date '%s' does not exist", s)
	}
	return t.Unix() / 86400, nil
}

// FormatDate renders epoch days back to the 'YYYY-MM-DD' literal body,
// the inverse of ParseDate; canonical renderers use it.
func FormatDate(days int64) string {
	t := time.Unix(days*86400, 0).UTC()
	return fmt.Sprintf("%04d-%02d-%02d", t.Year(), int(t.Month()), t.Day())
}
