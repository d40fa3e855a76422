package sql

import "smartssd/internal/expr/syntax"

// The statement AST mirrors the source text, like the expression AST it
// holds (package syntax): every node carries the byte offset of its
// first token so binder errors can point back into the input.

// SelectItem is one select-list entry.
type SelectItem struct {
	E     syntax.Expr
	Alias string // empty without AS (or a bare alias)
	P     int
}

// TableRef names a FROM table.
type TableRef struct {
	Name string
	P    int
}

// JoinRef is the second table of the hash-join shape: either the
// explicit JOIN ... ON form (On non-nil, a single equi-join equality)
// or the comma form (On nil; the equality lives in WHERE).
type JoinRef struct {
	Table TableRef
	On    syntax.Expr // nil for the comma form
	P     int
}

// OrderItem sorts the result by an output column, named or referenced
// by 1-based select-list position.
type OrderItem struct {
	Name     string // empty when Position is used
	Position int    // 1-based; 0 when Name is used
	Desc     bool
	P        int
}

// SelectStmt is one parsed statement.
type SelectStmt struct {
	Explain bool
	Items   []SelectItem
	From    TableRef
	Join    *JoinRef
	Where   syntax.Expr
	GroupBy []syntax.ColRef
	OrderBy []OrderItem
	Limit   int64 // 0 = no LIMIT clause

	// residualWhere is Where minus a comma-form join equality, recorded
	// during binding; the selectivity estimator prices this — the
	// predicate the scan actually filters with.
	residualWhere syntax.Expr
}
