// Package sql is the SQL front end for the paper's supported query
// class: a statement parser over the shared expression grammar (package
// expr/syntax), a binder that lowers statements against the engine
// catalog onto the shared expression trees (typed by expr.Bind) and
// operator shapes (core.QuerySpec), a statistics-driven selectivity
// estimator feeding the pushdown planner, and a canonical renderer
// whose output re-parses to itself (the round-trip contract the fuzz
// targets pin).
//
// The grammar covers exactly what the engine executes: SELECT
// projections or aggregates (SUM/COUNT/MIN/MAX) with integer
// arithmetic and CASE, FROM one table or the two-table hash-join shape
// (comma form with the equi-join condition in WHERE, or explicit
// JOIN ... ON), WHERE with AND/OR/NOT, comparisons, BETWEEN, prefix
// LIKE, and DATE '...' literals, plus GROUP BY, ORDER BY, and LIMIT.
//
// Like expr.Parse, nothing in this package panics on malformed input:
// every lexical, syntactic, and binding error is a non-nil error
// carrying the byte offset of the offending token (FuzzParseSQL holds
// the parser to that contract).
package sql

import (
	"fmt"
	"strconv"

	"smartssd/internal/expr/syntax"
)

// statementKeywords are the identifiers the statement grammar reserves
// on top of the expression keywords; they never parse as column,
// table or alias names.
var statementKeywords = []string{
	"SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "AS",
	"JOIN", "ON", "EXPLAIN", "ASC", "DESC",
}

// Parse builds the AST for one statement. It never panics on malformed
// input: every lexical and syntactic error is a non-nil error carrying
// the byte offset of the offending token.
//
// Grammar (keywords case-insensitive; expr is the expression grammar of
// package syntax):
//
//	stmt    := [EXPLAIN] SELECT item {, item} FROM table
//	           [, table | JOIN table ON expr] [WHERE expr]
//	           [GROUP BY col {, col}] [ORDER BY ord {, ord}]
//	           [LIMIT integer]
//	item    := expr [[AS] ident]
//	ord     := (ident | integer) [ASC | DESC]
func Parse(src string) (*SelectStmt, error) {
	p := parser{syntax.NewParser(src, statementKeywords...)}
	stmt, err := p.parseStmt()
	if err == nil {
		err = p.End("statement")
	}
	if se, ok := err.(*syntax.Error); ok {
		return nil, fmt.Errorf("sql: parse %q at offset %d: %s", src, se.Pos, se.Msg)
	}
	return stmt, err
}

type parser struct{ *syntax.Parser }

func (p parser) parseStmt() (*SelectStmt, error) {
	stmt := &SelectStmt{}
	if p.Keyword("EXPLAIN") {
		stmt.Explain = true
		p.Next()
	}
	if err := p.ExpectKeyword("SELECT"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.Op(",") {
			break
		}
		p.Next()
	}
	if err := p.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	var err error
	if stmt.From, err = p.parseTableRef(); err != nil {
		return nil, err
	}
	if p.Op(",") || p.Keyword("JOIN") {
		// The comma form's equi-join condition lives in WHERE; JOIN
		// names it after ON.
		j := &JoinRef{P: p.Tok.Pos}
		comma := p.Op(",")
		p.Next()
		if j.Table, err = p.parseTableRef(); err != nil {
			return nil, err
		}
		if !comma {
			if err := p.ExpectKeyword("ON"); err != nil {
				return nil, err
			}
			if j.On, err = p.ParseExpr(); err != nil {
				return nil, err
			}
		}
		stmt.Join = j
	}
	if p.Keyword("WHERE") {
		p.Next()
		if stmt.Where, err = p.ParseExpr(); err != nil {
			return nil, err
		}
	}
	if p.Keyword("GROUP") {
		p.Next()
		if err := p.ExpectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.ParseColRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if !p.Op(",") {
				break
			}
			p.Next()
		}
	}
	if p.Keyword("ORDER") {
		p.Next()
		if err := p.ExpectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			o, err := p.parseOrderItem()
			if err != nil {
				return nil, err
			}
			stmt.OrderBy = append(stmt.OrderBy, o)
			if !p.Op(",") {
				break
			}
			p.Next()
		}
	}
	if p.Keyword("LIMIT") {
		p.Next()
		if p.Tok.Kind != syntax.TokInt {
			return nil, p.LexErr(p.Errorf("LIMIT needs an integer, got %s", p.Tok))
		}
		n, convErr := strconv.ParseInt(p.Tok.Text, 10, 64)
		if convErr != nil || n < 1 {
			return nil, p.Errorf("LIMIT must be a positive integer, got %s", p.Tok)
		}
		stmt.Limit = n
		p.Next()
	}
	return stmt, nil
}

func (p parser) parseSelectItem() (SelectItem, error) {
	pos := p.Tok.Pos
	e, err := p.ParseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{E: e, P: pos}
	if p.Keyword("AS") {
		p.Next()
		if !p.Name() {
			return SelectItem{}, p.LexErr(p.Errorf("AS needs a column alias, got %s", p.Tok))
		}
		item.Alias = p.Tok.Text
		p.Next()
	} else if p.Name() {
		// Bare alias: "SELECT expr name".
		item.Alias = p.Tok.Text
		p.Next()
	}
	return item, nil
}

func (p parser) parseTableRef() (TableRef, error) {
	if !p.Name() {
		return TableRef{}, p.LexErr(p.Errorf("expected a table name, got %s", p.Tok))
	}
	t := TableRef{Name: p.Tok.Text, P: p.Tok.Pos}
	p.Next()
	return t, nil
}

func (p parser) parseOrderItem() (OrderItem, error) {
	o := OrderItem{P: p.Tok.Pos}
	switch {
	case p.Tok.Kind == syntax.TokInt:
		n, err := strconv.ParseInt(p.Tok.Text, 10, 32)
		if err != nil || n < 1 {
			return OrderItem{}, p.Errorf("ORDER BY position must be a positive integer, got %s", p.Tok)
		}
		o.Position = int(n)
		p.Next()
	case p.Name():
		o.Name = p.Tok.Text
		p.Next()
	default:
		return OrderItem{}, p.LexErr(p.Errorf("expected an output column or position, got %s", p.Tok))
	}
	if p.Keyword("ASC") {
		p.Next()
	} else if p.Keyword("DESC") {
		o.Desc = true
		p.Next()
	}
	return o, nil
}
