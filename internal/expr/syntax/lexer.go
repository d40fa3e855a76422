// Package syntax is the one grammar of the paper's selected-class
// expression language. Both front ends parse through it: expr.Parse,
// which the JSON request fields use, and the SQL statement parser in
// internal/sql. It holds the lexer, the position-carrying expression
// AST, the recursive-descent expression parser, the canonical renderer
// and the DATE literal helpers.
//
// The package knows no schema and no types. expr.Bind resolves names
// and applies the kind rules, so a tree built here is well formed but
// not yet well typed.
//
// Nothing here panics on malformed input: every lexical and syntactic
// error is an *Error carrying the byte offset of the offending token,
// which each front end reports with its own prefix.
package syntax

import (
	"fmt"
	"strings"
)

// Error is a lexical, syntactic or binding error at a byte offset of
// the source text.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return e.Msg }

// Errorf builds an Error at byte offset pos.
func Errorf(pos int, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// TokKind classifies a token.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokStr // single-quoted literal, value in Text (quotes stripped)
	TokOp  // punctuation operator, Text holds it verbatim
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  int // byte offset in the source
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokStr:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Next advances to the following token. A lexical error parks in the
// parser and yields EOF, so the grammar unwinds cleanly and the error
// surfaces in place of whatever syntax error the EOF causes.
func (p *Parser) Next() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.Tok = Token{Kind: TokEOF, Pos: start}
		return
	}
	c := p.src[p.pos]
	switch {
	case isDigit(c):
		for p.pos < len(p.src) && isDigit(p.src[p.pos]) {
			p.pos++
		}
		p.Tok = Token{Kind: TokInt, Text: p.src[start:p.pos], Pos: start}
	case isIdentStart(c):
		for p.pos < len(p.src) && isIdentPart(p.src[p.pos]) {
			p.pos++
		}
		p.Tok = Token{Kind: TokIdent, Text: p.src[start:p.pos], Pos: start}
	case c == '\'':
		p.pos++
		for p.pos < len(p.src) && p.src[p.pos] != '\'' {
			p.pos++
		}
		if p.pos >= len(p.src) {
			p.lexFail(Errorf(start, "unterminated string literal"))
			return
		}
		p.Tok = Token{Kind: TokStr, Text: p.src[start+1 : p.pos], Pos: start}
		p.pos++ // closing quote
	default:
		// Two-character operators first, longest match wins.
		for _, op := range []string{"<=", ">=", "<>", "!="} {
			if strings.HasPrefix(p.src[p.pos:], op) {
				p.pos += 2
				p.Tok = Token{Kind: TokOp, Text: op, Pos: start}
				return
			}
		}
		if strings.ContainsRune("=<>+-*/(),.", rune(c)) {
			p.pos++
			p.Tok = Token{Kind: TokOp, Text: string(c), Pos: start}
			return
		}
		p.lexFail(Errorf(start, "unexpected character %q", c))
	}
}

// lexFail parks the first lexical error and ends the token stream.
func (p *Parser) lexFail(err *Error) {
	if p.err == nil {
		p.err = err
	}
	p.Tok = Token{Kind: TokEOF, Pos: err.Pos}
}

func isSpace(c byte) bool      { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
