package syntax

import (
	"strconv"
	"strings"
)

// maxParseDepth bounds grammar recursion; deeper input is rejected, not
// followed (a 10 kB paren chain would otherwise overflow the stack).
const maxParseDepth = 200

// keywords are the identifiers the expression grammar claims; they
// never parse as column names.
var keywords = []string{
	"AND", "OR", "NOT", "LIKE", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END", "DATE",
}

// aggregateFuncs are the supported aggregate names. They are not
// reserved: an identifier only becomes a call when '(' follows.
var aggregateFuncs = []string{"SUM", "COUNT", "MIN", "MAX"}

// Parser is the lexer and the expression grammar over one source text.
// A statement grammar embeds it and parses its own clauses with the
// same token stream.
//
// Expression grammar (keywords case-insensitive, C-style precedence):
//
//	expr    := or
//	or      := and { OR and }
//	and     := not { AND not }
//	not     := NOT not | cmp
//	cmp     := add [ (= | <> | != | < | <= | > | >=) add
//	               | [NOT] BETWEEN add AND add
//	               | [NOT] LIKE 'prefix%' ]
//	add     := mul { (+ | -) mul }
//	mul     := unary { (* | /) unary }
//	unary   := - unary | primary
//	primary := ( expr )
//	        | CASE WHEN expr THEN expr ELSE expr END
//	        | DATE 'YYYY-MM-DD'
//	        | SUM|COUNT|MIN|MAX ( * | expr )
//	        | integer | 'string' | col
//	col     := ident [ . ident ]
type Parser struct {
	src      string
	pos      int   // offset of the next token
	Tok      Token // the current token
	err      *Error
	depth    int
	reserved []string // statement keywords reserved beyond keywords
}

// NewParser starts parsing src. The expression keywords are always
// reserved; a statement grammar passes its own keywords as reserved,
// so they never parse as names either.
func NewParser(src string, reserved ...string) *Parser {
	p := &Parser{src: src, reserved: reserved}
	p.Next()
	return p
}

// Errorf builds an error at the current token.
func (p *Parser) Errorf(format string, args ...interface{}) *Error {
	return Errorf(p.Tok.Pos, format, args...)
}

// LexErr surfaces a parked lexical error in place of a syntax error.
func (p *Parser) LexErr(fallback *Error) error {
	if p.err != nil {
		return p.err
	}
	return fallback
}

// End reports whether the whole source was consumed: a parked lexical
// error, or any token left after what, fails the input.
func (p *Parser) End(what string) error {
	if p.err != nil {
		// A lexical error can hide behind a complete-looking parse (the
		// lexer yields EOF after it); it must still fail the input.
		return p.err
	}
	if p.Tok.Kind != TokEOF {
		return p.Errorf("unexpected %s after %s", p.Tok, what)
	}
	return nil
}

// Keyword reports whether the current token is the given keyword
// (an identifier compared case-insensitively).
func (p *Parser) Keyword(kw string) bool {
	return p.Tok.Kind == TokIdent && isFold(p.Tok.Text, kw)
}

// ExpectKeyword consumes kw or fails.
func (p *Parser) ExpectKeyword(kw string) error {
	if !p.Keyword(kw) {
		return p.LexErr(p.Errorf("expected %s, got %s", kw, p.Tok))
	}
	p.Next()
	return nil
}

// Op reports whether the current token is the given operator.
func (p *Parser) Op(text string) bool {
	return p.Tok.Kind == TokOp && p.Tok.Text == text
}

// isReserved reports whether word is a keyword of this parser's grammar.
func (p *Parser) isReserved(word string) bool {
	return hasFold(keywords, word) || hasFold(p.reserved, word)
}

// Name reports whether the current token can name a column, table or
// output: an identifier that is not reserved.
func (p *Parser) Name() bool {
	return p.Tok.Kind == TokIdent && !p.isReserved(p.Tok.Text)
}

func hasFold(words []string, word string) bool {
	for _, w := range words {
		if isFold(word, w) {
			return true
		}
	}
	return false
}

// isFold is strings.EqualFold for an ASCII keyword kw: a word of
// another length cannot match, so most identifiers fail on the length.
func isFold(word, kw string) bool {
	return len(word) == len(kw) && strings.EqualFold(word, kw)
}

func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.Errorf("expression nesting exceeds %d levels", maxParseDepth)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// ParseExpr parses one expression.
func (p *Parser) ParseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseLogical("OR", p.parseAnd)
}

func (p *Parser) parseAnd() (Expr, error) { return p.parseLogical("AND", p.parseNot) }

// parseLogical parses a flattened chain of operand { op operand }.
func (p *Parser) parseLogical(op string, operand func() (Expr, error)) (Expr, error) {
	e, err := operand()
	if err != nil {
		return nil, err
	}
	if !p.Keyword(op) {
		return e, nil
	}
	terms := append(make([]Expr, 0, 4), e)
	for p.Keyword(op) {
		p.Next()
		r, err := operand()
		if err != nil {
			return nil, err
		}
		terms = append(terms, r)
	}
	return Logical{Op: op, Terms: terms, P: e.Pos()}, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if !p.Keyword("NOT") {
		return p.parseCmp()
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.Tok.Pos
	p.Next()
	e, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	return Not{E: e, P: pos}, nil
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// A NOT after an operand can only introduce NOT BETWEEN or NOT
	// LIKE; prefix negation was already consumed by parseNot.
	negate := false
	if p.Keyword("NOT") {
		p.Next()
		if !p.Keyword("BETWEEN") && !p.Keyword("LIKE") {
			return nil, p.LexErr(p.Errorf("expected BETWEEN or LIKE after NOT, got %s", p.Tok))
		}
		negate = true
	}
	pos := p.Tok.Pos
	switch {
	case p.Keyword("BETWEEN"):
		// The AND after lo binds to BETWEEN, not to the connective.
		p.Next()
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if !p.Keyword("AND") {
			return nil, p.LexErr(p.Errorf("BETWEEN needs AND between its bounds: expected AND, got %s", p.Tok))
		}
		p.Next()
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return Between{E: l, Lo: lo, Hi: hi, Negate: negate, P: pos}, nil
	case p.Keyword("LIKE"):
		p.Next()
		if p.Tok.Kind != TokStr {
			return nil, p.LexErr(p.Errorf("LIKE needs a quoted pattern, got %s", p.Tok))
		}
		pat := p.Tok.Text
		if !strings.HasSuffix(pat, "%") || strings.Count(pat, "%") != 1 {
			return nil, p.Errorf("only prefix LIKE patterns ('prefix%%') are supported, got '%s'", pat)
		}
		p.Next()
		return Like{E: l, Pattern: pat, Negate: negate, P: pos}, nil
	}
	if p.Tok.Kind != TokOp || !isCmpOp(p.Tok.Text) {
		return l, nil
	}
	op := p.Tok.Text
	p.Next()
	r, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return Cmp{Op: op, L: l, R: r, P: pos}, nil
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *Parser) parseAdd() (Expr, error) { return p.parseArith(p.parseMul, "+", "-") }
func (p *Parser) parseMul() (Expr, error) { return p.parseArith(p.parseUnary, "*", "/") }

// parseArith parses a left-associative chain operand { (a | b) operand }.
func (p *Parser) parseArith(operand func() (Expr, error), a, b string) (Expr, error) {
	e, err := operand()
	if err != nil {
		return nil, err
	}
	for p.Op(a) || p.Op(b) {
		op, pos := p.Tok.Text, p.Tok.Pos
		p.Next()
		r, err := operand()
		if err != nil {
			return nil, err
		}
		e = Arith{Op: op, L: e, R: r, P: pos}
	}
	return e, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if !p.Op("-") {
		return p.parsePrimary()
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.Tok.Pos
	p.Next()
	// Fold a literal directly so "-5" parses as the constant it reads as.
	if p.Tok.Kind == TokInt {
		v, err := strconv.ParseInt("-"+p.Tok.Text, 10, 64)
		if err != nil {
			return nil, p.Errorf("integer literal out of range: -%s", p.Tok.Text)
		}
		p.Next()
		return IntLit{V: v, P: pos}, nil
	}
	e, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return Arith{Op: "-", L: IntLit{V: 0, P: pos}, R: e, P: pos}, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.Tok.Pos
	switch {
	case p.Op("("):
		p.Next()
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if !p.Op(")") {
			return nil, p.LexErr(p.Errorf("expected ')', got %s", p.Tok))
		}
		p.Next()
		return e, nil
	case p.Tok.Kind == TokInt:
		v, err := strconv.ParseInt(p.Tok.Text, 10, 64)
		if err != nil {
			return nil, p.Errorf("integer literal out of range: %s", p.Tok.Text)
		}
		p.Next()
		return IntLit{V: v, P: pos}, nil
	case p.Tok.Kind == TokStr:
		e := StrLit{V: p.Tok.Text, P: pos}
		p.Next()
		return e, nil
	case p.Keyword("DATE"):
		p.Next()
		if p.Tok.Kind != TokStr {
			return nil, p.LexErr(p.Errorf("DATE needs a quoted 'YYYY-MM-DD' literal, got %s", p.Tok))
		}
		days, err := ParseDate(p.Tok.Text)
		if err != nil {
			return nil, p.Errorf("%v", err)
		}
		p.Next()
		return DateLit{Days: days, P: pos}, nil
	case p.Keyword("CASE"):
		return p.parseCase()
	case p.Tok.Kind == TokIdent && hasFold(aggregateFuncs, p.Tok.Text):
		name := p.Tok.Text
		p.Next()
		if !p.Op("(") {
			// Not a call after all: the name is a column reference.
			return p.qualify(ColRef{Name: name, P: pos})
		}
		return p.parseCall(name, pos)
	case p.Tok.Kind == TokIdent:
		if p.isReserved(p.Tok.Text) {
			return nil, p.Errorf("unexpected keyword %s", p.Tok)
		}
		name := p.Tok.Text
		p.Next()
		c, err := p.qualify(ColRef{Name: name, P: pos})
		if err != nil {
			return nil, err
		}
		if c.Table == "" && p.Op("(") {
			return nil, p.Errorf("unknown function %q (supported aggregates: SUM, COUNT, MIN, MAX)", c.Name)
		}
		return c, nil
	default:
		return nil, p.LexErr(p.Errorf("expected an expression, got %s", p.Tok))
	}
}

// ParseColRef parses a possibly table-qualified column name.
func (p *Parser) ParseColRef() (ColRef, error) {
	if !p.Name() {
		return ColRef{}, p.LexErr(p.Errorf("expected a column name, got %s", p.Tok))
	}
	c := ColRef{Name: p.Tok.Text, P: p.Tok.Pos}
	p.Next()
	return p.qualify(c)
}

// qualify finishes a column reference whose first name is parsed: a
// following ". name" makes that first name the table's.
func (p *Parser) qualify(c ColRef) (ColRef, error) {
	if !p.Op(".") {
		return c, nil
	}
	p.Next()
	if !p.Name() {
		return ColRef{}, p.LexErr(p.Errorf("expected a column name after '.', got %s", p.Tok))
	}
	c.Table, c.Name = c.Name, p.Tok.Text
	p.Next()
	return c, nil
}

// parseCall finishes an aggregate call whose name is consumed and
// whose '(' is the current token.
func (p *Parser) parseCall(name string, pos int) (Expr, error) {
	p.Next()
	call := FuncCall{Name: name, P: pos}
	if p.Op("*") {
		call.Star = true
		p.Next()
	} else if !p.Op(")") {
		arg, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		call.Arg = arg
	}
	if !p.Op(")") {
		return nil, p.LexErr(p.Errorf("expected ')' to close %s, got %s", strings.ToUpper(name), p.Tok))
	}
	p.Next()
	return call, nil
}

func (p *Parser) parseCase() (Expr, error) {
	pos := p.Tok.Pos
	p.Next() // CASE
	var parts [3]Expr
	for i, kw := range []string{"WHEN", "THEN", "ELSE"} {
		if err := p.ExpectKeyword(kw); err != nil {
			return nil, err
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		parts[i] = e
	}
	if err := p.ExpectKeyword("END"); err != nil {
		return nil, err
	}
	return CaseExpr{Cond: parts[0], Then: parts[1], Else: parts[2], P: pos}, nil
}
