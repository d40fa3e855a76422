// Vectorized evaluation: CompileBatch turns an expression tree into
// closure kernels that evaluate each node over a whole selection vector
// at a time, writing into reused output vectors, instead of walking the
// tree once per row through interface dispatch.
//
// Kernels are pure — expression evaluation in this package has no side
// effects — so the vectorized evaluator is free to drop the scalar
// evaluator's boolean short-circuiting: results are identical, and CPU
// charges are computed by callers from Ops(), which was always the
// static (non-short-circuit) operator count.
package expr

import (
	"strconv"
	"strings"

	"smartssd/internal/schema"
)

// BatchSource provides columnar access to a batch of rows: one vector
// per referenced column, indexed by schema column order. Numeric
// columns (Int32, Int64, Date) are widened to []int64 exactly as the
// scalar decode path widens them; Char columns are [][]byte.
// schema.Batch implements it.
type BatchSource interface {
	// Int64At reports column col's vector, valid at least at the rows
	// of sel: a kernel asks for a column at its own selection, so a
	// source that decodes lazily decodes only those rows.
	Int64At(col int, sel []int32) []int64
	BytesVec(col int) [][]byte
}

// Kernel shapes. All outputs are compacted over the selection:
// out[k] holds the value for row sel[k].
type (
	selKernel   func(src BatchSource, sel []int32) []int32
	int64Kernel func(src BatchSource, sel []int32, out []int64)
	bytesKernel func(src BatchSource, sel []int32, out [][]byte)
)

// BatchExpr is a compiled vectorized expression. It owns lazily grown
// scratch vectors, so it is not safe for concurrent use; compile one
// per executor (engines cache them in their run scratch).
type BatchExpr struct {
	kind schema.Kind
	key  string
	selK selKernel
	i64  int64Kernel
	byt  bytesKernel
}

// BatchKey reports the canonical structural signature CompileBatch
// assigns to e, without building kernels. Two expressions with equal
// keys compile to behaviorally identical kernels — the key encodes node
// shapes, operators, column indexes and kinds, and literal values — so
// engines cache compiled expressions across runs in a string-keyed map
// and probe it with BatchKey alone. It reports false for expressions
// outside the supported class.
func BatchKey(e Expr) (string, bool) {
	var sig strings.Builder
	var ok bool
	if e.Kind() == schema.Char {
		ok = bytesKey(e, &sig)
	} else {
		ok = int64Key(e, &sig)
	}
	if !ok {
		return "", false
	}
	return sig.String(), true
}

func int64Key(e Expr, sig *strings.Builder) bool {
	if e.Kind() == schema.Char {
		// A Char expression in a numeric slot evaluates to Int zero.
		sig.WriteString("z:")
		return bytesKey(e, sig)
	}
	switch x := e.(type) {
	case Col:
		sig.WriteByte('c')
		keyInt(sig, int64(x.Index))
		sig.WriteByte(':')
		keyInt(sig, int64(x.K))
	case Const:
		sig.WriteByte('k')
		keyInt(sig, int64(x.K))
		sig.WriteByte(':')
		keyInt(sig, x.V.Int)
	case Cmp:
		sig.WriteByte('(')
		sig.WriteString(x.Op.String())
		sig.WriteByte(' ')
		charCmp := x.L.Kind() == schema.Char
		sub := int64Key
		if charCmp {
			sub = bytesKey
		}
		if !sub(x.L, sig) {
			return false
		}
		sig.WriteByte(' ')
		if !sub(x.R, sig) {
			return false
		}
		sig.WriteByte(')')
	case And:
		sig.WriteString("(& ")
		for i, t := range x.Terms {
			if i > 0 {
				sig.WriteByte(' ')
			}
			if !int64Key(t, sig) {
				return false
			}
		}
		sig.WriteByte(')')
	case Or:
		sig.WriteString("(| ")
		for i, t := range x.Terms {
			if i > 0 {
				sig.WriteByte(' ')
			}
			if !int64Key(t, sig) {
				return false
			}
		}
		sig.WriteByte(')')
	case Not:
		sig.WriteString("(! ")
		if !int64Key(x.E, sig) {
			return false
		}
		sig.WriteByte(')')
	case Arith:
		sig.WriteByte('(')
		sig.WriteString(x.Op.String())
		sig.WriteByte(' ')
		if !int64Key(x.L, sig) {
			return false
		}
		sig.WriteByte(' ')
		if !int64Key(x.R, sig) {
			return false
		}
		sig.WriteByte(')')
	case LikePrefix:
		sig.WriteString("(like ")
		sig.WriteString(strconv.Quote(x.Prefix))
		sig.WriteByte(' ')
		if !bytesKey(x.E, sig) {
			return false
		}
		sig.WriteByte(')')
	case Case:
		sig.WriteString("(case ")
		if !int64Key(x.Cond, sig) {
			return false
		}
		sig.WriteByte(' ')
		if !int64Key(x.Then, sig) {
			return false
		}
		sig.WriteByte(' ')
		if !int64Key(x.Else, sig) {
			return false
		}
		sig.WriteByte(')')
	default:
		return false
	}
	return true
}

func bytesKey(e Expr, sig *strings.Builder) bool {
	switch x := e.(type) {
	case Col:
		if x.K != schema.Char {
			return false
		}
		sig.WriteByte('b')
		keyInt(sig, int64(x.Index))
	case Const:
		if x.K != schema.Char {
			return false
		}
		sig.WriteByte('s')
		sig.WriteString(strconv.Quote(string(x.V.Bytes)))
	case Case:
		if x.Then.Kind() != schema.Char {
			return false
		}
		sig.WriteString("(bcase ")
		if !int64Key(x.Cond, sig) {
			return false
		}
		sig.WriteByte(' ')
		if !bytesKey(x.Then, sig) {
			return false
		}
		sig.WriteByte(' ')
		if !bytesKey(x.Else, sig) {
			return false
		}
		sig.WriteByte(')')
	default:
		return false
	}
	return true
}

// keyInt writes v in decimal. Keys are built without fmt, whose pooled
// printers would make a key's allocation count vary from call to call.
func keyInt(sig *strings.Builder, v int64) {
	var buf [20]byte
	sig.Write(strconv.AppendInt(buf[:0], v, 10))
}

// CompileBatch compiles e into vectorized kernels. It reports false
// when e contains a node outside the supported expression class (an
// Expr implementation this package does not know); callers fall back to
// the scalar evaluator.
func CompileBatch(e Expr) (*BatchExpr, bool) {
	key, ok := BatchKey(e)
	if !ok {
		return nil, false
	}
	b := &BatchExpr{kind: e.Kind(), key: key}
	switch e.Kind() {
	case schema.Char:
		b.byt, ok = compileBytes(e)
		if !ok {
			return nil, false
		}
		// A Char expression in a numeric or boolean slot evaluates to a
		// Value whose Int is zero; mirror that exactly.
		b.i64 = func(_ BatchSource, sel []int32, out []int64) {
			for k := range sel {
				out[k] = 0
			}
		}
		b.selK = func(_ BatchSource, sel []int32) []int32 { return sel[:0] }
	default:
		b.i64, ok = compileInt64(e)
		if !ok {
			return nil, false
		}
		b.selK = compileSel(e, b.i64)
	}
	return b, true
}

// CompileCached is CompileBatch through cache, keyed by BatchKey, so a
// long-lived executor compiles each distinct expression once. A nil
// cache compiles afresh every time.
func CompileCached(cache map[string]*BatchExpr, e Expr) (*BatchExpr, bool) {
	if cache == nil {
		return CompileBatch(e)
	}
	key, ok := BatchKey(e)
	if !ok {
		return nil, false
	}
	if be := cache[key]; be != nil {
		return be, true
	}
	be, ok := CompileBatch(e)
	if ok {
		cache[key] = be
	}
	return be, ok
}

// Kind reports the compiled expression's result type.
func (b *BatchExpr) Kind() schema.Kind { return b.kind }

// Key reports the canonical structural signature (see BatchKey).
func (b *BatchExpr) Key() string { return b.key }

// Select refines sel to the rows where the (boolean) expression is
// non-zero, preserving order. The result aliases internal scratch and
// is valid until the next Select on this BatchExpr.
func (b *BatchExpr) Select(src BatchSource, sel []int32) []int32 {
	return b.selK(src, sel)
}

// EvalInt64 evaluates the expression for every selected row into out
// (grown as needed): out[k] is the value of row sel[k].
func (b *BatchExpr) EvalInt64(src BatchSource, sel []int32, out []int64) []int64 {
	if cap(out) < len(sel) {
		out = make([]int64, len(sel))
	}
	out = out[:len(sel)]
	b.i64(src, sel, out)
	return out
}

// EvalBytes evaluates a Char expression for every selected row into out
// (grown as needed). Element slices may alias the source page buffers.
func (b *BatchExpr) EvalBytes(src BatchSource, sel []int32, out [][]byte) [][]byte {
	if cap(out) < len(sel) {
		out = make([][]byte, len(sel))
	}
	out = out[:len(sel)]
	b.byt(src, sel, out)
	return out
}

// i64Scratch is a lazily grown int64 vector owned by one kernel closure.
type i64Scratch struct{ buf []int64 }

func (s *i64Scratch) get(n int) []int64 {
	if cap(s.buf) < n {
		s.buf = make([]int64, n)
	}
	return s.buf[:n]
}

type bytScratch struct{ buf [][]byte }

func (s *bytScratch) get(n int) [][]byte {
	if cap(s.buf) < n {
		s.buf = make([][]byte, n)
	}
	return s.buf[:n]
}

// compileSel builds the filtering kernel for a boolean expression:
// fused comparison loops for the leaf shapes the query class hits
// hottest (column-versus-constant range predicates), chained refinement
// for conjunctions (true vectorized short-circuiting: later terms see
// only survivors), and a generic evaluate-then-compact fallback.
func compileSel(e Expr, ev int64Kernel) selKernel {
	switch x := e.(type) {
	case And:
		if len(x.Terms) > 0 {
			terms := make([]selKernel, len(x.Terms))
			good := true
			for i, t := range x.Terms {
				tk, ok := compileInt64(t)
				if !ok {
					good = false
					break
				}
				terms[i] = compileSel(t, tk)
			}
			if good {
				return func(src BatchSource, sel []int32) []int32 {
					for _, t := range terms {
						if len(sel) == 0 {
							return sel
						}
						sel = t(src, sel)
					}
					return sel
				}
			}
		}
	case Cmp:
		if col, ok := x.L.(Col); ok && col.K != schema.Char {
			if c, ok := x.R.(Const); ok {
				return colConstSel(col.Index, x.Op, c.V.Int)
			}
		}
	}
	// Generic: evaluate 0/1 over the selection, keep non-zero rows.
	var vals i64Scratch
	var keep []int32
	return func(src BatchSource, sel []int32) []int32 {
		v := vals.get(len(sel))
		ev(src, sel, v)
		if cap(keep) < len(sel) {
			keep = make([]int32, len(sel))
		}
		out, n := keep[:len(sel)], 0
		for k, row := range sel {
			out[n] = row
			n += b2i(v[k] != 0)
		}
		return out[:n]
	}
}

// colConstSel is the fused column-versus-constant comparison kernel.
func colConstSel(col int, op CmpOp, c int64) selKernel {
	var keep []int32
	return func(src BatchSource, sel []int32) []int32 {
		vec := src.Int64At(col, sel)
		if cap(keep) < len(sel) {
			keep = make([]int32, len(sel))
		}
		return selectConst(op, vec, sel, keep[:len(sel)], c)
	}
}

// selectConst writes to out the rows of sel whose value in vec compares
// to c by op and reports them, one loop per operator. Each loop writes
// every candidate row and advances past it by the comparison's result,
// so how many rows survive never steers a branch. The loops live in a
// small function of their own, where the compiler inlines b2i; in
// compileSel's closure it does not, and a call per row costs more
// than the branch it replaces.
func selectConst(op CmpOp, vec []int64, sel, out []int32, c int64) []int32 {
	n := 0
	switch op {
	case EQ:
		for _, row := range sel {
			out[n] = row
			n += b2i(vec[row] == c)
		}
	case NE:
		for _, row := range sel {
			out[n] = row
			n += b2i(vec[row] != c)
		}
	case LT:
		for _, row := range sel {
			out[n] = row
			n += b2i(vec[row] < c)
		}
	case LE:
		for _, row := range sel {
			out[n] = row
			n += b2i(vec[row] <= c)
		}
	case GT:
		for _, row := range sel {
			out[n] = row
			n += b2i(vec[row] > c)
		}
	default: // GE
		for _, row := range sel {
			out[n] = row
			n += b2i(vec[row] >= c)
		}
	}
	return out[:n]
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func compileInt64(e Expr) (int64Kernel, bool) {
	if e.Kind() == schema.Char {
		// Char expression in a numeric slot: Int is always zero.
		if _, ok := compileBytes(e); !ok {
			return nil, false
		}
		return func(_ BatchSource, sel []int32, out []int64) {
			for k := range sel {
				out[k] = 0
			}
		}, true
	}
	switch x := e.(type) {
	case Col:
		idx := x.Index
		return func(src BatchSource, sel []int32, out []int64) {
			vec := src.Int64At(idx, sel)
			for k, row := range sel {
				out[k] = vec[row]
			}
		}, true
	case Const:
		c := x.V.Int
		return func(_ BatchSource, sel []int32, out []int64) {
			for k := range sel {
				out[k] = c
			}
		}, true
	case Cmp:
		return compileCmp(x)
	case And:
		return compileLogical(x.Terms, true)
	case Or:
		return compileLogical(x.Terms, false)
	case Not:
		sub, ok := compileInt64(x.E)
		if !ok {
			return nil, false
		}
		var s i64Scratch
		return func(src BatchSource, sel []int32, out []int64) {
			v := s.get(len(sel))
			sub(src, sel, v)
			for k := range sel {
				if v[k] == 0 {
					out[k] = 1
				} else {
					out[k] = 0
				}
			}
		}, true
	case Arith:
		return compileArith(x)
	case LikePrefix:
		sub, ok := compileBytes(x.E)
		if !ok {
			return nil, false
		}
		prefix := x.Prefix
		var s bytScratch
		return func(src BatchSource, sel []int32, out []int64) {
			v := s.get(len(sel))
			sub(src, sel, v)
			for k := range sel {
				b := v[k]
				if len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix {
					out[k] = 1
				} else {
					out[k] = 0
				}
			}
		}, true
	case Case:
		cond, ok := compileInt64(x.Cond)
		if !ok {
			return nil, false
		}
		then, ok := compileInt64(x.Then)
		if !ok {
			return nil, false
		}
		els, ok := compileInt64(x.Else)
		if !ok {
			return nil, false
		}
		var cs, ts, es i64Scratch
		return func(src BatchSource, sel []int32, out []int64) {
			c := cs.get(len(sel))
			t := ts.get(len(sel))
			f := es.get(len(sel))
			cond(src, sel, c)
			then(src, sel, t)
			els(src, sel, f)
			for k := range sel {
				if c[k] != 0 {
					out[k] = t[k]
				} else {
					out[k] = f[k]
				}
			}
		}, true
	}
	return nil, false
}

func compileCmp(x Cmp) (int64Kernel, bool) {
	op := x.Op
	if x.L.Kind() == schema.Char {
		l, ok := compileBytes(x.L)
		if !ok {
			return nil, false
		}
		r, ok := compileBytes(x.R)
		if !ok {
			return nil, false
		}
		var ls, rs bytScratch
		return func(src BatchSource, sel []int32, out []int64) {
			lv := ls.get(len(sel))
			rv := rs.get(len(sel))
			l(src, sel, lv)
			r(src, sel, rv)
			for k := range sel {
				res := schema.Compare(schema.Char,
					schema.Value{Bytes: lv[k]}, schema.Value{Bytes: rv[k]})
				out[k] = cmpResult(op, res)
			}
		}, true
	}
	// Fused column-versus-constant comparison, the range-predicate shape.
	if col, ok := x.L.(Col); ok {
		if c, ok := x.R.(Const); ok {
			idx, cv := col.Index, c.V.Int
			return func(src BatchSource, sel []int32, out []int64) {
				vec := src.Int64At(idx, sel)
				for k, row := range sel {
					var res int
					switch {
					case vec[row] < cv:
						res = -1
					case vec[row] > cv:
						res = 1
					}
					out[k] = cmpResult(op, res)
				}
			}, true
		}
	}
	l, ok := compileInt64(x.L)
	if !ok {
		return nil, false
	}
	r, ok := compileInt64(x.R)
	if !ok {
		return nil, false
	}
	var ls, rs i64Scratch
	return func(src BatchSource, sel []int32, out []int64) {
		lv := ls.get(len(sel))
		rv := rs.get(len(sel))
		l(src, sel, lv)
		r(src, sel, rv)
		for k := range sel {
			var res int
			switch {
			case lv[k] < rv[k]:
				res = -1
			case lv[k] > rv[k]:
				res = 1
			}
			out[k] = cmpResult(op, res)
		}
	}, true
}

func cmpResult(op CmpOp, res int) int64 {
	var ok bool
	switch op {
	case EQ:
		ok = res == 0
	case NE:
		ok = res != 0
	case LT:
		ok = res < 0
	case LE:
		ok = res <= 0
	case GT:
		ok = res > 0
	default:
		ok = res >= 0
	}
	if ok {
		return 1
	}
	return 0
}

func compileLogical(terms []Expr, conj bool) (int64Kernel, bool) {
	subs := make([]int64Kernel, len(terms))
	for i, t := range terms {
		sub, ok := compileInt64(t)
		if !ok {
			return nil, false
		}
		subs[i] = sub
	}
	var acc, term i64Scratch
	return func(src BatchSource, sel []int32, out []int64) {
		a := acc.get(len(sel))
		for k := range sel {
			if conj {
				a[k] = 1
			} else {
				a[k] = 0
			}
		}
		for _, sub := range subs {
			t := term.get(len(sel))
			sub(src, sel, t)
			if conj {
				for k := range sel {
					if t[k] == 0 {
						a[k] = 0
					}
				}
			} else {
				for k := range sel {
					if t[k] != 0 {
						a[k] = 1
					}
				}
			}
		}
		copy(out, a)
	}, true
}

func compileArith(x Arith) (int64Kernel, bool) {
	l, ok := compileInt64(x.L)
	if !ok {
		return nil, false
	}
	r, ok := compileInt64(x.R)
	if !ok {
		return nil, false
	}
	var ls, rs i64Scratch
	op := x.Op
	return func(src BatchSource, sel []int32, out []int64) {
		lv := ls.get(len(sel))
		rv := rs.get(len(sel))
		l(src, sel, lv)
		r(src, sel, rv)
		switch op {
		case Add:
			for k := range sel {
				out[k] = lv[k] + rv[k]
			}
		case Sub:
			for k := range sel {
				out[k] = lv[k] - rv[k]
			}
		case Mul:
			for k := range sel {
				out[k] = lv[k] * rv[k]
			}
		default: // Div; division by zero yields zero, like the scalar path
			for k := range sel {
				if rv[k] == 0 {
					out[k] = 0
				} else {
					out[k] = lv[k] / rv[k]
				}
			}
		}
	}, true
}

func compileBytes(e Expr) (bytesKernel, bool) {
	switch x := e.(type) {
	case Col:
		if x.K != schema.Char {
			return nil, false
		}
		idx := x.Index
		return func(src BatchSource, sel []int32, out [][]byte) {
			vec := src.BytesVec(idx)
			for k, row := range sel {
				out[k] = vec[row]
			}
		}, true
	case Const:
		if x.K != schema.Char {
			return nil, false
		}
		c := x.V.Bytes
		return func(_ BatchSource, sel []int32, out [][]byte) {
			for k := range sel {
				out[k] = c
			}
		}, true
	case Case:
		if x.Then.Kind() != schema.Char {
			return nil, false
		}
		cond, ok := compileInt64(x.Cond)
		if !ok {
			return nil, false
		}
		then, ok := compileBytes(x.Then)
		if !ok {
			return nil, false
		}
		els, ok := compileBytes(x.Else)
		if !ok {
			return nil, false
		}
		var cs i64Scratch
		var ts, es bytScratch
		return func(src BatchSource, sel []int32, out [][]byte) {
			c := cs.get(len(sel))
			t := ts.get(len(sel))
			f := es.get(len(sel))
			cond(src, sel, c)
			then(src, sel, t)
			els(src, sel, f)
			for k := range sel {
				if c[k] != 0 {
					out[k] = t[k]
				} else {
					out[k] = f[k]
				}
			}
		}, true
	}
	return nil, false
}
