package expr

import "math"

// Simplify returns an algebraically simplified expression with the same
// value (up to floating-point re-association on the rewritten subterms)
// on every environment where the original is defined. It performs
// constant folding, the usual identity eliminations (x+0, x*1, x*0, x^1,
// x^0, --x, 0/x, folding of constant-only function calls), nested
// constant-shift cancellation (1-(1-x) collapses to x, constant terms of
// +/- chains gather into one), constant-factor gathering for products,
// and rational-form normalization ((a/b)/c folds to a/(b*c), a/(b/c) to
// (a*c)/b) — the rewrite set the parametric chain elimination needs to
// keep closed forms small.
//
// Simplification can extend the domain of an expression (for example
// 0 * log(x) simplifies to 0, which is defined at x <= 0); it never
// shrinks it. Simplify is memoized on node identity, so expressions with
// heavy subterm sharing (DAGs) simplify in time linear in the number of
// distinct nodes, not the tree expansion.
func Simplify(e Expr) Expr {
	return simplifyMemo(e, make(map[Expr]Expr))
}

func simplifyMemo(e Expr, memo map[Expr]Expr) Expr {
	if s, ok := memo[e]; ok {
		return s
	}
	s := simplifyNode(e, memo)
	memo[e] = s
	return s
}

func simplifyNode(e Expr, memo map[Expr]Expr) Expr {
	switch n := e.(type) {
	case Num, Var:
		return e

	case *Neg:
		x := simplifyMemo(n.X, memo)
		if c, ok := x.(Num); ok {
			return Num(-float64(c))
		}
		if inner, ok := x.(*Neg); ok {
			return inner.X
		}
		return &Neg{X: x}

	case *Binary:
		l, r := simplifyMemo(n.L, memo), simplifyMemo(n.R, memo)
		lc, lIsConst := l.(Num)
		rc, rIsConst := r.(Num)
		if lIsConst && rIsConst {
			if v, err := (&Binary{Op: n.Op, L: l, R: r}).Eval(nil); err == nil && !math.IsNaN(v) {
				return Num(v)
			}
		}
		switch n.Op {
		case OpAdd:
			if lIsConst && float64(lc) == 0 {
				return r
			}
			if rIsConst && float64(rc) == 0 {
				return l
			}
			if neg, ok := r.(*Neg); ok { // l + (-x) = l - x
				return simplifyMemo(Sub(l, neg.X), memo)
			}
			if neg, ok := l.(*Neg); ok { // (-x) + r = r - x
				return simplifyMemo(Sub(r, neg.X), memo)
			}
			if lIsConst {
				if out, ok := constShift(float64(lc), r, false); ok {
					return simplifyMemo(out, memo)
				}
			}
			if rIsConst {
				if out, ok := constShift(float64(rc), l, false); ok {
					return simplifyMemo(out, memo)
				}
			}
		case OpSub:
			if rIsConst && float64(rc) == 0 {
				return l
			}
			if lIsConst && float64(lc) == 0 {
				return simplifyMemo(&Neg{X: r}, memo)
			}
			if neg, ok := r.(*Neg); ok { // l - (-x) = l + x
				return simplifyMemo(Add(l, neg.X), memo)
			}
			if lIsConst {
				// c - (k - x) = (c-k) + x: cancels nested 1-(1-x) chains.
				if out, ok := constShift(float64(lc), r, true); ok {
					return simplifyMemo(out, memo)
				}
			}
			if rIsConst {
				// x - c = (-c) + x, gathered through the same shift rules.
				if out, ok := constShift(-float64(rc), l, false); ok {
					return simplifyMemo(out, memo)
				}
			}
		case OpMul:
			if lIsConst {
				if float64(lc) == 0 {
					return Num(0)
				}
				if float64(lc) == 1 {
					return r
				}
				if out, ok := constScale(float64(lc), r); ok {
					return simplifyMemo(out, memo)
				}
			}
			if rIsConst {
				if float64(rc) == 0 {
					return Num(0)
				}
				if float64(rc) == 1 {
					return l
				}
				if out, ok := constScale(float64(rc), l); ok {
					return simplifyMemo(out, memo)
				}
			}
		case OpDiv:
			if lIsConst && float64(lc) == 0 {
				return Num(0)
			}
			if rIsConst && float64(rc) == 1 {
				return l
			}
			if ld, ok := l.(*Binary); ok && ld.Op == OpDiv { // (a/b)/c = a/(b*c)
				return simplifyMemo(Div(ld.L, Mul(ld.R, r)), memo)
			}
			if rd, ok := r.(*Binary); ok && rd.Op == OpDiv { // a/(b/c) = (a*c)/b
				return simplifyMemo(Div(Mul(l, rd.R), rd.L), memo)
			}
		case OpPow:
			if rIsConst {
				if float64(rc) == 1 {
					return l
				}
				if float64(rc) == 0 {
					return Num(1)
				}
			}
			if lIsConst && float64(lc) == 1 {
				return Num(1)
			}
		}
		if l == n.L && r == n.R {
			return n
		}
		return &Binary{Op: n.Op, L: l, R: r}

	case *CallExpr:
		args := make([]Expr, len(n.Args))
		allConst, same := true, true
		for i, a := range n.Args {
			args[i] = simplifyMemo(a, memo)
			if _, ok := args[i].(Num); !ok {
				allConst = false
			}
			same = same && args[i] == a
		}
		out := n // unchanged, so a simplified tree shares it
		if !same {
			out = &CallExpr{Name: n.Name, Args: args}
		}
		if allConst {
			if v, err := out.Eval(nil); err == nil && !math.IsNaN(v) {
				return Num(v)
			}
		}
		return out

	default:
		return e
	}
}

// constShift gathers a constant added to (negate=false) or subtracting
// (negate=true) an inner +/- node that carries its own constant:
//
//	c + (k + x) = (c+k) + x    c - (k + x) = (c-k) - x
//	c + (k - x) = (c+k) - x    c - (k - x) = (c-k) + x
//	c + (x - k) = (c-k) + x    c - (x - k) = (c+k) - x
//
// The returned expression needs one more Simplify pass to fold the new
// constant (and cancel it when it lands on zero, as in 1-(1-x) = x).
func constShift(c float64, x Expr, negate bool) (Expr, bool) {
	b, ok := x.(*Binary)
	if !ok {
		return nil, false
	}
	switch b.Op {
	case OpAdd:
		if k, ok := b.L.(Num); ok {
			if negate {
				return Sub(Num(c-float64(k)), b.R), true
			}
			return Add(Num(c+float64(k)), b.R), true
		}
		if k, ok := b.R.(Num); ok {
			if negate {
				return Sub(Num(c-float64(k)), b.L), true
			}
			return Add(Num(c+float64(k)), b.L), true
		}
	case OpSub:
		if k, ok := b.L.(Num); ok { // (k - x)
			if negate {
				return Add(Num(c-float64(k)), b.R), true
			}
			return Sub(Num(c+float64(k)), b.R), true
		}
		if k, ok := b.R.(Num); ok { // (x - k)
			if negate {
				return Sub(Num(c+float64(k)), b.L), true
			}
			return Add(Num(c-float64(k)), b.L), true
		}
	}
	return nil, false
}

// constScale gathers a constant factor into an inner product or quotient
// that carries its own constant: c*(k*x) = (c*k)*x, c*(a/b) = (c*a)/b.
func constScale(c float64, x Expr) (Expr, bool) {
	b, ok := x.(*Binary)
	if !ok {
		return nil, false
	}
	switch b.Op {
	case OpMul:
		if k, ok := b.L.(Num); ok {
			return Mul(Num(c*float64(k)), b.R), true
		}
		if k, ok := b.R.(Num); ok {
			return Mul(Num(c*float64(k)), b.L), true
		}
	case OpDiv:
		if k, ok := b.L.(Num); ok {
			return Div(Num(c*float64(k)), b.R), true
		}
	}
	return nil, false
}

// Bind substitutes constant values for the given identifiers, returning a
// partially evaluated (and simplified) expression. Identifiers absent from
// bindings remain free.
func Bind(e Expr, bindings Env) Expr {
	return Simplify(bindMemo(e, bindings, make(map[Expr]Expr)))
}

func bindMemo(e Expr, bindings Env, memo map[Expr]Expr) Expr {
	if b, ok := memo[e]; ok {
		return b
	}
	b := bindNode(e, bindings, memo)
	memo[e] = b
	return b
}

func bindNode(e Expr, bindings Env, memo map[Expr]Expr) Expr {
	switch n := e.(type) {
	case Num:
		return n
	case Var:
		if v, ok := bindings[string(n)]; ok {
			return Num(v)
		}
		return n
	case *Neg:
		return &Neg{X: bindMemo(n.X, bindings, memo)}
	case *Binary:
		return &Binary{Op: n.Op, L: bindMemo(n.L, bindings, memo), R: bindMemo(n.R, bindings, memo)}
	case *CallExpr:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = bindMemo(a, bindings, memo)
		}
		return &CallExpr{Name: n.Name, Args: args}
	default:
		return e
	}
}

// Subst substitutes expressions for identifiers, returning the simplified
// result. Identifiers absent from bindings remain free. The parametric
// compiler uses it to inline actual-parameter expressions into a callee's
// failure law.
func Subst(e Expr, bindings map[string]Expr) Expr {
	return Simplify(substMemo(e, bindings, make(map[Expr]Expr)))
}

func substMemo(e Expr, bindings map[string]Expr, memo map[Expr]Expr) Expr {
	if s, ok := memo[e]; ok {
		return s
	}
	s := substNode(e, bindings, memo)
	memo[e] = s
	return s
}

func substNode(e Expr, bindings map[string]Expr, memo map[Expr]Expr) Expr {
	switch n := e.(type) {
	case Num:
		return n
	case Var:
		if r, ok := bindings[string(n)]; ok {
			return r
		}
		return n
	case *Neg:
		return &Neg{X: substMemo(n.X, bindings, memo)}
	case *Binary:
		return &Binary{Op: n.Op, L: substMemo(n.L, bindings, memo), R: substMemo(n.R, bindings, memo)}
	case *CallExpr:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = substMemo(a, bindings, memo)
		}
		return &CallExpr{Name: n.Name, Args: args}
	default:
		return e
	}
}

// Fold applies the compiled-evaluation contract symbolically: slot names
// shadow constants of the same name, every remaining constant is bound in,
// and the result is simplified. CompileProgram folds through exactly this
// function, so a caller that needs the symbolic form a program was emitted
// from (the parametric compiler) gets the identical expression.
func Fold(e Expr, slotNames []string, consts Env) Expr {
	if len(consts) == 0 {
		return Simplify(e)
	}
	folded := consts
	for _, n := range slotNames {
		if _, shadowed := consts[n]; shadowed {
			folded = consts.Clone()
			for _, sn := range slotNames {
				delete(folded, sn)
			}
			break
		}
	}
	return Bind(e, folded)
}
