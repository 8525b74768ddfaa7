package expr

import (
	"fmt"
	"math"
)

// Program is an expression compiled to a flat, allocation-free stack
// program. Identifiers are resolved at compile time: formal parameters
// become numbered slots filled per evaluation, attributes become embedded
// constants, and anything else is rejected with ErrUnboundIdentifier —
// moving the whole class of unbound-identifier failures from evaluation
// time to compile time.
//
// Compilation performs common-subexpression elimination: structurally
// equal subtrees are hash-consed into one node, and any node referenced
// more than once is computed a single time into a local (a reserved cell
// at the base of the evaluation stack, written by opTee and reread by
// opLoad). The value a CSE'd program computes is bit-identical to the
// uneliminated one — a reused local holds exactly the value recomputation
// would have produced — so lane/scalar and compiled/interpreted parity
// contracts are unaffected.
//
// A Program is immutable after compilation and safe for concurrent use;
// per-evaluation state lives entirely in the caller-provided stack.
type Program struct {
	src       Expr // the folded tree, rendered by String on demand
	code      []instr
	consts    []float64
	calls     []compiledCall
	numSlots  int
	numLocals int
	maxStack  int
}

type opcode uint8

const (
	opConst opcode = iota
	opSlot
	opAdd
	opSub
	opMul
	opDiv
	opPow
	opNeg
	opCall
	opTee  // copy the stack top into local idx (no pop)
	opLoad // push local idx onto the stack
)

type instr struct {
	op  opcode
	idx uint32
}

type compiledCall struct {
	name  string
	arity int
	fn    func(args []float64) (float64, error)
}

// CompileProgram compiles e against an evaluation contract: the ordered
// slot names (typically a service's formal parameters) and a constant
// environment (typically its attributes). Slot names shadow constants of
// the same name, matching model.Env. Constant subexpressions are folded at
// compile time with the same operation order the interpreter would use, so
// compiled and interpreted evaluation agree bitwise.
func CompileProgram(e Expr, slotNames []string, consts Env) (*Program, error) {
	return CompileFolded(Fold(e, slotNames, consts), slotNames)
}

// CompileFolded compiles an expression that Fold has already folded
// against slotNames, for a caller that keeps the folded form itself: the
// program refers to folded, not to a copy, and renders it only when
// String is called.
func CompileFolded(folded Expr, slotNames []string) (*Program, error) {
	slots := make(map[string]int, len(slotNames))
	for i, n := range slotNames {
		slots[n] = i
	}
	e := internExpr(folded)
	p := &Program{src: folded, numSlots: len(slotNames)}
	em := &emitter{
		p:        p,
		slots:    slots,
		shared:   sharedNodes(e),
		locals:   make(map[Expr]uint32),
		constIdx: make(map[uint64]uint32),
	}
	if err := em.emit(e); err != nil {
		return nil, err
	}
	p.numLocals = len(em.locals)
	p.maxStack = p.computeMaxStack()
	return p, nil
}

// MustCompileProgram compiles a statically known-good expression,
// panicking on error.
func MustCompileProgram(e Expr, slotNames []string, consts Env) *Program {
	p, err := CompileProgram(e, slotNames, consts)
	if err != nil {
		panic(err)
	}
	return p
}

// maxSrcNodes caps the tree size String renders for a compiled program.
// The parametric compiler produces DAGs whose tree expansion can be
// exponential in depth, so rendering must be size-gated; past the cap the
// source form becomes a placeholder.
const maxSrcNodes = 1 << 14

func renderSrc(e Expr) string {
	if n := treeSizeCapped(e, make(map[Expr]int)); n > maxSrcNodes {
		return fmt.Sprintf("<compiled expression wider than %d nodes>", maxSrcNodes)
	}
	return e.String()
}

// treeSizeCapped returns the tree-expansion size of e, saturating at
// maxSrcNodes+1; memoized on node identity so DAGs are measured in time
// linear in their distinct nodes.
func treeSizeCapped(e Expr, memo map[Expr]int) int {
	if s, ok := memo[e]; ok {
		return s
	}
	s := 1
	switch n := e.(type) {
	case *Neg:
		s += treeSizeCapped(n.X, memo)
	case *Binary:
		s += treeSizeCapped(n.L, memo) + treeSizeCapped(n.R, memo)
	case *CallExpr:
		for _, a := range n.Args {
			s += treeSizeCapped(a, memo)
		}
	}
	if s > maxSrcNodes {
		s = maxSrcNodes + 1
	}
	memo[e] = s
	return s
}

// internKey identifies an expression node structurally by its kind, any
// leaf payload, and the identities of its (already canonical) children.
type internKey struct {
	kind byte
	op   Op
	name string
	bits uint64
	a, b Expr
}

// internExpr hash-conses e bottom-up so that structurally equal subtrees
// become pointer-identical, turning structural equality into pointer
// equality for the sharing analysis below.
func internExpr(e Expr) Expr {
	return internMemo(e, make(map[internKey]Expr), make(map[Expr]Expr))
}

func internMemo(e Expr, canon map[internKey]Expr, done map[Expr]Expr) Expr {
	if c, ok := done[e]; ok {
		return c
	}
	var out Expr
	var key internKey
	haveKey := true
	switch n := e.(type) {
	case Num:
		key = internKey{kind: 1, bits: math.Float64bits(float64(n))}
		out = n
	case Var:
		key = internKey{kind: 2, name: string(n)}
		out = n
	case *Neg:
		x := internMemo(n.X, canon, done)
		key = internKey{kind: 3, a: x}
		out = &Neg{X: x}
	case *Binary:
		l := internMemo(n.L, canon, done)
		r := internMemo(n.R, canon, done)
		key = internKey{kind: 4, op: n.Op, a: l, b: r}
		out = &Binary{Op: n.Op, L: l, R: r}
	case *CallExpr:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = internMemo(a, canon, done)
		}
		out = &CallExpr{Name: n.Name, Args: args}
		switch len(args) {
		case 1:
			key = internKey{kind: 5, name: n.Name, a: args[0]}
		case 2:
			key = internKey{kind: 5, name: n.Name, a: args[0], b: args[1]}
		default:
			haveKey = false
		}
	default:
		out, haveKey = e, false
	}
	if haveKey {
		if c, ok := canon[key]; ok {
			out = c
		} else {
			canon[key] = out
		}
	}
	done[e] = out
	return out
}

// sharedNodes returns the interior nodes of the (interned) DAG that are
// referenced more than once; each gets a local so it is computed exactly
// once. Leaves (constants, slots) are cheaper to rematerialize than load.
func sharedNodes(root Expr) map[Expr]bool {
	counts := make(map[Expr]int)
	var walk func(Expr)
	walk = func(e Expr) {
		counts[e]++
		if counts[e] != 1 {
			return
		}
		switch n := e.(type) {
		case *Neg:
			walk(n.X)
		case *Binary:
			walk(n.L)
			walk(n.R)
		case *CallExpr:
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(root)
	shared := make(map[Expr]bool)
	for node, c := range counts {
		if c < 2 {
			continue
		}
		switch node.(type) {
		case Num, Var:
		default:
			shared[node] = true
		}
	}
	return shared
}

type emitter struct {
	p        *Program
	slots    map[string]int
	shared   map[Expr]bool
	locals   map[Expr]uint32 // shared node -> assigned local (once emitted)
	constIdx map[uint64]uint32
}

func (em *emitter) emit(e Expr) error {
	if idx, ok := em.locals[e]; ok {
		em.p.code = append(em.p.code, instr{op: opLoad, idx: idx})
		return nil
	}
	if err := em.emitNode(e); err != nil {
		return err
	}
	if em.shared[e] {
		idx := uint32(len(em.locals))
		em.locals[e] = idx
		em.p.code = append(em.p.code, instr{op: opTee, idx: idx})
	}
	return nil
}

func (em *emitter) emitNode(e Expr) error {
	p := em.p
	switch n := e.(type) {
	case Num:
		bits := math.Float64bits(float64(n))
		ci, ok := em.constIdx[bits]
		if !ok {
			ci = uint32(len(p.consts))
			p.consts = append(p.consts, float64(n))
			em.constIdx[bits] = ci
		}
		p.code = append(p.code, instr{op: opConst, idx: ci})
		return nil
	case Var:
		i, ok := em.slots[string(n)]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnboundIdentifier, string(n))
		}
		p.code = append(p.code, instr{op: opSlot, idx: uint32(i)})
		return nil
	case *Neg:
		if err := em.emit(n.X); err != nil {
			return err
		}
		p.code = append(p.code, instr{op: opNeg})
		return nil
	case *Binary:
		if err := em.emit(n.L); err != nil {
			return err
		}
		if err := em.emit(n.R); err != nil {
			return err
		}
		var op opcode
		switch n.Op {
		case OpAdd:
			op = opAdd
		case OpSub:
			op = opSub
		case OpMul:
			op = opMul
		case OpDiv:
			op = opDiv
		case OpPow:
			op = opPow
		default:
			return fmt.Errorf("expr: compile: unknown operator %v", n.Op)
		}
		p.code = append(p.code, instr{op: op})
		return nil
	case *CallExpr:
		b, ok := builtins[n.Name]
		if !ok {
			return fmt.Errorf("expr: compile: unknown function %q", n.Name)
		}
		if len(n.Args) != b.arity {
			return fmt.Errorf("expr: compile: %s expects %d argument(s), got %d", n.Name, b.arity, len(n.Args))
		}
		for _, a := range n.Args {
			if err := em.emit(a); err != nil {
				return err
			}
		}
		p.code = append(p.code, instr{op: opCall, idx: uint32(len(p.calls))})
		p.calls = append(p.calls, compiledCall{name: n.Name, arity: b.arity, fn: b.eval})
		return nil
	default:
		return fmt.Errorf("expr: compile: unsupported node %T", e)
	}
}

// computeMaxStack returns the total stack requirement: the locals region
// at the base plus the deepest operand excursion above it.
func (p *Program) computeMaxStack() int {
	sp, best := 0, 0
	for _, in := range p.code {
		switch in.op {
		case opConst, opSlot, opLoad:
			sp++
		case opAdd, opSub, opMul, opDiv, opPow:
			sp--
		case opNeg, opTee:
			// depth unchanged
		case opCall:
			sp -= p.calls[in.idx].arity - 1
		}
		if sp > best {
			best = sp
		}
	}
	return p.numLocals + best
}

// NumSlots returns the number of parameter slots the program reads.
func (p *Program) NumSlots() int { return p.numSlots }

// MaxStack returns the evaluation-stack depth Eval requires (including the
// locals region common-subexpression elimination reserves at its base).
func (p *Program) MaxStack() int { return p.maxStack }

// Ops returns the number of instructions in the compiled program.
func (p *Program) Ops() int { return len(p.code) }

// Const reports whether the program folded to a single constant, and its
// value.
func (p *Program) Const() (float64, bool) {
	if len(p.code) == 1 && p.code[0].op == opConst {
		return p.consts[0], true
	}
	return 0, false
}

// String returns the (folded) source form of the compiled expression, or a
// placeholder when the tree expansion of the compiled DAG is too large to
// render. It renders the tree on every call.
func (p *Program) String() string { return renderSrc(p.src) }

// LaneCallScratch is the number of extra entries EvalLane requires at the
// tail of its stack, used as gather scratch for builtin-call arguments.
// No builtin today exceeds this arity; one that did would fall back to an
// allocation rather than fail.
const LaneCallScratch = 8

// EvalLane runs the program over a structure-of-arrays lane of `lanes`
// parameter points in one instruction pass: slot s of point k lives at
// slots[s*lanes+k], and the result of point k is written to out[k]. The
// per-point operation sequence is exactly Eval's, so every lane result is
// bit-identical to a scalar evaluation of the same point; only the
// instruction-dispatch overhead is amortized across the lane.
//
// stack must hold at least MaxStack()*lanes+LaneCallScratch entries (the
// tail is scratch for builtin-call arguments, kept out of the lane rows
// so no per-call buffer escapes to the heap) and out at least lanes
// entries; neither is retained. A point-level failure (division by zero,
// domain error) fails the whole lane — callers that need per-point error
// attribution re-run the lane's points through Eval.
func (p *Program) EvalLane(slots []float64, lanes int, out, stack []float64) error {
	sp := p.numLocals
	for _, in := range p.code {
		switch in.op {
		case opConst:
			c := p.consts[in.idx]
			row := stack[sp*lanes : sp*lanes+lanes]
			for k := range row {
				row[k] = c
			}
			sp++
		case opSlot:
			copy(stack[sp*lanes:sp*lanes+lanes], slots[int(in.idx)*lanes:int(in.idx)*lanes+lanes])
			sp++
		case opLoad:
			copy(stack[sp*lanes:sp*lanes+lanes], stack[int(in.idx)*lanes:int(in.idx)*lanes+lanes])
			sp++
		case opTee:
			copy(stack[int(in.idx)*lanes:int(in.idx)*lanes+lanes], stack[(sp-1)*lanes:sp*lanes])
		case opAdd:
			sp--
			dst := stack[(sp-1)*lanes : sp*lanes]
			src := stack[sp*lanes : (sp+1)*lanes]
			for k := range dst {
				dst[k] += src[k]
			}
		case opSub:
			sp--
			dst := stack[(sp-1)*lanes : sp*lanes]
			src := stack[sp*lanes : (sp+1)*lanes]
			for k := range dst {
				dst[k] -= src[k]
			}
		case opMul:
			sp--
			dst := stack[(sp-1)*lanes : sp*lanes]
			src := stack[sp*lanes : (sp+1)*lanes]
			for k := range dst {
				dst[k] *= src[k]
			}
		case opDiv:
			sp--
			dst := stack[(sp-1)*lanes : sp*lanes]
			src := stack[sp*lanes : (sp+1)*lanes]
			for k := range dst {
				if src[k] == 0 {
					return fmt.Errorf("%w: in %s", ErrDivisionByZero, p)
				}
				dst[k] /= src[k]
			}
		case opPow:
			sp--
			dst := stack[(sp-1)*lanes : sp*lanes]
			src := stack[sp*lanes : (sp+1)*lanes]
			for k := range dst {
				v := math.Pow(dst[k], src[k])
				if math.IsNaN(v) {
					return fmt.Errorf("%w: pow(%g, %g)", ErrDomain, dst[k], src[k])
				}
				dst[k] = v
			}
		case opNeg:
			row := stack[(sp-1)*lanes : sp*lanes]
			for k := range row {
				row[k] = -row[k]
			}
		case opCall:
			c := &p.calls[in.idx]
			sp -= c.arity
			// Gather arguments into the stack's scratch tail: a local
			// buffer would escape through the indirect builtin call and
			// cost one heap allocation per lane evaluation.
			args := stack[len(stack)-LaneCallScratch:]
			if c.arity > LaneCallScratch {
				args = make([]float64, c.arity)
			} else {
				args = args[:c.arity]
			}
			for k := 0; k < lanes; k++ {
				for a := 0; a < c.arity; a++ {
					args[a] = stack[(sp+a)*lanes+k]
				}
				v, err := c.fn(args)
				if err != nil {
					return err
				}
				stack[sp*lanes+k] = v
			}
			sp++
		}
	}
	copy(out[:lanes], stack[p.numLocals*lanes:(p.numLocals+1)*lanes])
	return nil
}

// Eval runs the program. slots must hold at least NumSlots values and
// stack at least MaxStack entries; neither is retained, so callers can
// reuse scratch buffers across evaluations for allocation-free operation.
func (p *Program) Eval(slots, stack []float64) (float64, error) {
	sp := p.numLocals
	for _, in := range p.code {
		switch in.op {
		case opConst:
			stack[sp] = p.consts[in.idx]
			sp++
		case opSlot:
			stack[sp] = slots[in.idx]
			sp++
		case opLoad:
			stack[sp] = stack[in.idx]
			sp++
		case opTee:
			stack[in.idx] = stack[sp-1]
		case opAdd:
			sp--
			stack[sp-1] += stack[sp]
		case opSub:
			sp--
			stack[sp-1] -= stack[sp]
		case opMul:
			sp--
			stack[sp-1] *= stack[sp]
		case opDiv:
			sp--
			if stack[sp] == 0 {
				return 0, fmt.Errorf("%w: in %s", ErrDivisionByZero, p)
			}
			stack[sp-1] /= stack[sp]
		case opPow:
			sp--
			v := math.Pow(stack[sp-1], stack[sp])
			if math.IsNaN(v) {
				return 0, fmt.Errorf("%w: pow(%g, %g)", ErrDomain, stack[sp-1], stack[sp])
			}
			stack[sp-1] = v
		case opNeg:
			stack[sp-1] = -stack[sp-1]
		case opCall:
			c := &p.calls[in.idx]
			sp -= c.arity
			v, err := c.fn(stack[sp : sp+c.arity])
			if err != nil {
				return 0, err
			}
			stack[sp] = v
			sp++
		}
	}
	return stack[p.numLocals], nil
}
