package lang

import (
	"fmt"
	"math"
)

// This file lowers checked forall bodies to the register bytecode of
// vm.go.  Lowering happens host-side, once per Program.Run, after the
// real estate agent has chosen P and every constant is elaborated
// (constants may depend on P, so compilation cannot happen earlier);
// the resulting compiledBody is immutable and shared by all node
// goroutines, each of which wraps it in its own vmState.
//
// What the compiler does that the tree walker could not:
//   - register binding of the checker's symbols: forall index
//     variables, local decls and sequential loop variables (frame
//     slots) become fixed registers, and global scalars become pinned
//     input registers refreshed once per launch — no table lookups per
//     element;
//   - constant folding: subexpressions over literals and consts
//     collapse into pinned constant registers loaded once per node
//     (their would-be flops still charged, see below);
//   - strength reduction: affine subscripts a*v + c become a single
//     opLinI instruction, and identity subscripts disappear entirely;
//   - typed arithmetic: int and real operations are distinct opcodes
//     over unboxed register files.
//
// What it scrupulously preserves: evaluation order, the walker's float
// compares (ints widen first), non-short-circuit and/or, Go wrapping
// integer arithmetic, and the walker's exact flop-charge sequence.
// The walker charges Env.Flops(1) per operator, interleaved with the
// memory-reference charges its reads make; because the simulated clock
// is a float accumulator, both the unit size and the order of those
// charges are observable.  The compiler therefore emits opFlops at the
// AST position of each charge (folded and strength-reduced subtrees
// charge their would-be flops at the point the walker would have
// evaluated them — always a contiguous run, since foldable subtrees
// contain no reads), and the VM replays an opFlops k as k unit
// charges.  Simulated times and machine.Stats come out bit-identical
// between the two paths.
//
// The register allocator is deliberately monotone: every textual value
// gets a fresh register and nothing is ever reused, so constants,
// inputs, locals and temporaries coexist without liveness analysis.
// Bodies are small (tens of expressions), so the files stay tiny; the
// payoff is that instruction operands are stable and the emitted code
// cannot clobber a live value.

// compileForalls lowers every forall body in the program.
func compileForalls(f *File, consts []value) map[*Forall]*compiledBody {
	out := map[*Forall]*compiledBody{}
	var walk func(ss []Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *Forall:
				out[s] = compileBody(s, consts)
			case *ForLoop:
				walk(s.Body)
			case *While:
				walk(s.Body)
			case *If:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	walk(f.Main)
	return out
}

// comp is the per-body compiler state.
type comp struct {
	consts []value

	// regs holds the register of each frame slot of the forall (-1
	// until the slot's symbol is first compiled).
	regs []int32

	code         []instr
	nextF, nextI int32

	cfIndex map[uint64]int32 // float constant (by bits) -> pinned register
	ciIndex map[int]int32    // int/bool constant -> pinned register
	initF   []fInit
	initI   []iInit

	pool      []int // opLinI coefficient pool
	poolIndex map[int]int32

	scalars []scalarInput

	// barrier marks the last jump-target boundary; charge() may fold a
	// new flop charge into an earlier opFlops only when no label was
	// bound in between (a jump landing between them would skip or
	// double charges).
	barrier int
}

// compileBody lowers one checked forall body.
func compileBody(fa *Forall, consts []value) *compiledBody {
	c := &comp{
		consts:    consts,
		regs:      make([]int32, fa.nLocals),
		cfIndex:   map[uint64]int32{},
		ciIndex:   map[int]int32{},
		poolIndex: map[int]int32{},
	}
	for k := range c.regs {
		c.regs[k] = -1
	}
	cb := &compiledBody{name: fmt.Sprintf("forall@%d", fa.Line), rank: 1, ints: fa.ints}
	// Bind the checker's slot numbering: every array the body touches
	// already has its slot index on the ArrayRef and Assign nodes.
	ce := &constEval{consts: consts}
	for _, s := range fa.reals {
		cb.reals = append(cb.reals, vmArraySlot{sym: s, n: ce.intVal(s.decl.Dims[0].Hi)})
	}

	cb.iReg = c.reg(fa.vars[0])
	if fa.Var2 != "" {
		cb.rank = 2
		cb.jReg = c.reg(fa.vars[1])
	}
	// Forall locals reset to zero every iteration (the walker builds a
	// fresh frame per element); the emitted body re-zeroes them at
	// entry.
	for _, d := range fa.Decls {
		if reg := c.reg(d.sym); d.Type == TReal {
			c.add(opMovF, reg, c.constF(0), 0, 0)
		} else {
			c.add(opMovI, reg, c.constI(0), 0, 0)
		}
	}
	c.stmts(fa.Body)
	c.add(opRet, 0, 0, 0, 0)

	cb.code = c.code
	cb.nF, cb.nI = c.nextF, c.nextI
	cb.initF, cb.initI = c.initF, c.initI
	cb.constI = c.pool
	cb.scalars = c.scalars
	return cb
}

// ---- registers, constants, inputs ------------------------------------

func (c *comp) tmpF() int32 { r := c.nextF; c.nextF++; return r }
func (c *comp) tmpI() int32 { r := c.nextI; c.nextI++; return r }

func (c *comp) add(op opcode, a, b, cc, d int32) int {
	c.code = append(c.code, instr{op: op, a: a, b: b, c: cc, d: d})
	return len(c.code) - 1
}

// charge emits k unit flop charges at the current code position,
// coalescing with an earlier opFlops when only register arithmetic
// separates them: no other charge, no jump, no jump target.  The
// charges then replay as adjacent unit charges either way, so
// coalescing is pure instruction-count savings.
func (c *comp) charge(k int) {
	if k == 0 {
		return
	}
	for n := len(c.code) - 1; n >= c.barrier; n-- {
		if op := c.code[n].op; op == opFlops {
			c.code[n].a += int32(k)
			return
		} else if !op.pure() {
			break
		}
	}
	c.add(opFlops, int32(k), 0, 0, 0)
}

// constF returns the pinned register holding a float constant, keyed
// by bit pattern so -0.0 and 0.0 stay distinct.
func (c *comp) constF(v float64) int32 {
	bits := math.Float64bits(v)
	if r, ok := c.cfIndex[bits]; ok {
		return r
	}
	r := c.tmpF()
	c.cfIndex[bits] = r
	c.initF = append(c.initF, fInit{reg: r, v: v})
	return r
}

// constI returns the pinned register holding an int (or 0/1 bool)
// constant.
func (c *comp) constI(v int) int32 {
	if r, ok := c.ciIndex[v]; ok {
		return r
	}
	r := c.tmpI()
	c.ciIndex[v] = r
	c.initI = append(c.initI, iInit{reg: r, v: v})
	return r
}

// poolI interns a coefficient in the opLinI constant pool (pool slots
// carry full ints; instruction operands are int32).
func (c *comp) poolI(v int) int32 {
	if ix, ok := c.poolIndex[v]; ok {
		return ix
	}
	ix := int32(len(c.pool))
	c.poolIndex[v] = ix
	c.pool = append(c.pool, v)
	return ix
}

// tmp returns a fresh register in the file that holds type t.
func (c *comp) tmp(t BaseType) int32 {
	if t == TReal {
		return c.tmpF()
	}
	return c.tmpI()
}

// reg returns the register of a local (frame-slot) symbol.
func (c *comp) reg(s *symbol) int32 {
	if c.regs[s.index] < 0 {
		c.regs[s.index] = c.tmp(s.typ)
	}
	return c.regs[s.index]
}

// scalarReg returns the pinned input register for a global scalar,
// registering it for per-launch refresh.
func (c *comp) scalarReg(s *symbol) int32 {
	for _, in := range c.scalars {
		if in.sym == s {
			return in.reg
		}
	}
	reg := c.tmp(s.typ)
	c.scalars = append(c.scalars, scalarInput{sym: s, reg: reg})
	return reg
}

// ---- statements ------------------------------------------------------

func (c *comp) stmts(ss []Stmt) {
	for _, s := range ss {
		c.stmt(s)
	}
}

func (c *comp) stmt(s Stmt) {
	switch s := s.(type) {
	case *Assign:
		c.assign(s)
	case *ForLoop:
		c.forLoop(s)
	case *If:
		c.ifStmt(s)
	default:
		// The checker rejects forall/while/reduce/redistribute inside
		// forall bodies.
		panic(fmt.Sprintf("lang: compile: unexpected statement %T in forall body", s))
	}
}

func (c *comp) assign(s *Assign) {
	// The walker evaluates the value first, then the indexes.
	r, t := c.expr(s.X)
	if v := s.sym; v.local {
		switch {
		case v.typ == t && t == TReal:
			c.add(opMovF, c.reg(v), r, 0, 0)
		case v.typ == t:
			c.add(opMovI, c.reg(v), r, 0, 0)
		case v.typ == TReal && t == TInt:
			c.add(opIntToF, c.reg(v), r, 0, 0)
		default:
			panic(fmt.Sprintf("lang: compile: cannot assign %s to %s %q", t, v.typ, s.Name))
		}
		return
	}
	// Distributed real array write (owner-computes; checker-enforced).
	if t == TInt {
		r = c.widen(r, t)
	}
	slot := int32(s.slot)
	switch len(s.Indexes) {
	case 1:
		i := c.idx(s.Indexes[0])
		c.add(opSt1, r, slot, i, 0)
	case 2:
		i := c.idx(s.Indexes[0])
		j := c.idx(s.Indexes[1])
		c.add(opSt2, r, slot, i, j)
	default:
		panic("lang: compile: store rank > 2")
	}
}

func (c *comp) forLoop(s *ForLoop) {
	// Bounds are evaluated once, in the enclosing scope, and copied into
	// private registers: the body may assign the loop variable (or
	// whatever the bound expressions read) without perturbing the trip
	// count — exactly the walker's Go-loop semantics.
	lo, _ := c.expr(s.Lo)
	hi, _ := c.expr(s.Hi)
	cnt := c.tmpI()
	c.add(opMovI, cnt, lo, 0, 0)
	lim := c.tmpI()
	c.add(opMovI, lim, hi, 0, 0)

	v := c.reg(s.sym)

	exit := c.add(opJmpGtI, 0, cnt, lim, 0)
	head := len(c.code)
	c.barrier = head
	c.add(opMovI, v, cnt, 0, 0)
	c.stmts(s.Body)
	c.add(opNextI, int32(head), cnt, lim, 0)
	c.code[exit].a = int32(len(c.code))
	c.barrier = len(c.code)
}

func (c *comp) ifStmt(s *If) {
	cond, _ := c.expr(s.Cond)
	jf := c.add(opJmpIfNot, 0, cond, 0, 0)
	c.stmts(s.Then)
	if len(s.Else) > 0 {
		je := c.add(opJmp, 0, 0, 0, 0)
		c.code[jf].a = int32(len(c.code))
		c.barrier = len(c.code)
		c.stmts(s.Else)
		c.code[je].a = int32(len(c.code))
		c.barrier = len(c.code)
		return
	}
	c.code[jf].a = int32(len(c.code))
	c.barrier = len(c.code)
}

// ---- expressions -----------------------------------------------------

// expr compiles e and returns its value register and type.  Result
// registers must be treated as read-only by callers (they may be
// pinned locals or constants).
func (c *comp) expr(e Expr) (int32, BaseType) {
	switch e := e.(type) {
	case *IntLit:
		return c.constI(e.V), TInt
	case *RealLit:
		return c.constF(e.V), TReal
	case *BoolLit:
		return c.constI(b2i(e.V)), TBool
	case *Ident:
		return c.ident(e)
	case *ArrayRef:
		return c.arrayRef(e)
	case *Unary:
		if e.Op == KWNot {
			// The walker returns !v.b without charging a flop.
			r, _ := c.expr(e.X)
			d := c.tmpI()
			c.add(opNotB, d, r, 0, 0)
			return d, TBool
		}
		if c.foldable(e) {
			return c.fold(e)
		}
		r, t := c.expr(e.X)
		c.charge(1)
		if t == TInt {
			d := c.tmpI()
			c.add(opNegI, d, r, 0, 0)
			return d, TInt
		}
		d := c.tmpF()
		c.add(opNegF, d, r, 0, 0)
		return d, TReal
	case *Binary:
		if c.foldable(e) {
			return c.fold(e)
		}
		return c.binary(e)
	case *Call:
		if c.foldable(e) {
			return c.fold(e)
		}
		return c.call(e)
	default:
		panic(fmt.Sprintf("lang: compile: unknown expression %T", e))
	}
}

func (c *comp) ident(e *Ident) (int32, BaseType) {
	switch s := e.sym; {
	case s.local:
		return c.reg(s), s.typ
	case s.isConst():
		v := c.consts[s.index]
		if v.t == TReal {
			return c.constF(v.f), TReal
		}
		return c.constI(v.i), TInt
	default:
		return c.scalarReg(s), s.typ
	}
}

func (c *comp) binary(e *Binary) (int32, BaseType) {
	lr, lt := c.expr(e.L)
	rr, rt := c.expr(e.R)
	c.charge(1)
	switch e.Op {
	case PLUS, MINUS, STAR:
		if lt == TInt && rt == TInt {
			d := c.tmpI()
			switch e.Op {
			case PLUS:
				c.add(opAddI, d, lr, rr, 0)
			case MINUS:
				c.add(opSubI, d, lr, rr, 0)
			default:
				c.add(opMulI, d, lr, rr, 0)
			}
			return d, TInt
		}
		lf, rf := c.widen(lr, lt), c.widen(rr, rt)
		d := c.tmpF()
		switch e.Op {
		case PLUS:
			c.add(opAddF, d, lf, rf, 0)
		case MINUS:
			c.add(opSubF, d, lf, rf, 0)
		default:
			c.add(opMulF, d, lf, rf, 0)
		}
		return d, TReal
	case SLASH:
		d := c.tmpF()
		c.add(opDivF, d, c.widen(lr, lt), c.widen(rr, rt), 0)
		return d, TReal
	case KWDiv:
		d := c.tmpI()
		c.add(opDivI, d, lr, rr, 0)
		return d, TInt
	case KWMod:
		d := c.tmpI()
		c.add(opModI, d, lr, rr, 0)
		return d, TInt
	case EQ, NE:
		if lt == TBool {
			d := c.tmpI()
			if e.Op == EQ {
				c.add(opEqB, d, lr, rr, 0)
			} else {
				c.add(opNeB, d, lr, rr, 0)
			}
			return d, TBool
		}
		fallthrough
	case LT, LE, GT, GE:
		// The walker compares through asReal() — ints widen to float.
		lf, rf := c.widen(lr, lt), c.widen(rr, rt)
		d := c.tmpI()
		switch e.Op {
		case LT:
			c.add(opLtF, d, lf, rf, 0)
		case LE:
			c.add(opLeF, d, lf, rf, 0)
		case GT:
			c.add(opGtF, d, lf, rf, 0)
		case GE:
			c.add(opGeF, d, lf, rf, 0)
		case EQ:
			c.add(opEqF, d, lf, rf, 0)
		default:
			c.add(opNeF, d, lf, rf, 0)
		}
		return d, TBool
	case KWAnd:
		d := c.tmpI()
		c.add(opAndB, d, lr, rr, 0)
		return d, TBool
	case KWOr:
		d := c.tmpI()
		c.add(opOrB, d, lr, rr, 0)
		return d, TBool
	default:
		panic(fmt.Sprintf("lang: compile: bad operator %s", e.Op))
	}
}

func (c *comp) call(e *Call) (int32, BaseType) {
	regs := make([]int32, len(e.Args))
	types := make([]BaseType, len(e.Args))
	for k, a := range e.Args {
		regs[k], types[k] = c.expr(a)
	}
	c.charge(1) // every builtin charges one flop in the walker
	switch e.Name {
	case "abs":
		d := c.tmpF()
		c.add(opAbsF, d, c.widen(regs[0], types[0]), 0, 0)
		return d, TReal
	case "sqrt":
		d := c.tmpF()
		c.add(opSqrtF, d, c.widen(regs[0], types[0]), 0, 0)
		return d, TReal
	case "min":
		d := c.tmpF()
		c.add(opMinF, d, c.widen(regs[0], types[0]), c.widen(regs[1], types[1]), 0)
		return d, TReal
	case "max":
		d := c.tmpF()
		c.add(opMaxF, d, c.widen(regs[0], types[0]), c.widen(regs[1], types[1]), 0)
		return d, TReal
	case "float":
		return c.widen(regs[0], types[0]), TReal
	case "trunc":
		d := c.tmpI()
		c.add(opTruncI, d, c.widen(regs[0], types[0]), 0, 0)
		return d, TInt
	default:
		panic(fmt.Sprintf("lang: compile: unknown function %q", e.Name))
	}
}

// widen converts an int register to a fresh float register (no-op for
// reals).
func (c *comp) widen(r int32, t BaseType) int32 {
	if t == TReal {
		return r
	}
	d := c.tmpF()
	c.add(opIntToF, d, r, 0, 0)
	return d
}

// arrayRef compiles an array read, dispatching on the checker's access
// classification exactly as the walker does.
func (c *comp) arrayRef(e *ArrayRef) (int32, BaseType) {
	if e.sym.typ == TInt {
		slot := int32(e.slot)
		r := c.tmpI()
		switch len(e.Indexes) {
		case 1:
			c.add(opLdInt1, r, slot, c.idx(e.Indexes[0]), 0)
		case 2:
			i := c.idx(e.Indexes[0])
			j := c.idx(e.Indexes[1])
			c.add(opLdInt2, r, slot, i, j)
		default:
			panic("lang: compile: int read rank > 2")
		}
		return r, TInt
	}
	slot := int32(e.slot)
	r := c.tmpF()
	local := e.access == accReplicated || e.access == accAligned
	switch len(e.Indexes) {
	case 1:
		i := c.idx(e.Indexes[0])
		if local {
			c.add(opLdLoc1, r, slot, i, 0)
		} else {
			c.add(opLd1, r, slot, i, 0)
		}
	case 2:
		i := c.idx(e.Indexes[0])
		j := c.idx(e.Indexes[1])
		if local {
			c.add(opLdLoc2, r, slot, i, j)
		} else {
			c.add(opLd2, r, slot, i, j)
		}
	default:
		panic("lang: compile: read rank > 2")
	}
	return r, TReal
}

// idx compiles an integer subscript expression.  Affine forms a*v + k
// strength-reduce to one opLinI (or to nothing, for the identity
// subscript); the flops the walker would charge evaluating the original
// expression are still counted, preserving cost-model parity.
func (c *comp) idx(ix Expr) int32 {
	if reg, a, k, ok := c.affine(ix); ok {
		c.charge(flopCount(ix))
		if reg < 0 {
			return c.constI(k)
		}
		if a == 1 && k == 0 {
			return reg
		}
		d := c.tmpI()
		c.add(opLinI, d, reg, c.poolI(a), c.poolI(k))
		return d
	}
	r, _ := c.expr(ix)
	return r
}

// affine tries to express ix as a*reg + k over a single integer
// variable register (reg = -1 for pure constants).  Coefficient
// arithmetic wraps like the walker's run-time arithmetic.
func (c *comp) affine(ix Expr) (reg int32, a, k int, ok bool) {
	switch e := ix.(type) {
	case *IntLit:
		return -1, 0, e.V, true
	case *Ident:
		switch s := e.sym; {
		case s.isConst():
			v := c.consts[s.index]
			return -1, 0, v.i, v.t == TInt
		case s.typ != TInt:
			return -1, 0, 0, false
		case s.local:
			return c.reg(s), 1, 0, true
		default:
			return c.scalarReg(s), 1, 0, true
		}
	case *Unary:
		if e.Op != MINUS {
			return -1, 0, 0, false
		}
		r1, a1, k1, ok1 := c.affine(e.X)
		if !ok1 {
			return -1, 0, 0, false
		}
		return r1, -a1, -k1, true
	case *Binary:
		switch e.Op {
		case PLUS, MINUS:
			r1, a1, k1, ok1 := c.affine(e.L)
			r2, a2, k2, ok2 := c.affine(e.R)
			if !ok1 || !ok2 {
				return -1, 0, 0, false
			}
			if e.Op == MINUS {
				a2, k2 = -a2, -k2
			}
			switch {
			case r1 < 0:
				return r2, a2, k1 + k2, true
			case r2 < 0 || r1 == r2:
				return r1, a1 + a2, k1 + k2, true
			default:
				return -1, 0, 0, false // two distinct variables
			}
		case STAR:
			r1, a1, k1, ok1 := c.affine(e.L)
			r2, a2, k2, ok2 := c.affine(e.R)
			if !ok1 || !ok2 {
				return -1, 0, 0, false
			}
			switch {
			case r1 < 0:
				return r2, k1 * a2, k1 * k2, true
			case r2 < 0:
				return r1, k2 * a1, k2 * k1, true
			default:
				return -1, 0, 0, false
			}
		default:
			return -1, 0, 0, false
		}
	default:
		return -1, 0, 0, false
	}
}

// ---- constant folding ------------------------------------------------

// foldable reports whether e is entirely computable from literals and
// constants.
func (c *comp) foldable(e Expr) bool {
	switch e := e.(type) {
	case *IntLit, *RealLit:
		return true
	case *Ident:
		return e.sym.isConst()
	case *Unary:
		return e.Op == MINUS && c.foldable(e.X)
	case *Binary:
		switch e.Op {
		case PLUS, MINUS, STAR, SLASH, KWDiv, KWMod:
			return c.foldable(e.L) && c.foldable(e.R)
		}
		return false
	case *Call:
		// All six builtins are pure functions of their arguments.
		for _, a := range e.Args {
			if !c.foldable(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// fold evaluates a foldable subtree with the walker's own run-time
// arithmetic (wrapping ints, IEEE reals — not the checked constant
// evaluator, whose overflow diagnostics would change program behavior)
// and charges the flops the walker would have spent computing it.
func (c *comp) fold(e Expr) (int32, BaseType) {
	c.charge(flopCount(e))
	v := c.foldVal(e)
	if v.t == TReal {
		return c.constF(v.f), TReal
	}
	return c.constI(v.i), TInt
}

func (c *comp) foldVal(e Expr) value {
	switch e := e.(type) {
	case *IntLit:
		return intVal(e.V)
	case *RealLit:
		return realVal(e.V)
	case *Ident:
		return c.consts[e.sym.index]
	case *Unary:
		v := c.foldVal(e.X)
		if v.t == TInt {
			return intVal(-v.i)
		}
		return realVal(-v.f)
	case *Binary:
		return arith(e.Op, c.foldVal(e.L), c.foldVal(e.R))
	case *Call:
		args := make([]value, len(e.Args))
		for k, a := range e.Args {
			args[k] = c.foldVal(a)
		}
		// Mirrors the walker's builtin evaluation exactly.
		switch e.Name {
		case "abs":
			return realVal(math.Abs(args[0].asReal()))
		case "sqrt":
			return realVal(math.Sqrt(args[0].asReal()))
		case "min":
			return realVal(math.Min(args[0].asReal(), args[1].asReal()))
		case "max":
			return realVal(math.Max(args[0].asReal(), args[1].asReal()))
		case "float":
			return realVal(args[0].asReal())
		case "trunc":
			return intVal(int(args[0].asReal()))
		default:
			panic(fmt.Sprintf("lang: compile: unknown function %q", e.Name))
		}
	default:
		panic(fmt.Sprintf("lang: compile: fold of %T", e))
	}
}

// flopCount counts the Env.Flops(1) charges the walker makes
// evaluating e: one per binary operator, unary minus, and call ("not"
// is free).  Used for subtrees the compiler folds or strength-reduces,
// so elided host work still charges its modeled cost.
func flopCount(e Expr) int {
	n := 0
	walkExpr(e, func(x Expr) {
		switch x := x.(type) {
		case *Binary:
			n++
		case *Unary:
			if x.Op == MINUS {
				n++
			}
		case *Call:
			n++
		}
	})
	return n
}
