package lang

import (
	"fmt"
	"math"

	"kali/internal/darray"
	"kali/internal/forall"
)

// This file is the execution half of the forall-body bytecode pipeline
// (compile.go is the lowering half).  A compiled body is a flat
// instruction array over two typed register files — float64 registers
// for real values and int registers for integers and booleans (0/1) —
// with the node's array headers bound to numbered slots and every name
// bound to a register at compile time.  Executing one iteration walks the
// instruction array with no allocation, no map lookups, and no
// interface boxing; all distributed-memory semantics stay behind the
// same forall.Env calls the tree-walking interpreter uses, so the two
// paths are observably identical (same values, same machine.Stats,
// same schedules) — the VM only removes host-side interpretive
// overhead.
//
// Cost-model parity: the tree walker charges Env.Flops(1) per binary
// operator, unary minus, and builtin call as it evaluates, interleaved
// with its reads' memory-reference charges.  The compiler emits
// opFlops at those same AST positions — including for nodes it
// constant-folds or strength-reduces away — and the VM replays each
// opFlops k as k unit charges, reproducing the walker's exact charge
// sequence.  Simulated times and FlopCount match the walker
// bit-for-bit while the host does less work.

// opcode enumerates VM instructions.  Operand conventions: a is the
// destination register (or sole operand), b and c are sources, d is an
// extra source.  f[·] is the float file, n[·] the int file; booleans
// live in n as 0/1.
type opcode uint8

const (
	opRet      opcode = iota // return from the body
	opFlops                  // a × env.Flops(1): positioned cost-model charges
	opJmp                    // pc = a
	opJmpIfNot               // if n[b] == 0 → pc = a
	opJmpGtI                 // if n[b] > n[c] → pc = a (for-loop entry test)
	opNextI                  // n[b]++; if n[b] <= n[c] → pc = a (for-loop step)

	// opMovF through opMaxF are pure register arithmetic: no charge,
	// no control flow, no memory access.
	opMovF   // f[a] = f[b]
	opMovI   // n[a] = n[b]
	opIntToF // f[a] = float64(n[b])
	opTruncI // n[a] = int(f[b])

	opNegF // f[a] = -f[b]
	opNegI // n[a] = -n[b]
	opAddF // f[a] = f[b] + f[c]
	opSubF
	opMulF
	opDivF
	opAddI // n[a] = n[b] + n[c]
	opSubI
	opMulI
	opDivI
	opModI
	opLinI // n[a] = n[b]*constI[c] + constI[d] (strength-reduced affine subscript)

	opLtF // n[a] = b2i(f[b] < f[c]) — ints widen first, matching the walker's float compares
	opLeF
	opGtF
	opGeF
	opEqF
	opNeF
	opEqB  // n[a] = b2i(n[b] == n[c])
	opNeB  // n[a] = b2i(n[b] != n[c])
	opAndB // n[a] = n[b] & n[c] (operands are 0/1; both sides always evaluated, like the walker)
	opOrB  // n[a] = n[b] | n[c]
	opNotB // n[a] = 1 - n[b]

	opAbsF  // f[a] = math.Abs(f[b])
	opSqrtF // f[a] = math.Sqrt(f[b])
	opMinF  // f[a] = math.Min(f[b], f[c])
	opMaxF  // f[a] = math.Max(f[b], f[c])

	opLdLoc1 // f[a] = env.ReadLocal(reals[b], n[c]) — compiler-proven local / replicated
	opLdLoc2 // f[a] = env.ReadLocal2(reals[b], n[c], n[d])
	opLd1    // f[a] = env.Read(reals[b], n[c]) — affine/indirect schedule path
	opLd2    // f[a] = env.Read2(reals[b], n[c], n[d])
	opLdInt1 // n[a] = env.ReadInt(ints[b], n[c])
	opLdInt2 // n[a] = env.ReadInt2(ints[b], n[c], n[d])
	opSt1    // env.Write(reals[b], n[c], f[a]) — owner-computes, bounds-checked
	opSt2    // env.Write2(reals[b], n[c], n[d], f[a])
)

// pure reports whether op only computes on registers (see opMovF).
func (op opcode) pure() bool { return op >= opMovF && op <= opMaxF }

// instr is one VM instruction.
type instr struct {
	op         opcode
	a, b, c, d int32
}

// fInit / iInit preset a pinned register at vmState creation (constant
// pools live in registers, loaded once per node instead of once per
// element).
type fInit struct {
	reg int32
	v   float64
}
type iInit struct {
	reg int32
	v   int
}

// scalarInput binds a global scalar (immutable within one forall
// execution — the checker forbids assigning globals inside bodies) to
// a pinned register; execForall refreshes the values at each launch.
type scalarInput struct {
	sym *symbol
	reg int32
}

// vmArraySlot describes one bound real array: its symbol (selecting
// the node's header when the vmState is created) and its first
// dimension's extent, which bounds-checks rank-1 stores.
type vmArraySlot struct {
	sym *symbol
	n   int
}

// compiledBody is the immutable output of compileBody, shared by every
// node's vmState.
type compiledBody struct {
	name string
	rank int // 1 or 2 index variables
	code []instr

	nF, nI     int32 // register file sizes
	iReg, jReg int32 // index-variable registers

	initF  []fInit
	initI  []iInit
	constI []int // pool for opLinI coefficients

	scalars []scalarInput
	reals   []vmArraySlot
	ints    []*symbol
}

// vmState is one node's execution state for one compiled body: the
// register files and the resolved array headers.  Created once per
// forall per node; reused across sweeps with zero allocation.
type vmState struct {
	cb *compiledBody
	f  []float64
	n  []int
	ra []*darray.Array
	ia []*darray.IntArray
}

func newVMState(cb *compiledBody, in *interp) *vmState {
	st := &vmState{
		cb: cb,
		f:  make([]float64, cb.nF),
		n:  make([]int, cb.nI),
	}
	for _, c := range cb.initF {
		st.f[c.reg] = c.v
	}
	for _, c := range cb.initI {
		st.n[c.reg] = c.v
	}
	st.ra = make([]*darray.Array, len(cb.reals))
	for k, s := range cb.reals {
		st.ra[k] = in.arrays[s.sym.index]
	}
	st.ia = make([]*darray.IntArray, len(cb.ints))
	for k, s := range cb.ints {
		st.ia[k] = in.ints[s.index]
	}
	return st
}

// bindScalars refreshes the global-scalar input registers from the
// interpreter's current values.  Called once per forall launch (the
// values cannot change mid-loop).
func (st *vmState) bindScalars(in *interp) {
	for _, s := range st.cb.scalars {
		v := in.scalars[s.sym.index]
		switch s.sym.typ {
		case TReal:
			st.f[s.reg] = v.f
		case TInt:
			st.n[s.reg] = v.i
		default:
			st.n[s.reg] = b2i(v.b)
		}
	}
}

// body1 / body2 are the forall.Loop body entry points (method values,
// bound once when the loop is built).
func (st *vmState) body1(i int, env *forall.Env) { st.exec(i, 0, env) }

func (st *vmState) body2(i, j int, env *forall.Env) { st.exec(i, j, env) }

// exec runs the compiled body for one iteration.
func (st *vmState) exec(i, j int, env *forall.Env) {
	cb := st.cb
	f, n := st.f, st.n
	n[cb.iReg] = i
	if cb.rank == 2 {
		n[cb.jReg] = j
	}
	code := cb.code
	for pc := 0; ; {
		ins := &code[pc]
		pc++
		switch ins.op {
		case opRet:
			return
		case opFlops:
			// Replayed as unit charges: the walker calls Flops(1) per
			// operator, and the simulated clock is a float accumulator,
			// so both the unit size and the order of charges are
			// observable.  One opFlops k == k adjacent walker charges;
			// FlopsUnit performs exactly those k unit advances.
			env.FlopsUnit(int(ins.a))
		case opJmp:
			pc = int(ins.a)
		case opJmpIfNot:
			if n[ins.b] == 0 {
				pc = int(ins.a)
			}
		case opJmpGtI:
			if n[ins.b] > n[ins.c] {
				pc = int(ins.a)
			}
		case opNextI:
			if n[ins.b]++; n[ins.b] <= n[ins.c] {
				pc = int(ins.a)
			}

		case opMovF:
			f[ins.a] = f[ins.b]
		case opMovI:
			n[ins.a] = n[ins.b]
		case opIntToF:
			f[ins.a] = float64(n[ins.b])
		case opTruncI:
			n[ins.a] = int(f[ins.b])

		case opNegF:
			f[ins.a] = -f[ins.b]
		case opNegI:
			n[ins.a] = -n[ins.b]
		case opAddF:
			f[ins.a] = f[ins.b] + f[ins.c]
		case opSubF:
			f[ins.a] = f[ins.b] - f[ins.c]
		case opMulF:
			f[ins.a] = f[ins.b] * f[ins.c]
		case opDivF:
			f[ins.a] = f[ins.b] / f[ins.c]
		case opAddI:
			n[ins.a] = n[ins.b] + n[ins.c]
		case opSubI:
			n[ins.a] = n[ins.b] - n[ins.c]
		case opMulI:
			n[ins.a] = n[ins.b] * n[ins.c]
		case opDivI:
			n[ins.a] = n[ins.b] / n[ins.c]
		case opModI:
			n[ins.a] = n[ins.b] % n[ins.c]
		case opLinI:
			n[ins.a] = n[ins.b]*cb.constI[ins.c] + cb.constI[ins.d]

		case opLtF:
			n[ins.a] = b2i(f[ins.b] < f[ins.c])
		case opLeF:
			n[ins.a] = b2i(f[ins.b] <= f[ins.c])
		case opGtF:
			n[ins.a] = b2i(f[ins.b] > f[ins.c])
		case opGeF:
			n[ins.a] = b2i(f[ins.b] >= f[ins.c])
		case opEqF:
			n[ins.a] = b2i(f[ins.b] == f[ins.c])
		case opNeF:
			n[ins.a] = b2i(f[ins.b] != f[ins.c])
		case opEqB:
			n[ins.a] = b2i(n[ins.b] == n[ins.c])
		case opNeB:
			n[ins.a] = b2i(n[ins.b] != n[ins.c])
		case opAndB:
			n[ins.a] = n[ins.b] & n[ins.c]
		case opOrB:
			n[ins.a] = n[ins.b] | n[ins.c]
		case opNotB:
			n[ins.a] = 1 - n[ins.b]

		case opAbsF:
			f[ins.a] = math.Abs(f[ins.b])
		case opSqrtF:
			f[ins.a] = math.Sqrt(f[ins.b])
		case opMinF:
			f[ins.a] = math.Min(f[ins.b], f[ins.c])
		case opMaxF:
			f[ins.a] = math.Max(f[ins.b], f[ins.c])

		case opLdLoc1:
			f[ins.a] = env.ReadLocal(st.ra[ins.b], n[ins.c])
		case opLdLoc2:
			f[ins.a] = env.ReadLocal2(st.ra[ins.b], n[ins.c], n[ins.d])
		case opLd1:
			f[ins.a] = env.Read(st.ra[ins.b], n[ins.c])
		case opLd2:
			f[ins.a] = env.Read2(st.ra[ins.b], n[ins.c], n[ins.d])
		case opLdInt1:
			n[ins.a] = env.ReadInt(st.ia[ins.b], n[ins.c])
		case opLdInt2:
			n[ins.a] = env.ReadInt2(st.ia[ins.b], n[ins.c], n[ins.d])
		case opSt1:
			env.Write(st.ra[ins.b], st.lin1(ins.b, n[ins.c]), f[ins.a])
		case opSt2:
			env.Write2(st.ra[ins.b], n[ins.c], n[ins.d], f[ins.a])

		default:
			panic(fmt.Sprintf("lang: vm: bad opcode %d", ins.op))
		}
	}
}

// lin1 bounds-checks a rank-1 store coordinate (matching
// darray.linearize, which the walker reaches through Array.Linear).
func (st *vmState) lin1(slot int32, i int) int {
	if n := st.cb.reals[slot].n; i < 1 || i > n {
		panic(fmt.Sprintf("darray: coordinate %d out of [1..%d] in dim 0", i, n))
	}
	return i
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
