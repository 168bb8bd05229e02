package lang

import (
	"fmt"
	"slices"
)

// symKind classifies a declared name.
type symKind int

const (
	symConst    symKind = iota // a const declaration
	symProcSize                // the P of the processors declaration
	symVar                     // a scalar variable
	symArray                   // an array, replicated or distributed
)

// symbol is the one resolved binding of a name.  Check creates every
// symbol and binds each name in the AST to one; elaboration, the
// bytecode compiler and the tree walker index their tables by symbol
// and never look a name up again.  Symbols are immutable once Check
// returns, so one checked program may run on many goroutines at once.
type symbol struct {
	name string
	kind symKind
	typ  BaseType
	decl *VarDecl // arrays: the declaration (shape, distribution)
	// index is the symbol's slot in the table its kind selects:
	// constants and P in the elaborated constant table, global scalars
	// in the walker's scalar table, arrays in its array tables, and
	// locals in the forall's per-iteration frame.  A map clause's bound
	// variable has no slot; the constant evaluator binds it directly.
	index int
	local bool
	// redist marks an array some redistribute statement rebinds.  It
	// loses the compiler-proven "aligned" shortcut: alignment was proved
	// against the declared distribution, which a redistribute statement
	// invalidates at run time, so its reads take the schedule paths that
	// consult the live distribution instead.
	redist bool
}

// isConst reports whether s is an elaboration-time constant (a const
// or P).
func (s *symbol) isConst() bool {
	return s != nil && (s.kind == symConst || s.kind == symProcSize)
}

// checker resolves names, performs semantic analysis, and performs the
// subscript classification of paper §3: each distributed-array
// reference in a forall is proved affine (compile-time analyzable) or
// marked indirect (inspector).
type checker struct {
	file    *File
	globals map[string]*symbol
}

// scope is a local name space: a forall's index variables, body locals
// and inner for variables, or a map clause's bound variable.  Top-level
// code runs with a nil scope and resolves in the globals.
type scope struct {
	names map[string]*symbol
	fa    *Forall // the forall whose frame holds the locals
}

// lookup resolves name in sc, then in the globals.
func (c *checker) lookup(name string, sc *scope) *symbol {
	if sc != nil {
		if s, ok := sc.names[name]; ok {
			return s
		}
	}
	return c.globals[name]
}

// global declares a program-level name, numbering it in its table.
func (c *checker) global(name string, kind symKind, t BaseType, d *VarDecl) *symbol {
	s := &symbol{name: name, kind: kind, typ: t, decl: d}
	switch kind {
	case symConst, symProcSize:
		s.index = c.file.nConsts
		c.file.nConsts++
	case symVar:
		s.index = c.file.nScalars
		c.file.nScalars++
	default:
		s.index = c.file.nArrays
		c.file.nArrays++
	}
	c.globals[name] = s
	return s
}

// local declares a name in the frame of sc's forall.
func (sc *scope) local(name string, t BaseType) *symbol {
	s := &symbol{name: name, kind: symVar, typ: t, index: sc.fa.nLocals, local: true}
	sc.fa.nLocals++
	sc.names[name] = s
	return s
}

// Check resolves every name of a parsed File, validates it, and
// annotates its foralls.
func Check(f *File) error {
	if f.Procs == nil {
		return errf(1, 1, "program lacks a processors declaration")
	}
	c := &checker{file: f, globals: map[string]*symbol{}}
	if f.Procs.SizeVar != "" {
		f.Procs.sym = c.global(f.Procs.SizeVar, symProcSize, TInt, nil)
	}
	for _, d := range f.Consts {
		if _, dup := c.globals[d.Name]; dup {
			return errf(d.Line, 1, "duplicate declaration of %q", d.Name)
		}
		t, err := c.typeOf(d.X, nil)
		if err != nil {
			return err
		}
		if t == TBool {
			return errf(d.Line, 1, "boolean constants are not supported")
		}
		if !isConstExpr(d.X) {
			return errf(d.Line, 1, "const %q is not a constant expression", d.Name)
		}
		d.sym = c.global(d.Name, symConst, t, nil)
	}
	for _, d := range f.Vars {
		d.syms = make([]*symbol, len(d.Names))
		for k, name := range d.Names {
			if _, dup := c.globals[name]; dup {
				return errf(d.Line, 1, "duplicate declaration of %q", name)
			}
			if len(d.Dims) == 0 {
				d.syms[k] = c.global(name, symVar, d.Elem, nil)
				continue
			}
			if d.Dist != nil {
				if len(d.Dist) != len(d.Dims) {
					return errf(d.Line, 1, "%q: %d dist items for %d dimensions", name, len(d.Dist), len(d.Dims))
				}
				if d.OnTo != "" && d.OnTo != f.Procs.Name {
					return errf(d.Line, 1, "%q: unknown processor array %q", name, d.OnTo)
				}
				if d.Elem == TBool {
					return errf(d.Line, 1, "%q: distributed boolean arrays are not supported", name)
				}
				if err := c.distItems(d.Line, name, d.Dist); err != nil {
					return err
				}
			}
			for _, dim := range d.Dims {
				for _, b := range []Expr{dim.Lo, dim.Hi} {
					c.bind(b, nil)
					if !isConstExpr(b) {
						return errf(d.Line, 1, "%q: array bounds must be constant expressions", name)
					}
				}
			}
			d.syms[k] = c.global(name, symArray, d.Elem, d)
		}
	}
	c.markRedist(f.Main)
	if err := c.stmts(f.Main, nil); err != nil {
		return err
	}
	// Evaluate P-independent constants now (cached on the AST), so
	// overflow and division-by-zero surface as positioned compile-time
	// diagnostics rather than run-time panics.
	pDep, err := foldConsts(f)
	if err != nil {
		return err
	}
	// The processor bounds are evaluated before P is chosen, so they may
	// use only the constants folded above.
	for _, e := range []Expr{f.Procs.Size, f.Procs.Size2, f.Procs.MinP, f.Procs.MaxP} {
		if e == nil {
			continue
		}
		c.bind(e, nil)
		if !isConstExpr(e) || dependsOn(e, pDep) {
			return errf(f.Procs.Line, 1, "processor bounds must be constant expressions that do not depend on the processor count")
		}
	}
	return nil
}

// distributed reports whether an array declaration has a dist clause.
func distributed(d *VarDecl) bool { return d.Dist != nil }

// stmts checks a statement list.  sc is the enclosing forall's scope,
// nil at top level; sequential for/if bodies nested in a forall share
// it.
func (c *checker) stmts(ss []Stmt, sc *scope) error {
	for _, s := range ss {
		if err := c.stmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt, sc *scope) error {
	switch s := s.(type) {
	case *Assign:
		return c.assign(s, sc)
	case *Forall:
		if sc != nil {
			return errf(s.Line, 1, "nested forall loops are not supported")
		}
		return c.forall(s)
	case *ForLoop:
		return c.forLoop(s, sc)
	case *While:
		if sc != nil {
			return errf(s.Line, 1, "while inside forall is not supported")
		}
		t, err := c.typeOf(s.Cond, sc)
		if err != nil {
			return err
		}
		if t != TBool {
			return errf(s.Line, 1, "while condition must be boolean")
		}
		return c.stmts(s.Body, sc)
	case *If:
		t, err := c.typeOf(s.Cond, sc)
		if err != nil {
			return err
		}
		if t != TBool {
			return errf(s.Line, 1, "if condition must be boolean")
		}
		if err := c.stmts(s.Then, sc); err != nil {
			return err
		}
		return c.stmts(s.Else, sc)
	case *Reduce:
		if sc != nil {
			return errf(s.Line, 1, "reduce inside forall is not supported")
		}
		return c.reduce(s)
	case *Redistribute:
		if sc != nil {
			return errf(s.Line, 1, "redistribute inside forall is not supported")
		}
		return c.redistribute(s)
	default:
		return fmt.Errorf("lang: unknown statement %T", s)
	}
}

// forLoop checks a sequential for.  Pascal style: the loop variable may
// be a declared integer scalar (inside a forall, an integer local);
// otherwise the loop declares it for its body.  The bounds are
// evaluated once, before the variable is bound, so they resolve in the
// enclosing scope.
func (c *checker) forLoop(s *ForLoop, sc *scope) error {
	var v *symbol
	if sc != nil {
		if v = sc.names[s.Var]; v != nil && v.typ != TInt {
			return errf(s.Line, 1, "loop variable %q is not an integer", s.Var)
		}
	} else if v = c.globals[s.Var]; v != nil && (v.kind != symVar || v.typ != TInt) {
		return errf(s.Line, 1, "loop variable %q is not an integer scalar", s.Var)
	}
	for _, b := range []Expr{s.Lo, s.Hi} {
		t, err := c.typeOf(b, sc)
		if err != nil {
			return err
		}
		if t != TInt {
			return errf(s.Line, 1, "for bounds must be integers")
		}
	}
	switch {
	case v != nil:
	case sc != nil:
		v = sc.local(s.Var, TInt)
		defer delete(sc.names, s.Var)
	default:
		v = c.global(s.Var, symVar, TInt, nil)
		defer delete(c.globals, s.Var)
	}
	s.sym = v
	return c.stmts(s.Body, sc)
}

// redistribute checks a "redistribute name as [items]" statement: the
// target must be a distributed real array, the item list must match
// its rank, and the items must obey the same constraints a
// declaration's dist clause does.
func (c *checker) redistribute(s *Redistribute) error {
	sym := c.globals[s.Name]
	if sym == nil || sym.kind != symArray || !distributed(sym.decl) || sym.typ != TReal {
		return errf(s.Line, 1, "redistribute target %q must be a distributed real array", s.Name)
	}
	if len(s.Items) != len(sym.decl.Dims) {
		return errf(s.Line, 1, "%q: %d dist items for %d dimensions", s.Name, len(s.Items), len(sym.decl.Dims))
	}
	s.sym = sym
	return c.distItems(s.Line, s.Name, s.Items)
}

// distItems validates one dist-clause item list — shared by array
// declarations and redistribute statements.  Map owner expressions are
// evaluated per index at elaboration time, so they may use only
// constants, P, and the bound index variable; block_cyclic sizes must
// be constant; and the number of distributed (non-*) dimensions must
// match the processor array's rank (§2.2).
func (c *checker) distItems(line int, name string, items []DistItem) error {
	nd := 0
	for k, item := range items {
		switch item.Kind {
		case STAR:
			continue
		case KWBlockCyclic:
			c.bind(item.Block, nil)
			if !isConstExpr(item.Block) {
				return errf(line, 1, "%q: block_cyclic size must be a constant expression", name)
			}
		case KWMap:
			v := &symbol{name: item.MapVar, kind: symVar, typ: TInt, local: true}
			items[k].mapSym = v
			t, err := c.typeOf(item.MapExpr, &scope{names: map[string]*symbol{item.MapVar: v}})
			if err != nil {
				return err
			}
			if t != TInt {
				return errf(line, 1, "%q: map owner expression must be an integer", name)
			}
			if !constWith(item.MapExpr, v) {
				return errf(line, 1, "%q: map owner expression must be computable from constants, P, and %q",
					name, item.MapVar)
			}
		}
		nd++
	}
	procRank := 1
	if c.file.Procs.Rank2() {
		procRank = 2
	}
	if nd != procRank {
		return errf(line, 1, "%q: %d distributed dimensions but processor array has rank %d",
			name, nd, procRank)
	}
	return nil
}

// markRedist flags every array a redistribute statement names,
// recursing through every statement list (foralls included — a
// redistribute in one is an error, but the classification pass runs
// regardless).
func (c *checker) markRedist(ss []Stmt) {
	for _, s := range ss {
		switch s := s.(type) {
		case *Redistribute:
			if sym := c.globals[s.Name]; sym != nil {
				sym.redist = true
			}
		case *Forall:
			c.markRedist(s.Body)
		case *ForLoop:
			c.markRedist(s.Body)
		case *While:
			c.markRedist(s.Body)
		case *If:
			c.markRedist(s.Then)
			c.markRedist(s.Else)
		}
	}
}

func (c *checker) reduce(s *Reduce) error {
	sym := c.globals[s.Into]
	if sym == nil || sym.kind != symVar || sym.typ != TReal {
		return errf(s.Line, 1, "reduce target %q must be a real scalar", s.Into)
	}
	wantArgs := map[string]int{"maxdiff": 2, "sum": 1, "max": 1, "min": 1}
	n, ok := wantArgs[s.Op]
	if !ok {
		return errf(s.Line, 1, "unknown reduction %q (maxdiff, sum, max, min)", s.Op)
	}
	if len(s.Args) != n {
		return errf(s.Line, 1, "reduce %s takes %d array(s)", s.Op, n)
	}
	s.intoSym, s.argSyms = sym, make([]*symbol, n)
	for k, a := range s.Args {
		as := c.globals[a]
		if as == nil || as.kind != symArray || as.typ != TReal || !distributed(as.decl) {
			return errf(s.Line, 1, "reduce argument %q must be a distributed real array", a)
		}
		s.argSyms[k] = as
	}
	return nil
}

func (c *checker) assign(s *Assign, sc *scope) error {
	sym := c.lookup(s.Name, sc)
	if sym == nil {
		return errf(s.Line, 1, "undeclared name %q", s.Name)
	}
	s.sym = sym
	switch sym.kind {
	case symConst, symProcSize:
		return errf(s.Line, 1, "cannot assign to constant %q", s.Name)
	case symVar:
		if len(s.Indexes) != 0 {
			return errf(s.Line, 1, "%q is a scalar", s.Name)
		}
		if sc != nil && !sym.local {
			return errf(s.Line, 1, "assignment to global scalar %q inside forall", s.Name)
		}
		return c.checkAssignable(s, sym.typ, sc)
	}
	d := sym.decl
	if len(s.Indexes) != len(d.Dims) {
		return errf(s.Line, 1, "%q has %d dimensions, %d indexes given", s.Name, len(d.Dims), len(s.Indexes))
	}
	for _, ix := range s.Indexes {
		t, err := c.typeOf(ix, sc)
		if err != nil {
			return err
		}
		if t != TInt {
			return errf(s.Line, 1, "array index must be an integer")
		}
	}
	if sc != nil {
		// Inside a forall: owner-computes writes, reals only.
		if !distributed(d) {
			return errf(s.Line, 1, "write to replicated array %q inside forall", s.Name)
		}
		if d.Elem != TReal {
			return errf(s.Line, 1, "only real arrays may be written inside forall")
		}
		fa := sc.fa
		if !slices.Contains(fa.writes, sym) {
			fa.writes = append(fa.writes, sym)
		}
		s.slot = slotOf(&fa.reals, sym)
	}
	return c.checkAssignable(s, d.Elem, sc)
}

func (c *checker) checkAssignable(s *Assign, want BaseType, sc *scope) error {
	t, err := c.typeOf(s.X, sc)
	if err != nil {
		return err
	}
	if want == t {
		return nil
	}
	if want == TReal && t == TInt { // implicit widening
		return nil
	}
	return errf(s.Line, 1, "cannot assign %s to %s", t, want)
}

// forall checks the loop and performs subscript classification.  The
// index variables open the forall's scope; the on-clause subscripts
// resolve there before any body local is declared, and the bounds
// resolve in the enclosing scope — the two places elaboration evaluates
// them.
func (c *checker) forall(fa *Forall) error {
	rank := 1
	if fa.Var2 != "" {
		rank = 2
		if !c.file.Procs.Rank2() {
			return errf(fa.Line, 1, "two-index forall needs a 2-D processor array")
		}
	} else if fa.OnIndex2 != nil {
		return errf(fa.Line, 1, "two on-clause subscripts need a two-index forall")
	}
	onSym := c.globals[fa.OnArray]
	if onSym == nil || onSym.kind != symArray || !distributed(onSym.decl) || len(onSym.decl.Dims) != rank {
		dims := "one"
		if rank == 2 {
			dims = "two"
		}
		return errf(fa.Line, 1, "on clause needs a distributed %s-dimensional array, got %q", dims, fa.OnArray)
	}
	fa.onSym = onSym
	sc := &scope{names: map[string]*symbol{}, fa: fa}
	fa.vars[0] = sc.local(fa.Var, TInt)
	onIndex := []Expr{fa.OnIndex}
	if rank == 2 {
		if fa.OnIndex2 == nil {
			return errf(fa.Line, 1, "2-D on clause needs two subscripts")
		}
		if fa.Var == fa.Var2 {
			return errf(fa.Line, 1, "forall index variables must differ")
		}
		fa.vars[1] = sc.local(fa.Var2, TInt)
		onIndex = append(onIndex, fa.OnIndex2)
	}
	for _, e := range onIndex {
		c.bind(e, sc)
	}
	// Locals may shadow global scalars (each iteration has its own copy,
	// Figure 4 style), but not arrays — an ArrayRef to the name would
	// silently change meaning.
	for _, d := range fa.Decls {
		if _, dup := sc.names[d.Name]; dup {
			return errf(d.Line, 1, "duplicate forall local %q", d.Name)
		}
		if s := c.globals[d.Name]; s != nil && s.kind == symArray {
			return errf(d.Line, 1, "forall local %q shadows an array", d.Name)
		}
		d.sym = sc.local(d.Name, d.Type)
	}
	for _, b := range []Expr{fa.Lo, fa.Hi, fa.Lo2, fa.Hi2}[:2*rank] {
		t, err := c.typeOf(b, nil)
		if err != nil {
			return err
		}
		if t != TInt {
			return errf(fa.Line, 1, "forall bounds must be integers")
		}
	}
	// Each on-clause subscript must be affine in its own index variable.
	// In a two-index forall the coefficient must be nonzero: the first
	// subscript may mention only the first variable, the second only the
	// second (cross-variable forms are not affine in their own variable,
	// because loop variables are not constants).
	for k, e := range onIndex {
		on, ok := affineOf(e, fa.vars[k])
		if !ok || (rank == 2 && on.a == nil) {
			return errf(fa.Line, 1, "on clause subscript must be affine in %q", fa.vars[k].name)
		}
		fa.on[k] = on
	}
	for _, e := range onIndex {
		if t, err := c.exprType(e, sc); err != nil {
			return err
		} else if t != TInt {
			return errf(fa.Line, 1, "on clause subscript must be an integer")
		}
	}
	if err := c.stmts(fa.Body, sc); err != nil {
		return err
	}
	return classify(fa)
}

// slotOf returns s's index in a forall's slot table, appending it on
// first use.
func slotOf(table *[]*symbol, s *symbol) int {
	if k := slices.Index(*table, s); k >= 0 {
		return k
	}
	*table = append(*table, s)
	return len(*table) - 1
}

// classify walks the forall body annotating ArrayRef reads, numbering
// their slots, and collecting the loop's read slots and dependencies.
// Replicated arrays are plain local reads and integer arrays travel
// with the loop.  In a one-index forall a rank-1 affine read gets a
// compile-time schedule and a rank-2 read aligned with the on clause is
// local.  In a two-index forall, aligned [i,j] accesses under an
// identity on clause are local, and reads whose subscripts are
// per-dimension affine — X[aI*i+cI, aJ*j+cJ] — get compile-time
// schedules from the rank-2 closed forms.  Everything else uses the
// inspector.
func classify(fa *Forall) error {
	i, j := fa.vars[0], fa.vars[1]
	isVar := func(e Expr, v *symbol) bool {
		id, ok := e.(*Ident)
		return ok && id.sym == v
	}
	// The aligned local shortcut is sound only when placement is the
	// identity "on A[i].loc" / "on A[i,j].loc"; under a shifted/strided
	// on clause even an identically-subscripted read of the on array
	// itself can be remote, so it must take the schedule paths.  Arrays
	// the program redistributes (or placement arrays that move) lose the
	// shortcut as well: alignment held for the declared layouts only.
	onIdentity := isVar(fa.OnIndex, i) && (j == nil || isVar(fa.OnIndex2, j)) && !fa.onSym.redist
	var err error
	walkStmts(fa.Body, func(e Expr) {
		ref, ok := e.(*ArrayRef)
		if err != nil || !ok || ref.sym == nil || ref.sym.kind != symArray {
			return // a non-array was already diagnosed by type checking
		}
		a, d := ref.sym, ref.sym.decl
		if d.Elem == TInt {
			ref.slot = slotOf(&fa.ints, a)
			ref.access = accReplicated
			if distributed(d) {
				// Subscript arrays travel with the loop (aligned); their
				// contents drive the reference pattern.
				ref.access = accAligned
				if !slices.Contains(fa.deps, a) {
					fa.deps = append(fa.deps, a)
				}
			}
			return
		}
		ref.slot = slotOf(&fa.reals, a)
		aligned := onIdentity && !a.redist && isVar(ref.Indexes[0], i)
		switch {
		case !distributed(d):
			ref.access = accReplicated
			return
		case j != nil && len(d.Dims) == 2:
			// The [i,j] shortcut is provably local only when the read
			// array shares the on array's declaration (hence its dist
			// clause); an identically-subscripted array with a different
			// distribution goes through the affine path, which derives
			// whatever communication the mismatch needs.
			if aligned && isVar(ref.Indexes[1], j) && d == fa.onSym.decl {
				ref.access = accAligned
				return
			}
			formI, okI := affineOf(ref.Indexes[0], i)
			formJ, okJ := affineOf(ref.Indexes[1], j)
			if okI && okJ {
				ref.access = accAffine
				fa.reads = append(fa.reads, &readInfo{array: a, affine2: true, i: formI, j: formJ})
				return
			}
		case j == nil && len(d.Dims) == 1:
			if form, ok := affineOf(ref.Indexes[0], i); ok {
				ref.access = accAffine
				fa.reads = append(fa.reads, &readInfo{array: a, affine: true, i: form})
				return
			}
		case j == nil && len(d.Dims) == 2:
			// Aligned rank-2 read: the first subscript is exactly the
			// loop variable and so is the on-clause subscript.
			if aligned {
				ref.access = accAligned
				return
			}
		case j == nil:
			err = errf(ref.Line, 1, "arrays of rank > 2 are not supported in foralls")
			return
		}
		ref.access = accIndirect
		if !slices.ContainsFunc(fa.reads, func(ri *readInfo) bool {
			return ri.array == a && !ri.affine && !ri.affine2
		}) {
			fa.reads = append(fa.reads, &readInfo{array: a})
		}
	})
	return err
}

// affineOf tries to express e as a*v + c for the index variable v,
// with loop-invariant constant expressions a and c (nil meaning 0).
func affineOf(e Expr, v *symbol) (affineForm, bool) {
	switch e := e.(type) {
	case *Ident:
		if e.sym == v {
			return affineForm{a: &IntLit{V: 1, Line: e.Line}}, true
		}
	case *Unary:
		if e.Op == MINUS {
			if f, ok := affineOf(e.X, v); ok {
				return affineForm{negExpr(f.a), negExpr(f.c)}, true
			}
		}
	case *Binary:
		switch e.Op {
		case PLUS, MINUS:
			l, ok1 := affineOf(e.L, v)
			r, ok2 := affineOf(e.R, v)
			if ok1 && ok2 {
				if e.Op == MINUS {
					r = affineForm{negExpr(r.a), negExpr(r.c)}
				}
				return affineForm{addExprs(l.a, r.a), addExprs(l.c, r.c)}, true
			}
		case STAR:
			// const * linear or linear * const
			if isConstExpr(e.L) {
				if r, ok := affineOf(e.R, v); ok {
					return affineForm{mulExprs(e.L, r.a), mulExprs(e.L, r.c)}, true
				}
			} else if isConstExpr(e.R) {
				if l, ok := affineOf(e.L, v); ok {
					return affineForm{mulExprs(e.R, l.a), mulExprs(e.R, l.c)}, true
				}
			}
		}
	}
	// Anything else is affine only as a constant (and a form that failed
	// above never is one).
	if isConstExpr(e) {
		return affineForm{c: e}, true
	}
	return affineForm{}, false
}

func negExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	return &Unary{Op: MINUS, X: e}
}

func addExprs(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &Binary{Op: PLUS, L: a, R: b}
}

func mulExprs(k, e Expr) Expr {
	if e == nil {
		return nil
	}
	return &Binary{Op: STAR, L: k, R: e}
}

// constWith is isConstExpr extended with one bound integer variable
// (the index of a map dist clause), restricted to the integer forms
// the elaboration evaluator computes: literals, consts, P, the bound
// variable, unary minus, and +, -, *, div, mod.
func constWith(e Expr, v *symbol) bool {
	switch e := e.(type) {
	case *IntLit:
		return true
	case *Ident:
		return e.sym == v || e.sym.isConst()
	case *Unary:
		return e.Op == MINUS && constWith(e.X, v)
	case *Binary:
		switch e.Op {
		case PLUS, MINUS, STAR, KWDiv, KWMod:
			return constWith(e.L, v) && constWith(e.R, v)
		}
		return false
	default:
		return false
	}
}

// isConstExpr reports whether e is evaluable at elaboration time:
// literals, consts, P, and arithmetic over them.
func isConstExpr(e Expr) bool {
	switch e := e.(type) {
	case *IntLit, *RealLit:
		return true
	case *Ident:
		return e.sym.isConst()
	case *Unary:
		return e.Op == MINUS && isConstExpr(e.X)
	case *Binary:
		switch e.Op {
		case PLUS, MINUS, STAR, SLASH, KWDiv, KWMod:
			return isConstExpr(e.L) && isConstExpr(e.R)
		}
		return false
	default:
		return false
	}
}

// bind is the resolver: it binds every name in e to its symbol in
// scope sc (nil when undeclared, which exprType reports).  Arrays are
// always global, so array references resolve in the global table.
func (c *checker) bind(e Expr, sc *scope) {
	walkExpr(e, func(x Expr) {
		switch x := x.(type) {
		case *Ident:
			x.sym = c.lookup(x.Name, sc)
		case *ArrayRef:
			x.sym = c.globals[x.Name]
		}
	})
}

// typeOf resolves e in scope sc and returns its checked type.
func (c *checker) typeOf(e Expr, sc *scope) (BaseType, error) {
	c.bind(e, sc)
	return c.exprType(e, sc)
}

// exprType infers and checks the type of a resolved expression.  sc is
// nil outside foralls (and map clauses).
func (c *checker) exprType(e Expr, sc *scope) (BaseType, error) {
	switch e := e.(type) {
	case *IntLit:
		return TInt, nil
	case *RealLit:
		return TReal, nil
	case *BoolLit:
		return TBool, nil
	case *Ident:
		s := e.sym
		if s == nil {
			return 0, errf(e.Line, 1, "undeclared name %q", e.Name)
		}
		if s.kind == symArray {
			return 0, errf(e.Line, 1, "array %q used without subscripts", e.Name)
		}
		return s.typ, nil
	case *ArrayRef:
		s := e.sym
		if s == nil || s.kind != symArray {
			return 0, errf(e.Line, 1, "%q is not an array", e.Name)
		}
		d := s.decl
		if len(e.Indexes) != len(d.Dims) {
			return 0, errf(e.Line, 1, "%q has %d dimensions, %d indexes given", e.Name, len(d.Dims), len(e.Indexes))
		}
		for _, ix := range e.Indexes {
			t, err := c.exprType(ix, sc)
			if err != nil {
				return 0, err
			}
			if t != TInt {
				return 0, errf(e.Line, 1, "array index must be an integer")
			}
		}
		if sc == nil && distributed(d) {
			return 0, errf(e.Line, 1, "distributed array %q read outside a forall (use forall or reduce)", e.Name)
		}
		return d.Elem, nil
	case *Unary:
		t, err := c.exprType(e.X, sc)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case MINUS:
			if t == TBool {
				return 0, errf(e.Line, 1, "cannot negate a boolean")
			}
			return t, nil
		case KWNot:
			if t != TBool {
				return 0, errf(e.Line, 1, "not needs a boolean")
			}
			return TBool, nil
		}
		return 0, errf(e.Line, 1, "bad unary operator")
	case *Binary:
		lt, err := c.exprType(e.L, sc)
		if err != nil {
			return 0, err
		}
		rt, err := c.exprType(e.R, sc)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case KWAnd, KWOr:
			if lt != TBool || rt != TBool {
				return 0, errf(e.Line, 1, "%s needs booleans", e.Op)
			}
			return TBool, nil
		case LT, LE, GT, GE, EQ, NE:
			if lt == TBool || rt == TBool {
				if lt != rt {
					return 0, errf(e.Line, 1, "cannot compare %s with %s", lt, rt)
				}
				return TBool, nil
			}
			return TBool, nil
		case KWDiv, KWMod:
			if lt != TInt || rt != TInt {
				return 0, errf(e.Line, 1, "%s needs integers", e.Op)
			}
			return TInt, nil
		case PLUS, MINUS, STAR:
			if lt == TBool || rt == TBool {
				return 0, errf(e.Line, 1, "arithmetic on booleans")
			}
			if lt == TReal || rt == TReal {
				return TReal, nil
			}
			return TInt, nil
		case SLASH:
			if lt == TBool || rt == TBool {
				return 0, errf(e.Line, 1, "arithmetic on booleans")
			}
			return TReal, nil
		}
		return 0, errf(e.Line, 1, "bad binary operator")
	case *Call:
		sig, ok := builtins[e.Name]
		if !ok {
			return 0, errf(e.Line, 1, "unknown function %q", e.Name)
		}
		if len(e.Args) != sig.args {
			return 0, errf(e.Line, 1, "%s takes %d argument(s)", e.Name, sig.args)
		}
		for _, a := range e.Args {
			t, err := c.exprType(a, sc)
			if err != nil {
				return 0, err
			}
			if t == TBool {
				return 0, errf(e.Line, 1, "%s does not take booleans", e.Name)
			}
		}
		return sig.ret, nil
	default:
		return 0, fmt.Errorf("lang: unknown expression %T", e)
	}
}

// builtins lists the available intrinsic functions.
var builtins = map[string]struct {
	args int
	ret  BaseType
}{
	"abs":   {1, TReal},
	"sqrt":  {1, TReal},
	"min":   {2, TReal},
	"max":   {2, TReal},
	"float": {1, TReal},
	"trunc": {1, TInt},
}

// walkStmts calls f on every expression in a statement tree.
func walkStmts(ss []Stmt, f func(Expr)) {
	for _, s := range ss {
		switch s := s.(type) {
		case *Assign:
			for _, ix := range s.Indexes {
				walkExpr(ix, f)
			}
			walkExpr(s.X, f)
		case *Forall:
			walkExpr(s.Lo, f)
			walkExpr(s.Hi, f)
			walkExpr(s.Lo2, f)
			walkExpr(s.Hi2, f)
			walkExpr(s.OnIndex, f)
			walkExpr(s.OnIndex2, f)
			walkStmts(s.Body, f)
		case *ForLoop:
			walkExpr(s.Lo, f)
			walkExpr(s.Hi, f)
			walkStmts(s.Body, f)
		case *While:
			walkExpr(s.Cond, f)
			walkStmts(s.Body, f)
		case *If:
			walkExpr(s.Cond, f)
			walkStmts(s.Then, f)
			walkStmts(s.Else, f)
		case *Reduce:
			// no expressions
		}
	}
}

func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *ArrayRef:
		for _, ix := range e.Indexes {
			walkExpr(ix, f)
		}
	case *Unary:
		walkExpr(e.X, f)
	case *Binary:
		walkExpr(e.L, f)
		walkExpr(e.R, f)
	case *Call:
		for _, a := range e.Args {
			walkExpr(a, f)
		}
	}
}
