package lang

// BaseType is a scalar type.
type BaseType int

// Scalar types.
const (
	TInt BaseType = iota
	TReal
	TBool
)

func (t BaseType) String() string {
	switch t {
	case TInt:
		return "integer"
	case TReal:
		return "real"
	default:
		return "boolean"
	}
}

// File is a parsed program.
type File struct {
	Procs  *ProcsDecl
	Consts []*ConstDecl
	Vars   []*VarDecl
	Main   []Stmt

	// set by the checker: the sizes of the global tables that constant,
	// scalar and array symbols index (scalars include the implicit
	// variables of top-level for loops).
	nConsts, nScalars, nArrays int
}

// ProcsDecl is "processors Procs : array[1..P] with P in lo..hi;" or,
// for two-dimensional processor arrays ("multi-dimensional processor
// arrays can be declared similarly", §2.1),
// "processors Procs : array[1..p1, 1..p2];" with constant extents.
type ProcsDecl struct {
	Name    string
	SizeVar string // the P identifier ("" when the bound is a constant)
	Size    Expr   // used when SizeVar is ""
	Size2   Expr   // second dimension extent (nil for 1-D)
	MinP    Expr   // with-clause bounds (nil when absent)
	MaxP    Expr
	Line    int

	sym *symbol // P, set by the checker (nil when SizeVar is "")
}

// Rank2 reports whether the processor array is two-dimensional.
func (d *ProcsDecl) Rank2() bool { return d.Size2 != nil }

// ConstDecl is one "name = expr" binding.
type ConstDecl struct {
	Name string
	X    Expr
	Line int

	// Folded/Val cache the Check-time evaluation of X for constants
	// that do not depend on P; elaboration and the bytecode compiler
	// reuse the cached value.  P-dependent constants stay unfolded and
	// are evaluated once the processor count is chosen.
	Folded bool
	Val    value

	sym *symbol // set by the checker
}

// DistItem is one entry of a dist clause.
type DistItem struct {
	Kind  Kind // KWBlock, KWCyclic, KWBlockCyclic, KWMap, STAR
	Block Expr // block size for block_cyclic
	// MapVar/MapExpr describe a user-defined distribution
	// "map(v : expr)": the owner of global index v is expr, evaluated
	// at elaboration time over the constants and P.
	MapVar  string
	MapExpr Expr

	mapSym *symbol // MapVar's binding, set by the checker
}

// VarDecl declares one or more names of a common type.
type VarDecl struct {
	Names []string
	Elem  BaseType
	Dims  []ArrayDim // empty for scalars
	Dist  []DistItem // nil when replicated / scalar
	OnTo  string     // processor array name ("" defaults)
	Line  int

	syms []*symbol // one per name, set by the checker
}

// ArrayDim is one "lo..hi" bound pair.
type ArrayDim struct {
	Lo, Hi Expr
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// Assign is "lvalue := expr".
type Assign struct {
	Name    string
	Indexes []Expr // nil for scalars
	X       Expr
	Line    int

	// set by the checker: the target, and for array writes inside a
	// forall its index into the forall's reals slot table.
	sym  *symbol
	slot int
}

// Forall is the parallel loop with an on clause.  Two-dimensional
// foralls (Var2 != "") iterate over an index pair and place iterations
// by the owner of OnArray[i, j].
type Forall struct {
	Var      string
	Lo, Hi   Expr
	Var2     string // "" for 1-D foralls
	Lo2, Hi2 Expr
	OnArray  string
	OnIndex  Expr
	OnIndex2 Expr // second on-clause subscript (2-D only)
	Decls    []*LocalDecl
	Body     []Stmt
	Line     int

	// set by the checker:
	vars  [2]*symbol    // the index variables (frame slots 0 and 1)
	onSym *symbol       // the on-clause array
	on    [2]affineForm // the on-clause subscripts, one per index variable
	reads []*readInfo
	deps  []*symbol // int arrays the reference pattern depends on
	// writes lists the distinct real arrays the body assigns, in
	// first-write order: the write set the fusion planner breaks
	// windows on.
	writes []*symbol
	// reals/ints number the real and integer arrays the body touches;
	// every ArrayRef.slot and Assign.slot indexes the matching list.
	// The bytecode compiler binds VM array slots from this numbering.
	reals, ints []*symbol
	// nLocals sizes the per-iteration frame that index variables, body
	// locals and inner for variables occupy.
	nLocals int
}

// LocalDecl is a per-iteration variable inside a forall.
type LocalDecl struct {
	Name string
	Type BaseType
	Line int

	sym *symbol // set by the checker
}

// ForLoop is a sequential for.
type ForLoop struct {
	Var    string
	Lo, Hi Expr
	Body   []Stmt
	Line   int

	sym *symbol // the loop variable, set by the checker
}

// While is a while loop.
type While struct {
	Cond Expr
	Body []Stmt
	Line int
}

// If is a conditional.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Line int
}

// Reduce is "reduce op(args) into name" — the language's global
// reduction (convergence tests).  Ops: maxdiff(a, b), sum(a), max(a).
type Reduce struct {
	Op   string
	Args []string // array names
	Into string
	Line int

	argSyms []*symbol // set by the checker
	intoSym *symbol
}

// Redistribute is "redistribute name as [items]": rebind a distributed
// array to a new dist clause mid-run, moving every element to its new
// owner (dynamic distributions, paper §2.4).  The item list has the
// same forms as a declaration's dist clause.
type Redistribute struct {
	Name  string
	Items []DistItem
	Line  int

	sym *symbol // set by the checker
}

func (*Assign) stmtNode()       {}
func (*Forall) stmtNode()       {}
func (*ForLoop) stmtNode()      {}
func (*While) stmtNode()        {}
func (*If) stmtNode()           {}
func (*Reduce) stmtNode()       {}
func (*Redistribute) stmtNode() {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// IntLit is an integer literal.
type IntLit struct {
	V    int
	Line int
}

// RealLit is a real literal.
type RealLit struct {
	V    float64
	Line int
}

// BoolLit is true/false.
type BoolLit struct {
	V    bool
	Line int
}

// Ident is a scalar/const/loop-variable reference.
type Ident struct {
	Name string
	Line int

	sym *symbol // set by the checker
}

// ArrayRef is "name[indexes]".
type ArrayRef struct {
	Name    string
	Indexes []Expr
	Line    int

	// set by the checker; access and slot only for refs inside foralls:
	sym    *symbol
	access accessMode
	slot   int // index into the forall's reals/ints
}

// Unary is "-x" or "not x".
type Unary struct {
	Op   Kind
	X    Expr
	Line int
}

// Binary is "x op y".
type Binary struct {
	Op   Kind
	L, R Expr
	Line int
}

// Call is a builtin call: abs, min, max, sqrt, float, trunc.
type Call struct {
	Name string
	Args []Expr
	Line int
}

func (*IntLit) exprNode()   {}
func (*RealLit) exprNode()  {}
func (*BoolLit) exprNode()  {}
func (*Ident) exprNode()    {}
func (*ArrayRef) exprNode() {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}
func (*Call) exprNode()     {}

// accessMode classifies an array reference inside a forall.
type accessMode int

const (
	accNone       accessMode = iota
	accReplicated            // replicated array: plain local read
	accAligned               // compiler-proven local (subscript aligned with on clause)
	accAffine                // affine subscript: compile-time schedule, Env.Read
	accIndirect              // data-dependent subscript: inspector, Env.Read
)

// affineForm is a subscript a*v + c in one index variable v, with
// loop-invariant constant expressions a and c that elaboration
// evaluates (nil encodes 0).
type affineForm struct {
	a, c Expr
}

// readInfo describes one distinct distributed-array read slot of a
// forall (feeds forall.Loop.Reads / forall.Loop2.Reads).
type readInfo struct {
	array *symbol
	// affine reads X[a*i+c] keep their form in i; rank-2 affine reads
	// X[aI*i+cI, aJ*j+cJ] inside two-index foralls keep i and j.
	affine, affine2 bool
	i, j            affineForm
}
