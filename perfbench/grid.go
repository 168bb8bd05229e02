package main

import (
	"math/rand"
	"time"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/topology"
)

// runGrid is the grid2d-adi workload: a two-field (u, v) five-point
// Jacobi on an n×n grid whose reads are per-dimension affine, so every
// schedule is built in closed form at compile time.  One step is a
// full transpose cycle: in row strips (a 2×1 processor grid) the
// fields' copy loops fuse into one window and their relax loops into
// another, then both fields are redistributed to column strips (1×2),
// relaxed the same way, and redistributed back.  The seed draws the
// initial field values; a trial's result must equal a sequential
// oracle with the same operation order bit for bit.
func runGrid(cfg runConfig) (*outcome, error) {
	n, steps := 768, 6
	if cfg.tiny {
		n, steps = 16, 3
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	u0, v0 := make([]float64, n*n), make([]float64, n*n)
	for i := range u0 {
		u0[i], v0[i] = rng.Float64(), rng.Float64()
	}
	t0 := time.Now()
	want := [][]float64{seqJacobi2D(u0, n, 2*steps), seqJacobi2D(v0, n, 2*steps)}
	kernel := float64(time.Since(t0)) / float64(4*steps*n*n)

	spec := &solverSpec{
		steps:          steps,
		updatesPerStep: float64(4 * n * n), // 2 fields × 2 sweeps
		// u and v, plus each field's old copy in each layout.
		arrayBytes: 8 * 6 * n * n,
		want:       want,
		kernelNS:   kernel,
		program:    func(t *trial) func(ctx *core.Context) { return gridProgram(t, n, u0, v0) },
	}
	for _, l := range []string{"rows", "cols"} {
		for _, f := range []string{"u", "v"} {
			spec.schedules = append(spec.schedules, "grid.copy."+f+"."+l, "grid.relax."+f+"."+l)
		}
	}
	o, err := runSolver(spec, cfg)
	if err == nil {
		o.facts["grid"] = n
	}
	return o, err
}

// seqJacobi2D is the sequential oracle: sweeps Jacobi sweeps of the
// five-point average over the interior of a row-major n×n field, in
// the distributed loop body's operation order.
func seqJacobi2D(f0 []float64, n, sweeps int) []float64 {
	u := append([]float64(nil), f0...)
	old := make([]float64, len(u))
	for s := 0; s < sweeps; s++ {
		copy(old, u)
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				u[i*n+j] = 0.25 * (old[(i-1)*n+j] + old[(i+1)*n+j] + old[i*n+j-1] + old[i*n+j+1])
			}
		}
	}
	return u
}

// gridLayout is one layout's loops: a fused copy window and a fused
// relax window over both fields.
type gridLayout struct {
	d   *dist.Dist
	seq []forall.SeqLoop
}

// newGridLayout declares the old copies of u and v in distribution d
// and the layout's four loops.
func newGridLayout(name string, n int, d *dist.Dist, ctx *core.Context, u, v *darray.Array) gridLayout {
	var copies, relaxes []forall.SeqLoop
	for _, f := range []*darray.Array{u, v} {
		old := darray.New(f.Name()+".old."+name, d, ctx.Node)
		cp := &forall.Loop2{
			Name: "grid.copy." + f.Name() + "." + name, LoI: 1, HiI: n, LoJ: 1, HiJ: n,
			On:    old,
			Reads: []forall.ReadSpec{{Array: f, Affine2: &analysis.Identity2}},
			Body: func(i, j int, e *forall.Env) {
				e.Write2(old, i, j, e.Read2(f, i, j))
			},
		}
		relax := &forall.Loop2{
			Name: "grid.relax." + f.Name() + "." + name, LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1,
			On: f,
			Reads: []forall.ReadSpec{
				{Array: old, Affine2: analysis.Shift2(-1, 0)}, {Array: old, Affine2: analysis.Shift2(1, 0)},
				{Array: old, Affine2: analysis.Shift2(0, -1)}, {Array: old, Affine2: analysis.Shift2(0, 1)},
			},
			Body: func(i, j int, e *forall.Env) {
				x := 0.25 * (e.Read2(old, i-1, j) + e.Read2(old, i+1, j) + e.Read2(old, i, j-1) + e.Read2(old, i, j+1))
				e.Flops(4)
				e.Write2(f, i, j, x)
			},
		}
		copies = append(copies, forall.SeqLoop{L2: cp, Writes: []*darray.Array{old}})
		relaxes = append(relaxes, forall.SeqLoop{L2: relax, Writes: []*darray.Array{f}})
	}
	// Copies first, then relaxes: the copy window breaks where the
	// first relax reads an old array the window wrote.
	return gridLayout{d: d, seq: append(copies, relaxes...)}
}

// gridProgram is one node's share of a grid2d-adi trial.
func gridProgram(t *trial, n int, u0, v0 []float64) func(ctx *core.Context) {
	return func(ctx *core.Context) {
		specs := []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}
		rowsD := dist.Must([]int{n, n}, specs, topology.MustGrid(solverProcs, 1))
		colsD := dist.Must([]int{n, n}, specs, topology.MustGrid(1, solverProcs))
		u, v := darray.New("u", rowsD, ctx.Node), darray.New("v", rowsD, ctx.Node)
		u.EachLocal(func(g int) { u.SetLinear(g, u0[g-1]) })
		v.EachLocal(func(g int) { v.SetLinear(g, v0[g-1]) })
		rows := newGridLayout("rows", n, rowsD, ctx, u, v)
		cols := newGridLayout("cols", n, colsD, ctx, u, v)
		half := func(s int, l, next gridLayout) {
			t.span(ctx, "forall.ForallSeq", s, func() { ctx.ForallSeq(l.seq) })
			t.span(ctx, "darray.Redistribute", s, func() { darray.Redistribute(u, next.d) })
			t.span(ctx, "darray.Redistribute", s, func() { darray.Redistribute(v, next.d) })
		}
		for s := 1; s <= t.spec.steps; s++ {
			start := t.tr.begin()
			half(s, rows, cols)
			half(s, cols, rows)
			t.stepDone(ctx, s, start)
		}
		u.EachLocal(func(g int) { t.got[0][g-1] = u.GetLinear(g) })
		v.EachLocal(func(g int) { t.got[1][g-1] = v.GetLinear(g) })
	}
}
