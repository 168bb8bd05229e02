package main

import (
	"time"

	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/mesh"
)

// runRelax is the relax-unstructured workload: the paper's Figure 4
// Jacobi sweep (copy, then relax through old_a[adj[i,j]]) on a
// shuffled unstructured mesh, whose scattered references only the
// run-time inspector can schedule.  The seed is the mesh shuffle seed.
// A step is one sweep; a trial's result must equal mesh.SeqJacobi bit
// for bit.
func runRelax(cfg runConfig) (*outcome, error) {
	side, steps := 400, 12
	if cfg.tiny {
		side, steps = 24, 4
	}
	m := mesh.Unstructured(side, side, true, cfg.seed)
	init := mesh.InitValues(m)
	t0 := time.Now()
	want := mesh.SeqJacobi(m, init, steps)
	kernel := float64(time.Since(t0)) / float64(steps*m.N)

	spec := &solverSpec{
		steps:          steps,
		updatesPerStep: float64(m.N),
		// a, old_a and count, plus adj and coef at MaxDeg per node.
		arrayBytes: 8 * m.N * (3 + 2*m.MaxDeg),
		want:       [][]float64{want},
		kernelNS:   kernel,
		schedules:  []string{"relax.copy", "relax.core"},
		program:    func(t *trial) func(ctx *core.Context) { return relaxProgram(t, m, init) },
	}
	o, err := runSolver(spec, cfg)
	if err == nil {
		o.facts["mesh"] = m.Desc
	}
	return o, err
}

// relaxProgram is one node's share of a relax-unstructured trial; it
// mirrors the paper's declarations (every array block-distributed on
// the node dimension, adj and coef [block,*]).
func relaxProgram(t *trial, m *mesh.Mesh, init []float64) func(ctx *core.Context) {
	return func(ctx *core.Context) {
		me, n := ctx.ID(), m.N
		block := []dist.DimSpec{dist.BlockDim()}
		rows := []dist.DimSpec{dist.BlockDim(), dist.CollapsedDim()}
		a := ctx.Array("a", []int{n}, block)
		oldA := ctx.Array("old_a", []int{n}, block)
		count := ctx.IntArray("count", []int{n}, block)
		adj := ctx.IntArray("adj", []int{n, m.MaxDeg}, rows)
		coef := ctx.Array("coef", []int{n, m.MaxDeg}, rows)
		local := a.Dist().Pattern(0).Local(me)
		local.Each(func(i int) {
			a.Set1(i, init[i-1])
			oldA.Set1(i, init[i-1])
			count.Set1(i, m.Count[i-1])
			for k := 0; k < m.MaxDeg; k++ {
				adj.Set2(i, k+1, m.Adj[(i-1)*m.MaxDeg+k])
				coef.Set2(i, k+1, m.Coef[(i-1)*m.MaxDeg+k])
			}
		})
		copyLoop := &forall.Loop{
			Name: "relax.copy", Lo: 1, Hi: n,
			On: oldA, OnF: analysis.Identity,
			Reads: []forall.ReadSpec{{Array: a, Affine: &analysis.Identity}},
			Body: func(i int, e *forall.Env) {
				e.Write(oldA, i, e.Read(a, i))
			},
		}
		relaxLoop := &forall.Loop{
			Name: "relax.core", Lo: 1, Hi: n,
			On: a, OnF: analysis.Identity,
			Reads:     []forall.ReadSpec{{Array: oldA}}, // old_a[adj[i,j]]: indirect
			DependsOn: []forall.Dep{adj},
			Body: func(i int, e *forall.Env) {
				cnt := e.ReadInt(count, i)
				x := 0.0
				for j := 1; j <= cnt; j++ {
					x += e.ReadLocal2(coef, i, j) * e.Read(oldA, e.ReadInt2(adj, i, j))
					e.Flops(2)
				}
				e.Flops(1)
				if cnt > 0 {
					e.Write(a, i, x)
				}
			},
		}
		sweep := []forall.SeqLoop{
			{L: copyLoop, Writes: []*darray.Array{oldA}},
			{L: relaxLoop, Writes: []*darray.Array{a}},
		}
		for s := 1; s <= t.spec.steps; s++ {
			start := t.tr.begin()
			t.span(ctx, "forall.ForallSeq", s, func() { ctx.ForallSeq(sweep) })
			t.stepDone(ctx, s, start)
		}
		local.Each(func(i int) { t.got[0][i-1] = a.Get1(i) })
	}
}
