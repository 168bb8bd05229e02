package forall

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"kali/internal/analysis"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/machine/wallclock"
	"kali/internal/topology"
)

// runTwoArrayStencil executes a loop reading two arrays across the
// same boundaries on mach, with or without message combining and
// overlap, and returns the results, the data-message count of one
// execution (crystal traffic excluded by running the loop a second time
// from the cache and counting only that execution), and the
// machine-wide Stats of the whole run.
func runTwoArrayStencil(t *testing.T, mach *machine.Machine, noCombine, noOverlap bool) ([]float64, int, machine.Stats) {
	t.Helper()
	const n = 24
	g := topology.MustGrid(mach.P())
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	result := make([]float64, n+1)
	var mu sync.Mutex
	msgs := 0
	mach.Run(func(nd *machine.Node) {
		out := darray.New("out", d, nd)
		u := darray.New("u", d, nd)
		v := darray.New("v", d, nd)
		for i := 1; i <= n; i++ {
			if u.IsLocal1(i) {
				u.Set1(i, float64(i))
				v.Set1(i, float64(i)*100)
			}
		}
		eng := NewEngine(nd)
		eng.NoCombine = noCombine
		eng.NoOverlap = noOverlap
		loop := &Loop{
			Name: "two-array", Lo: 1, Hi: n - 1,
			On: out, OnF: analysis.Identity,
			Reads: []ReadSpec{
				{Array: u, Affine: &analysis.Affine{A: 1, C: 1}},
				{Array: v, Affine: &analysis.Affine{A: 1, C: 1}},
			},
			Body: func(i int, e *Env) {
				e.Write(out, i, e.Read(u, i+1)+e.Read(v, i+1))
			},
		}
		eng.Run(loop)
		before := nd.Stats().MsgsSent
		eng.Run(loop) // cached: pure executor traffic
		after := nd.Stats().MsgsSent
		mu.Lock()
		msgs += after - before
		out.Dist().Pattern(0).Local(nd.ID()).Each(func(i int) { result[i] = out.Get1(i) })
		mu.Unlock()
	})
	return result, msgs, mach.TotalStats()
}

// TestCombineHalvesMessages: with two arrays crossing each boundary,
// combining halves the message count (the paper's "saving on the
// number of messages") without changing results.  Each envelope layout
// runs on both backends, split-phase and phase-synchronous: within a
// layout the values are bit-identical and the Stats equal everywhere.
func TestCombineHalvesMessages(t *testing.T) {
	const p = 4
	backends := []struct {
		name string
		mk   func() *machine.Machine
	}{
		{"sim", func() *machine.Machine { return sim.MustNew(p, machine.Ideal()) }},
		{"wall", func() *machine.Machine { return wallclock.MustNew(p, machine.Ideal()) }},
	}
	// 3 boundary pairs, one direction each: combined = 3, separate = 6.
	layouts := []struct {
		name      string
		noCombine bool
		msgs      int
	}{
		{"combined", false, 3},
		{"per-array", true, 6},
	}
	for _, lay := range layouts {
		var refVals []float64
		var refStats machine.Stats
		for _, b := range backends {
			for _, noOverlap := range []bool{false, true} {
				cfg := fmt.Sprintf("%s/%s/noOverlap=%v", lay.name, b.name, noOverlap)
				vals, msgs, st := runTwoArrayStencil(t, b.mk(), lay.noCombine, noOverlap)
				for i := 1; i < 24; i++ {
					if want := float64(i+1) * 101; vals[i] != want {
						t.Fatalf("%s: i=%d got %g want %g", cfg, i, vals[i], want)
					}
				}
				if msgs != lay.msgs {
					t.Fatalf("%s: %d messages per execution, want %d", cfg, msgs, lay.msgs)
				}
				if refVals == nil {
					refVals, refStats = vals, st
					continue
				}
				for i := range vals {
					if math.Float64bits(vals[i]) != math.Float64bits(refVals[i]) {
						t.Fatalf("%s: value %d = %v differs from %v", cfg, i, vals[i], refVals[i])
					}
				}
				if st != refStats {
					t.Fatalf("%s: stats %+v differ from %+v", cfg, st, refStats)
				}
			}
		}
	}
}

// TestCombineSavesStartupTime: per-execution message time drops by the
// saved startups.
func TestCombineSavesStartupTime(t *testing.T) {
	run := func(noCombine bool) float64 {
		const n, p = 24, 4
		g := topology.MustGrid(p)
		d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
		mach := sim.MustNew(p, machine.NCUBE7())
		mach.Run(func(nd *machine.Node) {
			out := darray.New("out", d, nd)
			u := darray.New("u", d, nd)
			v := darray.New("v", d, nd)
			eng := NewEngine(nd)
			eng.NoCombine = noCombine
			loop := &Loop{
				Name: "two-array", Lo: 1, Hi: n - 1,
				On: out, OnF: analysis.Identity,
				Reads: []ReadSpec{
					{Array: u, Affine: &analysis.Affine{A: 1, C: 1}},
					{Array: v, Affine: &analysis.Affine{A: 1, C: 1}},
				},
				Body: func(i int, e *Env) {
					e.Write(out, i, e.Read(u, i+1)+e.Read(v, i+1))
				},
			}
			for k := 0; k < 10; k++ {
				eng.Run(loop)
			}
		})
		return mach.MaxPhase(PhaseExecutor)
	}
	if c, s := run(false), run(true); c >= s {
		t.Fatalf("combined executor %.6f not faster than separate %.6f", c, s)
	}
}
