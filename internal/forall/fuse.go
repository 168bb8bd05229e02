package forall

import (
	"kali/internal/darray"
	"kali/internal/machine"
)

// Cross-loop message aggregation (the paper's §3.2 message-combining
// lifted across consecutive foralls).  Within one loop the executor
// already coalesces all arrays' data for one destination into a single
// message; RunSequence extends the same argument across a *sequence*
// of loops: consecutive foralls whose declared reads are untouched by
// the preceding loops' writes form a fusion window, and the window
// executor (exec.go) posts every member loop's per-peer section — the
// sections to one peer forming one logical envelope — before the first
// loop's interior compute.  Execution then pipelines as a wavefront:
// each loop's boundary pass starts as soon as its own sections drain,
// with no inter-loop barrier and no re-posting.
//
// The wire format is deliberately conservative: section k's payload is
// bit-identical to the combined message loop k would send on its own,
// and it travels under its own tag (machine.FusedTag(k)), so the
// receive side matches sections unambiguously.  Only *when* traffic
// moves changes — contents, byte counts and per-section receive
// charges are identical — which is what makes fused simulated clocks
// provably no worse than unfused ones (see machine.Continuation) and
// one-loop windows an exact differential oracle behind Engine.NoFuse.
//
// Legality: loop l joins the window only if none of its declared read
// arrays was written by an earlier window loop, because its sections
// are packed from array contents at window start.  Everything else —
// execution order, aligned ReadLocal accesses, per-loop copy-in/
// copy-out commits — stays in program order, so a loop reading *and*
// writing the same array (a smooth) fuses fine within its own slot;
// only a later loop reading that array breaks the window.  As with
// schedule caching, reference patterns driven by array *contents* must
// declare DependsOn; writing a pattern-driving array inside a window
// is outside the contract, exactly as replaying a stale cached
// schedule would be.

// SeqLoop is one element of a loop sequence: exactly one of L and L2
// must be set.  Writes declares every distributed array the loop's
// body writes; the fusion planner uses it to find window boundaries,
// so an omitted write array can fuse a loop with a stale reader.
type SeqLoop struct {
	L      *Loop
	L2     *Loop2
	Writes []*darray.Array
}

// RunSequence executes consecutive forall loops, aggregating messages
// across fusion windows of up to machine.MaxFusedLoops loops.  It is
// semantically identical to calling Run/Run2 on each element in order.
// NoFuse, NoOverlap and NoCombine (the differential oracles) cap every
// window at one loop, which is exactly that; so do nested calls from
// inside a loop body.  Fusion windows are determined from declared
// reads and writes only, so every node partitions the sequence
// identically and schedule builds (which may involve collectives) stay
// aligned.
func (e *Engine) RunSequence(seq []SeqLoop) {
	for i := range seq {
		if (seq[i].L == nil) == (seq[i].L2 == nil) {
			panic("forall: SeqLoop needs exactly one of L and L2")
		}
	}
	limit := machine.MaxFusedLoops
	if e.NoFuse || e.NoOverlap || e.NoCombine || e.inRun {
		limit = 1
	}
	w := e.acquire(len(seq))
	defer e.release(w)
	for i := range seq {
		if l := seq[i].L; l != nil {
			e.validate(l)
			l.lower(&w.cores[i])
		} else {
			e.validate2(seq[i].L2)
			seq[i].L2.lower(&w.cores[i])
		}
	}
	for i := 0; i < len(seq); {
		j := windowEnd(w, seq, i, limit)
		e.runWindow(w, w.cores[i:j])
		i = j
	}
}

// windowEnd returns the end of the greedy fusion window starting at
// loop i: loops join until one's declared reads meet the accumulated
// writes of the window so far (its sections could not be packed at
// window start), or the window holds limit loops.
func windowEnd(w *window, seq []SeqLoop, i, limit int) int {
	ws := append(w.writes[:0], seq[i].Writes...)
	j := i + 1
	for j < len(seq) && j-i < limit {
		if readsAnyOf(&w.cores[j], ws) {
			break
		}
		ws = append(ws, seq[j].Writes...)
		j++
	}
	w.writes = ws
	return j
}

// readsAnyOf reports whether any of the core's declared read arrays is
// in w.
func readsAnyOf(c *loopCore, w []*darray.Array) bool {
	for _, r := range c.reads {
		for _, a := range w {
			if a == r.Array {
				return true
			}
		}
	}
	return false
}
