package forall

import (
	"fmt"
	"sort"

	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/crystal"
	"kali/internal/index"
	"kali/internal/machine"
)

// buildCompileTime derives the schedule from closed-form set algebra
// (paper §3.1/[3], lifted per dimension for rank-2 loops): no
// inspector pass, no global exchange.  Both ends of every transfer
// compute the same sets independently, so the send and receive
// schedules agree by construction.
func (e *Engine) buildCompileTime(c *loopCore) *Schedule {
	if c.rank == 1 {
		return e.buildCompileTime1(c)
	}
	return e.buildCompileTime2(c)
}

// buildCompileTime1 is the rank-1 closed-form path.
func (e *Engine) buildCompileTime1(c *loopCore) *Schedule {
	me := e.node.ID()
	onPat := c.on.Dist().Pattern(0)

	reads := make([]analysis.Read, len(c.reads))
	for i, r := range c.reads {
		reads[i] = analysis.Read{Pat: r.Array.Dist().Pattern(0), G: *r.Affine}
	}
	sets := analysis.Compute(onPat, c.onF, c.bounds[0], c.bounds[1], reads, me)
	// Symbolic evaluation: a handful of closed-form evaluations.
	e.node.Charge(machine.Cost{Calls: 2 + len(c.reads)})

	// Exact-size lists: a stored schedule keeps no append slack.
	s := &Schedule{
		kind:         BuildCompileTime,
		execLocal:    make([]iteration, 0, sets.ExecLocal.Len()),
		execNonlocal: make([]iteration, 0, sets.ExecNonlocal.Len()),
	}
	sets.ExecLocal.Each(func(i int) { s.execLocal = append(s.execLocal, iteration{I: i}) })
	sets.ExecNonlocal.Each(func(i int) { s.execNonlocal = append(s.execNonlocal, iteration{I: i}) })
	e.assembleArrays(c, s, sets.In, sets.Out)
	return s
}

// buildCompileTime2 is the rank-2 closed-form path: the exec and
// execLocal rectangles and the per-peer element rectangles all come
// from the per-dimension interval algebra; only the iteration lists
// are enumerated (in loop order, matching the inspector).
func (e *Engine) buildCompileTime2(c *loopCore) *Schedule {
	me := e.node.ID()
	d := c.on.Dist()
	onI, onJ := d.Pattern(0), d.Pattern(1)

	reads := make([]analysis.Read2, len(c.reads))
	for i, r := range c.reads {
		rd := r.Array.Dist()
		reads[i] = analysis.Read2{
			PatI: rd.Pattern(0), PatJ: rd.Pattern(1),
			G:     *r.Affine2,
			Width: r.Array.Shape()[1],
		}
	}
	sets := analysis.Compute2(onI, onJ, c.onF2,
		c.bounds[0], c.bounds[1], c.bounds[2], c.bounds[3], reads, me)
	e.node.Charge(machine.Cost{Calls: 2 + len(c.reads)})

	// Enumerate the exec rectangle row-major into exact-size lists;
	// iterations outside the execLocal rectangle (a subrectangle) are
	// nonlocal (some read leaves this node).
	local := sets.LocalRows.Len() * sets.LocalCols.Len()
	s := &Schedule{
		kind:         BuildCompileTime,
		execLocal:    make([]iteration, 0, local),
		execNonlocal: make([]iteration, 0, sets.ExecRows.Len()*sets.ExecCols.Len()-local),
	}
	sets.ExecRows.Each(func(i int) {
		rowLocal := sets.LocalRows.Contains(i)
		sets.ExecCols.Each(func(j int) {
			if rowLocal && sets.LocalCols.Contains(j) {
				s.execLocal = append(s.execLocal, iteration{I: i, J: j})
			} else {
				s.execNonlocal = append(s.execNonlocal, iteration{I: i, J: j})
			}
		})
	})
	e.assembleArrays(c, s, sets.In, sets.Out)
	return s
}

// assembleArrays unions the per-read in/out element sets of each
// distinct array and lowers them onto comm records, one structural
// slot per distinct array (the executor re-binds arrays to slots in
// the same first-appearance order).
func (e *Engine) assembleArrays(c *loopCore, s *Schedule, in, out []map[int]index.Set) {
	me := e.node.ID()
	for _, arr := range distinctArrays(c) {
		inByQ := map[int]index.Set{}
		outByQ := map[int]index.Set{}
		for k, r := range c.reads {
			if r.Array != arr {
				continue
			}
			for q, set := range in[k] {
				inByQ[q] = inByQ[q].Union(set)
			}
			for q, set := range out[k] {
				outByQ[q] = outByQ[q].Union(set)
			}
		}
		s.arrays = append(s.arrays, &arraySched{in: inSetFromSets(me, inByQ), out: outSetFromSets(me, outByQ)})
	}
}

// inSetFromSets builds a receive schedule from per-sender index sets.
func inSetFromSets(me int, byQ map[int]index.Set) *comm.InSet {
	qs := sortedKeys(byQ)
	in := &comm.InSet{}
	off := 0
	for _, q := range qs {
		for _, iv := range byQ[q].Intervals() {
			r := comm.Range{FromProc: q, ToProc: me, Low: iv.Lo, High: iv.Hi, Buf: off}
			off += r.Len()
			in.Ranges = append(in.Ranges, r)
		}
	}
	in.Total = off
	return in
}

// outSetFromSets builds a send schedule from per-receiver index sets.
func outSetFromSets(me int, byQ map[int]index.Set) *comm.OutSet {
	var recs []comm.Range
	for q, set := range byQ {
		for _, iv := range set.Intervals() {
			recs = append(recs, comm.Range{FromProc: me, ToProc: q, Low: iv.Lo, High: iv.Hi})
		}
	}
	return comm.BuildOut(me, recs)
}

func sortedKeys(m map[int]index.Set) []int {
	out := make([]int, 0, len(m))
	for q := range m {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// routedRecs is the crystal-router payload: the in-records of array
// slot k whose home is the destination node.
type routedRecs struct {
	slot int
	recs []comm.Range
}

// inspectIters enumerates this node's iterations in loop order for the
// recording pass, charging the placement cost (closed-form for on
// clauses, a per-iteration scan for OnProc).
func (e *Engine) inspectIters(c *loopCore) []iteration {
	if c.rank == 1 {
		is := e.execSet(c)
		out := make([]iteration, len(is))
		for k, i := range is {
			out[k] = iteration{I: i}
		}
		return out
	}
	// Rank 2: the exec rectangle is the cross product of the
	// per-dimension on-clause preimages of the local sets, clipped to
	// the loop bounds (block/cyclic distributions are separable by
	// construction; the affine on-clause preimage of an interval is
	// still an interval).
	me := e.node.ID()
	d := c.on.Dist()
	rows, cols := analysis.Exec2(d.Pattern(0), d.Pattern(1), c.onF2,
		c.bounds[0], c.bounds[1], c.bounds[2], c.bounds[3], me)
	e.node.Charge(machine.Cost{Calls: 1})
	out := make([]iteration, 0, rows.Len()*cols.Len())
	rows.Each(func(i int) {
		cols.Each(func(j int) {
			out = append(out, iteration{I: i, J: j})
		})
	})
	return out
}

// buildInspector performs the paper's run-time analysis (Figure 6) for
// loops of either rank: a recording pass over the loop body classifies
// every iteration and collects the in sets; a Crystal-router exchange
// then delivers each record to its home processor, whose received
// records form its out set.
func (e *Engine) buildInspector(c *loopCore) *Schedule {
	me := e.node.ID()
	exec := e.inspectIters(c)
	arrays := distinctArrays(c)

	s := &Schedule{kind: BuildInspector}
	builders := make([]*comm.Builder, len(arrays))
	for i := range builders {
		builders[i] = comm.NewBuilder(me)
	}

	// Recording pass: run the body with an inspecting Env.
	env := &Env{
		mode:     modeInspect,
		eng:      e,
		node:     e.node,
		core:     c,
		arrays:   arrays,
		builders: builders,
	}
	for _, it := range exec {
		e.node.Charge(machine.Cost{LoopIters: 1})
		env.iterNonlocal = false
		if c.enumerate {
			env.enumRecord = env.enumRecord[:0]
		}
		c.run(it, env)
		if env.iterNonlocal {
			s.execNonlocal = append(s.execNonlocal, it)
			if c.enumerate {
				// Saltz-style: keep the full per-reference list for this
				// iteration; list construction costs one insert per
				// reference ("relatively high" preprocessing, §5).
				refs := make([]enumRef, len(env.enumRecord))
				copy(refs, env.enumRecord)
				s.enum = append(s.enum, refs)
				e.node.Charge(machine.Cost{ListInserts: len(refs)})
			}
		} else {
			s.execLocal = append(s.execLocal, it)
		}
	}

	// Finalize in sets and ship each record to its home processor.
	var parcels []crystal.Parcel
	for k, b := range builders {
		in := b.Finalize()
		s.arrays = append(s.arrays, &arraySched{in: in})
		for _, q := range in.Senders() {
			rf := in.RangesFrom(q)
			recs := make([]comm.Range, len(rf))
			copy(recs, rf)
			parcels = append(parcels, crystal.Parcel{
				Dest:  q,
				Data:  routedRecs{slot: k, recs: recs},
				Bytes: recBytes * len(recs),
			})
		}
	}

	received := e.exchange(parcels)

	// Assemble out sets from the records that arrived for each slot.
	bySlot := make([][]comm.Range, len(arrays))
	for _, pc := range received {
		rr := pc.Data.(routedRecs)
		if rr.slot < 0 || rr.slot >= len(arrays) {
			panic(fmt.Sprintf("forall %s: routed records for unknown slot %d", c.name, rr.slot))
		}
		// Records arrive as the *receiver's* in-records: FromProc is us.
		bySlot[rr.slot] = append(bySlot[rr.slot], rr.recs...)
	}
	for k, as := range s.arrays {
		as.out = comm.BuildOut(me, bySlot[k])
	}

	// Enumerated schedules resolve buffer slots now that the in sets
	// are final.
	if c.enumerate {
		for _, refs := range s.enum {
			for r := range refs {
				ref := &refs[r]
				if ref.Buf != -1 {
					as := s.arrays[ref.Slot]
					buf, ok := as.in.Find(ref.Buf, ref.G) // Buf held the owner during recording
					if !ok {
						panic(fmt.Sprintf("forall %s: enumerated element %d missing from schedule", c.name, ref.G))
					}
					ref.Buf = buf
				}
			}
		}
	}
	return s
}

// exchange routes parcels to their destinations: via the Crystal
// router on power-of-two machines (the paper's method), or by a direct
// all-to-all on other sizes.  Every node must call exchange exactly
// once per schedule build.
func (e *Engine) exchange(parcels []crystal.Parcel) []crystal.Parcel {
	p := e.node.P()
	if p == 1 {
		return parcels
	}
	if p&(p-1) == 0 {
		return crystal.RouteSorted(e.node, parcels, func(a, b crystal.Parcel) bool {
			ra, rb := a.Data.(routedRecs), b.Data.(routedRecs)
			if ra.slot != rb.slot {
				return ra.slot < rb.slot
			}
			if len(ra.recs) == 0 || len(rb.recs) == 0 {
				return len(ra.recs) < len(rb.recs)
			}
			if ra.recs[0].ToProc != rb.recs[0].ToProc {
				return ra.recs[0].ToProc < rb.recs[0].ToProc
			}
			return ra.recs[0].Low < rb.recs[0].Low
		})
	}
	// Direct all-to-all fallback: one (possibly empty) message to every
	// peer, so receive counts are static.
	me := e.node.ID()
	byDest := make([][]crystal.Parcel, p)
	for _, pc := range parcels {
		if pc.Dest == me {
			byDest[me] = append(byDest[me], pc)
			continue
		}
		byDest[pc.Dest] = append(byDest[pc.Dest], pc)
	}
	var out []crystal.Parcel
	out = append(out, byDest[me]...)
	for q := 0; q < p; q++ {
		if q == me {
			continue
		}
		bytes := 8
		for _, pc := range byDest[q] {
			bytes += pc.Bytes
		}
		e.node.Send(q, machine.TagCrystal, byDest[q], bytes)
	}
	for q := 0; q < p; q++ {
		if q == me {
			continue
		}
		msg := e.node.Recv(q, machine.TagCrystal)
		if got, ok := msg.Payload.([]crystal.Parcel); ok {
			out = append(out, got...)
		}
	}
	return out
}
