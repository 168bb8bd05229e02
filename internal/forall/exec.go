package forall

import (
	"fmt"
	"slices"

	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
)

// The executor (paper Figure 3, with §3.2's message combining).  Every
// execution — one Run/Run2 loop, or a fusion window of RunSequence
// loops — goes through runWindow, which does each step once:
//
//  1. post one envelope of sections per peer (post);
//  2. run each loop's interior iterations (execLocal);
//  3. drain the loop's own sections, unpacking any section of a later
//     window loop that arrives first into that loop's buffers (drain,
//     unpack);
//  4. run the boundary iterations (execNonlocal);
//  5. commit the buffered writes (copy-in/copy-out semantics).
//
// A section is one loop's data for one peer.  The Engine knobs do not
// select code paths; they only choose where envelopes split and how
// sends are charged:
//
//   - by default a loop's section carries every array slot (the
//     paper's combined message) under TagData, posted so its wire time
//     overlaps the interior compute;
//   - NoCombine splits the section per array slot, each under
//     TagUser+slot and each starting its own message;
//   - a fusion window of k > 1 loops sends loop j's sections under
//     FusedTag(j), and a section to a peer an earlier window loop
//     already sent to is a Continuation of that envelope: no startup,
//     not counted as a message;
//   - NoOverlap posts with the Blocking charge.
//
// Send order is the plan order: loop-major, then (per-array layout)
// slot-major, then peers ascending.  The receive requests follow the
// same order, which is what the simulator's slice-order WaitAny drains
// in, so simulated clocks are deterministic; wall-clock backends drain
// in completion order, which cannot change results because senders
// write disjoint buffer regions.

// payloadPool recycles executor message buffers.  It must be shared by
// every engine (a buffer is acquired by the sender and released by the
// receiver after unpacking), so it is package-global; being a plain
// free list rather than a sync.Pool, it never drops buffers, and a
// warmed communication pattern replays without allocating.
var payloadPool comm.BufPool

// section is one loop's data for one peer: array slots [lo, hi) of the
// window loop at position loop.  n is the element count, tag the
// message tag, and cont marks a Continuation of an envelope an earlier
// loop of the same window started.
type section struct {
	loop, q int
	lo, hi  int
	n       int
	tag     machine.Tag
	cont    bool
}

// sectionPlan is the precomputed send/drain layout of one window,
// flattened so warm replay walks slices and allocates nothing.  It is
// immutable once built: a one-loop plan for the default layout lives
// on its Schedule (and is shared wherever the schedule is); every
// other plan — fused windows, and the NoCombine layout — lives in the
// engine's bounded plan store, keyed by (and verified against) the
// component schedules, so a rebuilt or redistributed schedule can
// never replay a stale plan.
type sectionPlan struct {
	scheds []*Schedule
	sends  []section

	// Receive side: recvs[i] is what request reqs[i] delivers; loop k's
	// sections occupy [recvStart[k], recvStart[k+1]).
	recvs     []section
	reqs      []machine.Request
	recvStart []int
}

// planCap bounds the per-engine plan store.  Plans are pure functions
// of their component schedules, so eviction is only a rebuild cost;
// the counter makes thrashing visible.
const planCap = 32

// matches verifies a cached plan against the window's schedules
// pointer-wise, guarding against sid-hash collisions.  The layout
// needs no check: NoCombine windows hold one loop, and one-loop
// default-layout windows never consult the store, so a stored plan's
// loop count determines its layout.
func (p *sectionPlan) matches(scheds []*Schedule) bool {
	if len(p.scheds) != len(scheds) {
		return false
	}
	for i, s := range scheds {
		if p.scheds[i] != s {
			return false
		}
	}
	return true
}

// buildPlan lays out the sections of a window of loops with the given
// schedules (cold path).  perArray selects the NoCombine layout, which
// only one-loop windows use.
func buildPlan(scheds []*Schedule, perArray bool) *sectionPlan {
	p := &sectionPlan{
		scheds:    append([]*Schedule(nil), scheds...),
		recvStart: make([]int, len(scheds)+1),
	}
	for k, s := range scheds {
		tag := machine.TagData
		if len(scheds) > 1 {
			tag = machine.FusedTag(k)
		}
		p.recvStart[k] = len(p.recvs)
		p.sends = loopSections(p.sends, s, k, tag, perArray, true)
		p.recvs = loopSections(p.recvs, s, k, tag, perArray, false)
	}
	p.recvStart[len(scheds)] = len(p.recvs)
	p.reqs = make([]machine.Request, len(p.recvs))
	for i, r := range p.recvs {
		p.reqs[i] = machine.Request{From: r.q, Tag: r.tag, Cont: r.cont}
	}
	return p
}

// loopSections appends the sections window loop k (schedule s) sends
// (send) or receives, in send order, read straight off the slots'
// range records, which are sorted by peer: per-array, one per (slot,
// peer), slot-major with peers ascending; combined, one per peer
// carrying every slot, peers ascending.  A combined section to a peer
// that an earlier loop's sections (dst so far) already reach is a
// continuation.
func loopSections(dst []section, s *Schedule, k int, tag machine.Tag, perArray, send bool) []section {
	base := len(dst)
	for sl, as := range s.arrays {
		rs := as.in.Ranges
		if send {
			rs = as.out.Ranges
		}
		for _, r := range rs {
			q := r.FromProc
			if send {
				q = r.ToProc
			}
			var i int
			if perArray {
				i = len(dst) - 1
				if i < base || dst[i].lo != sl || dst[i].q != q {
					i = len(dst)
					dst = append(dst, section{loop: k, q: q, lo: sl, hi: sl + 1, tag: tagFor(sl)})
				}
			} else {
				i = base
				for i < len(dst) && dst[i].q < q {
					i++
				}
				if i == len(dst) || dst[i].q != q {
					cont := slices.ContainsFunc(dst[:base], func(sc section) bool { return sc.q == q })
					dst = slices.Insert(dst, i, section{loop: k, q: q, hi: len(s.arrays), tag: tag, cont: cont})
				}
			}
			dst[i].n += r.Len()
		}
	}
	return dst
}

// planFor returns the window's plan: a one-loop window in the default
// layout uses its schedule's own plan; any other window's plan comes
// from the engine's bounded store, built on miss (or on a hash
// collision, which the pointer check downgrades to a miss), so only
// fusion and the NoCombine ablation pay for laying one out.
func (e *Engine) planFor(scheds []*Schedule) *sectionPlan {
	if len(scheds) == 1 && !e.NoCombine {
		return scheds[0].combined
	}
	key := planKeyOf(scheds)
	if p, ok := e.plans.Get(key); ok && p.matches(scheds) {
		return p
	}
	p := buildPlan(scheds, e.NoCombine)
	e.plans.Put(key, p)
	return p
}

// planKeyOf fingerprints the window's schedule tuple by the schedules'
// process-wide ids.
func planKeyOf(scheds []*Schedule) uint64 {
	h := dist.FingerprintSeed
	h = mixInt(h, len(scheds))
	for _, s := range scheds {
		h = dist.MixFingerprint(h, s.sid)
	}
	return h
}

// window is the executor's scratch: the lowered loops, the current
// window's schedules, and per window position the loop's read arrays
// bound to its schedule slots and a receive buffer per slot; the
// drain flags of the current plan's receive requests; the write set
// used to find window boundaries; and the Env — all with recycled
// backing so warm replay allocates nothing.  Buffers are held per
// position, not per schedule, so two window loops sharing one
// schedule still receive into distinct buffers.
type window struct {
	cores  []loopCore
	scheds []*Schedule
	slots  [][]*darray.Array
	bufs   [][][]float64
	done   []bool
	writes []*darray.Array
	env    Env
}

// acquire hands out the engine's window scratch sized for n loops, or
// a fresh one if a Run is already active on this engine (a nested Run
// from inside a loop body).
func (e *Engine) acquire(n int) *window {
	w := &e.win
	if e.inRun {
		w = new(window)
	}
	e.inRun = true
	if cap(w.cores) < n {
		w.cores = make([]loopCore, n)
	}
	w.cores = w.cores[:n]
	return w
}

// release returns the scratch (a no-op for nested fresh windows).
func (e *Engine) release(w *window) {
	if w == &e.win {
		e.inRun = false
	}
}

// bind prepares the window's per-position state for loops cores with
// schedules scheds and plan p: each loop's read arrays in slot order
// (the same first-appearance order assembleArrays built the slots in,
// so a shared schedule executes correctly against whichever loop
// adopted it), a receive buffer per slot sized to its in set, and
// cleared drain flags.  Backing only ever grows, so a warm window
// allocates nothing.
func (w *window) bind(cores []loopCore, scheds []*Schedule, p *sectionPlan) {
	n := len(cores)
	w.slots = slices.Grow(w.slots[:0], n)[:n]
	w.bufs = slices.Grow(w.bufs[:0], n)[:n]
	for k := range cores {
		w.slots[k] = appendDistinct(w.slots[k][:0], cores[k].reads)
		arrays := scheds[k].arrays
		bufs := slices.Grow(w.bufs[k][:0], len(arrays))[:len(arrays)]
		for sl, as := range arrays {
			bufs[sl] = slices.Grow(bufs[sl][:0], as.in.Total)[:as.in.Total]
		}
		w.bufs[k] = bufs
	}
	w.done = slices.Grow(w.done[:0], len(p.recvs))[:len(p.recvs)]
	clear(w.done)
}

// runWindow executes one window of loops: acquire every loop's
// schedule, post all sections, then run the loops in program order,
// each draining its own sections before its boundary pass.  Warm
// replay allocates nothing: the Env, write log, plan, receive buffers
// and message payloads are all reused.
func (e *Engine) runWindow(w *window, cores []loopCore) {
	scheds := w.scheds[:0]
	for k := range cores {
		scheds = append(scheds, e.schedule(&cores[k]))
	}
	w.scheds = scheds
	p := e.planFor(scheds)
	w.bind(cores, scheds, p)

	// A one-loop window posts inside its loop's phase interval.  A fused
	// window posts under its first loop's phase, then times each loop
	// on its own.
	fused := len(cores) > 1
	ph := phaseOf(&cores[0])
	e.node.StartPhase(ph)
	e.post(p, w.slots)
	if fused {
		e.node.StopPhase(ph)
		e.fusedWindows++
	}
	env := &w.env
	for k := range cores {
		c, s := &cores[k], scheds[k]
		if fused {
			ph = phaseOf(c)
			e.node.StartPhase(ph)
		}
		env.reset(e, c, s, modeExecLocal)
		env.arrays, env.bufs = w.slots[k], w.bufs[k]
		for _, it := range s.execLocal {
			e.node.Charge(machine.Cost{LoopIters: 1})
			c.run(it, env)
		}
		e.drain(w, cores, p, k)
		env.mode = modeExecNonlocal
		for kk, it := range s.execNonlocal {
			e.node.Charge(machine.Cost{LoopIters: 1})
			if c.enumerate {
				env.enumList = s.enum[kk]
				env.enumPos = 0
			}
			c.run(it, env)
		}
		// Write2 records coordinates so rank-2 commits skip the
		// linear-index decomposition.
		for _, wr := range env.writes {
			if wr.i != 0 {
				wr.a.Set2(wr.i, wr.j, wr.v)
			} else {
				wr.a.SetLinear(wr.g, wr.v)
			}
		}
		env.writes = env.writes[:0]
		e.node.StopPhase(ph)
	}
}

// post packs and sends every section of the plan in plan order: one
// bulk copy per out-set range into a pooled payload.  The per-byte
// message charge (paid at both ends) covers the pack/unpack copies.
// Posting a fused window loop-major makes the first loop's sections
// enter the network interface at exactly the clocks a one-loop window
// would post them, and later loops' sections follow on the same
// timeline instead of waiting out the intervening compute.
func (e *Engine) post(p *sectionPlan, slots [][]*darray.Array) {
	for i := range p.sends {
		sc := &p.sends[i]
		s, arrays := p.scheds[sc.loop], slots[sc.loop]
		pb := payloadPool.Get(sc.n)
		off := 0
		for sl := sc.lo; sl < sc.hi; sl++ {
			off += s.arrays[sl].out.PackInto(sc.q, pb.Vals[off:], arrays[sl].CopyLinearRange)
		}
		mode := machine.Posted
		if e.NoOverlap {
			mode = machine.Blocking
		} else if sc.cont {
			mode = machine.Continuation
		}
		e.node.Post(sc.q, sc.tag, pb, 8*off, mode)
	}
}

// drain completes window loop k's sections before its boundary pass.
// Completion order is the transport's (slice order on the simulator,
// physical arrival order on wall-clock backends), so a section of a
// later window loop may complete first; it is unpacked at once into
// that loop's own buffers, which no earlier loop reads.
func (e *Engine) drain(w *window, cores []loopCore, p *sectionPlan, k int) {
	hi := p.recvStart[k+1]
	left := 0
	for i := p.recvStart[k]; i < hi; i++ {
		if !w.done[i] {
			left++
		}
	}
	for left > 0 {
		i, msg := e.node.WaitAny(p.reqs, w.done)
		w.done[i] = true
		e.unpack(w, cores, p, i, msg)
		if i < hi {
			left--
		}
	}
}

// unpack scatters received section i into its window loop's receive
// buffers, one bulk copy per in-set range, and returns the payload to
// the pool.
func (e *Engine) unpack(w *window, cores []loopCore, p *sectionPlan, i int, msg machine.Message) {
	r := &p.recvs[i]
	pb := msg.Payload.(*comm.Payload)
	if len(pb.Vals) != r.n {
		panic(fmt.Sprintf("forall %s: section from %d has %d values, schedule expects %d",
			cores[r.loop].name, r.q, len(pb.Vals), r.n))
	}
	bufs := w.bufs[r.loop]
	off := 0
	for sl := r.lo; sl < r.hi; sl++ {
		in := p.scheds[r.loop].arrays[sl].in
		off += in.Unpack(r.q, pb.Vals[off:off+in.CountFrom(r.q)], bufs[sl])
	}
	payloadPool.Put(pb)
}
