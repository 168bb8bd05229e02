// Package wallclock is the real shared-memory backend of the machine:
// nodes are goroutines pinned to OS threads, messages move through
// per-pair in-memory queues, and elapsed time is measured with the
// host's monotonic clock.  Modeled time charges (Advance, Charge) are
// no-ops — the operations being charged just happened for real.
//
// The same compiled schedules the paper's inspector/executor builds
// (§3) run here unmodified; only the node runtime differs, turning
// the simulator's predicted speedups (§4, Figures 7–10) into measured
// ones.  Message queues are
// unbounded (a send never blocks), per ordered sender→receiver pair,
// and reuse their backing arrays once drained, so steady-state
// schedule replay allocates nothing in the transport.
package wallclock

import (
	"time"

	"kali/internal/machine"
)

// transport is the wall-clock machine.Transport.
type transport struct {
	p int

	// queues[to*p+from] carries messages from `from` to `to`.
	queues []queue

	// notify[me] wakes node me's completion-order drain: every push
	// toward me bumps its sequence number, so WaitAny can poll all
	// outstanding peers and sleep on one condition variable instead of
	// committing to a single queue.
	notify []notify

	barrier    *barrier
	reduceVals []float64

	epoch time.Time
	// finished[me] freezes node me's elapsed time when its program
	// returns, so MaxElapsed is stable after the run.  Written by node
	// me in Done, read after Machine.Run's WaitGroup (happens-before).
	finished []float64
	done     []bool
}

// New builds a wall-clock machine with p nodes.  The params are kept
// for reporting only (machine name in tables); no cost is ever
// charged from them.
func New(p int, params machine.Params) (*machine.Machine, error) {
	tr := &transport{
		p:          p,
		barrier:    newBarrier(p),
		reduceVals: make([]float64, maxInt(p, 0)),
		finished:   make([]float64, maxInt(p, 0)),
		done:       make([]bool, maxInt(p, 0)),
	}
	if p > 0 {
		tr.queues = make([]queue, p*p)
		for i := range tr.queues {
			tr.queues[i].init()
		}
		tr.notify = make([]notify, p)
		for i := range tr.notify {
			tr.notify[i].init()
		}
	}
	return machine.NewWith(p, params, tr)
}

// MustNew is New that panics on error.
func MustNew(p int, params machine.Params) *machine.Machine {
	m, err := New(p, params)
	if err != nil {
		panic(err)
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (t *transport) Backend() string { return "wall" }
func (t *transport) Virtual() bool   { return false }

func (t *transport) Begin() {
	t.epoch = time.Now()
	for i := range t.done {
		t.done[i] = false
		t.finished[i] = 0
	}
}

func (t *transport) Done(me int) {
	t.finished[me] = time.Since(t.epoch).Seconds()
	t.done[me] = true
}

func (t *transport) Elapsed(me int) float64 {
	if t.done[me] {
		return t.finished[me]
	}
	return time.Since(t.epoch).Seconds()
}

func (t *transport) MaxElapsed() float64 {
	max := 0.0
	for me := range t.finished {
		if e := t.Elapsed(me); e > max {
			max = e
		}
	}
	return max
}

// Advance is a no-op: real operations take real time.
func (t *transport) Advance(me int, seconds float64) {}

// Send ignores the mode: pushes already complete without rendezvous on
// this backend, so posted semantics hold for free.  The real overlap is
// on the receive side — WaitAny lets the boundary pass consume
// whichever peer finishes first instead of blocking on a fixed order.
func (t *transport) Send(me, to int, msg machine.Message, _ machine.SendMode) {
	t.queues[to*t.p+me].push(msg)
	t.notify[to].bump()
}

func (t *transport) Recv(me, from int, tag machine.Tag) machine.Message {
	return t.queues[me*t.p+from].pop(tag)
}

// WaitAny polls every outstanding request's queue and returns the
// first message found; if none is ready it sleeps on the node's
// notify cond until a new push (or Poison) arrives, then rescans.
// Completion order is physical arrival order, so one slow peer never
// blocks the drain of messages that are already here.  Steady-state
// replay allocates nothing here.
func (t *transport) WaitAny(me int, reqs []machine.Request, done []bool) (int, machine.Message) {
	n := &t.notify[me]
	for {
		seq := n.snapshot()
		any := false
		for i := range reqs {
			if done[i] {
				continue
			}
			any = true
			if msg, ok := t.queues[me*t.p+reqs[i].From].tryPop(reqs[i].Tag); ok {
				return i, msg
			}
		}
		if !any {
			panic("wallclock: WaitAny with no outstanding request")
		}
		n.wait(seq)
	}
}

func (t *transport) Barrier(me int) { t.barrier.wait() }

// AllReduce combines one float64 from every node in node-id order
// (the same deterministic order as the simulator, so results are
// bit-identical across backends).
func (t *transport) AllReduce(me int, x float64, op string) float64 {
	t.reduceVals[me] = x
	t.barrier.wait() // all writes published (barrier's mutex orders them)
	acc := machine.ReduceByID(t.reduceVals, op)
	// Second rendezvous so no node races ahead and overwrites the
	// scratch values of a subsequent AllReduce.
	t.barrier.wait()
	return acc
}

func (t *transport) Poison() {
	t.barrier.poison()
	for i := range t.queues {
		t.queues[i].poison()
	}
	for i := range t.notify {
		t.notify[i].poison()
	}
}

func (t *transport) Reset() {
	t.barrier.reset()
	for i := range t.queues {
		t.queues[i].reset()
	}
	for i := range t.notify {
		t.notify[i].reset()
	}
	for i := range t.done {
		t.done[i] = false
		t.finished[i] = 0
	}
	t.epoch = time.Now()
}
