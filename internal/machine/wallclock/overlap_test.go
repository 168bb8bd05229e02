package wallclock

import (
	"testing"

	"kali/internal/machine"
)

// TestWaitAnyCompletionOrder: the wall-clock drain must complete
// whichever peer's message physically arrives first.  Node 1 only
// sends after node 0 has consumed node 2's message, so a fixed-order
// drain (receive from 1, then 2) would deadlock here; WaitAny
// returning node 2's request first is what breaks the cycle.
func TestWaitAnyCompletionOrder(t *testing.T) {
	m := MustNew(3, machine.Ideal())
	gate := make(chan struct{})
	firstIdx := -1
	m.Run(func(n *machine.Node) {
		switch n.ID() {
		case 0:
			reqs := []machine.Request{
				{From: 1, Tag: machine.TagUser},
				{From: 2, Tag: machine.TagUser},
			}
			done := make([]bool, 2)
			i, _ := n.WaitAny(reqs, done)
			done[i] = true
			firstIdx = i
			close(gate) // node 2's message consumed; release node 1
			n.WaitAny(reqs, done)
		case 1:
			<-gate
			n.Send(0, machine.TagUser, nil, 8)
		case 2:
			n.Send(0, machine.TagUser, nil, 8)
		}
	})
	if firstIdx != 1 {
		t.Fatalf("first completed request %d, want 1 (node 2's message arrived first)", firstIdx)
	}
}
