// Package comm implements Kali's communication-set representation.
//
// The paper (Figure 5) stores the in(p,q) and out(p,q) sets as
// dynamically-allocated sorted arrays of records, each describing one
// contiguous block of a distributed array held on one processor:
//
//	record
//	    from_proc: integer;  -- sending processor
//	    to_proc:   integer;  -- receiving processor
//	    low:       integer;  -- lower bound of range
//	    high:      integer;  -- upper bound of range
//	    buffer:    ^real;    -- pointer to message buffer
//	end;
//
// The in set is sorted on from_proc with low as the secondary key;
// adjacent ranges are combined to minimize the number of records; an
// individual element is then found by binary search in O(log r) time.
// This package reproduces that representation (the buffer pointer
// becomes an offset into a receive buffer) and the derived operations:
// building, merging, searching, and packing/unpacking message data.
// Pack/unpack are vectorized: every record covers a contiguous block
// whose owner stores it densely, so PackInto and Unpack move one whole
// range per copy instead of gathering element by element, and a
// machine-wide BufPool recycles message payloads so that replaying a
// cached schedule allocates nothing.
package comm

import (
	"fmt"
	"sort"
)

// Range is one record of a communication set: the contiguous block of
// global indices [Low, High] of some array, stored on FromProc and
// needed by ToProc.  Buf is the offset of the block's first element in
// the receiver's communication buffer (only meaningful for in sets).
type Range struct {
	FromProc int
	ToProc   int
	Low      int
	High     int
	Buf      int
}

// Len returns the number of elements covered by the record.
func (r Range) Len() int { return r.High - r.Low + 1 }

func (r Range) String() string {
	return fmt.Sprintf("{%d->%d [%d..%d] @%d}", r.FromProc, r.ToProc, r.Low, r.High, r.Buf)
}

// InSet is a processor's receive schedule: for each element it needs
// from another processor, which processor sends it and where it lands
// in the local communication buffer.
type InSet struct {
	Ranges []Range // sorted by (FromProc, Low), adjacent ranges merged
	Total  int     // total number of elements received
}

// OutSet is a processor's send schedule: which of its local elements go
// to which processor.  Sorted by (ToProc, Low).
type OutSet struct {
	Ranges []Range
	Total  int
}

// Builder accumulates nonlocal references during the inspector pass and
// produces the normalized InSet.  Inserting the same element twice is
// harmless (it is recorded once), matching the paper's set semantics.
type Builder struct {
	me    int
	elems map[int]int // global index -> home processor
}

// NewBuilder creates a Builder for receiving processor me.
func NewBuilder(me int) *Builder {
	return &Builder{me: me, elems: map[int]int{}}
}

// Add records that global element g, stored on processor home, is
// needed locally.  It returns true when the element was not already
// recorded (so callers can charge list-insert cost only for new
// entries, as the paper's implementation does).
func (b *Builder) Add(g, home int) bool {
	if home == b.me {
		panic("comm: Add of a local element")
	}
	if old, ok := b.elems[g]; ok {
		if old != home {
			panic(fmt.Sprintf("comm: element %d recorded with two homes %d and %d", g, old, home))
		}
		return false
	}
	b.elems[g] = home
	return true
}

// Count returns the number of distinct elements recorded so far.
func (b *Builder) Count() int { return len(b.elems) }

// Finalize sorts the recorded elements by (home, index), merges
// adjacent indices from the same home into single records, and assigns
// buffer offsets.  This is the paper's in-set construction.
func (b *Builder) Finalize() *InSet {
	type elem struct{ g, home int }
	es := make([]elem, 0, len(b.elems))
	for g, home := range b.elems {
		es = append(es, elem{g, home})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].home != es[j].home {
			return es[i].home < es[j].home
		}
		return es[i].g < es[j].g
	})
	in := &InSet{Total: len(es)}
	for _, e := range es {
		if n := len(in.Ranges); n > 0 {
			last := &in.Ranges[n-1]
			if last.FromProc == e.home && last.High+1 == e.g {
				last.High = e.g // combine adjacent ranges
				continue
			}
		}
		in.Ranges = append(in.Ranges, Range{
			FromProc: e.home,
			ToProc:   b.me,
			Low:      e.g,
			High:     e.g,
			Buf:      len(in.Ranges), // placeholder, fixed below
		})
	}
	off := 0
	for i := range in.Ranges {
		in.Ranges[i].Buf = off
		off += in.Ranges[i].Len()
	}
	return in
}

// Find locates global element g coming from processor home and returns
// its offset in the communication buffer, using binary search over the
// (FromProc, Low)-sorted records.  The second result is false when the
// element is not in the set.  Probes returns alongside so callers can
// charge the simulated O(log r) search cost.
func (s *InSet) Find(home, g int) (buf int, ok bool) {
	i := sort.Search(len(s.Ranges), func(i int) bool {
		r := s.Ranges[i]
		if r.FromProc != home {
			return r.FromProc > home
		}
		return r.High >= g
	})
	if i >= len(s.Ranges) {
		return 0, false
	}
	r := s.Ranges[i]
	if r.FromProc != home || g < r.Low || g > r.High {
		return 0, false
	}
	return r.Buf + (g - r.Low), true
}

// NumRanges returns the record count r used in the O(log r) search.
func (s *InSet) NumRanges() int { return len(s.Ranges) }

// Senders returns the distinct sending processors in ascending order.
func (s *InSet) Senders() []int {
	var out []int
	for _, r := range s.Ranges {
		if len(out) == 0 || out[len(out)-1] != r.FromProc {
			out = append(out, r.FromProc)
		}
	}
	return out
}

// RangesFrom returns the records sourced from processor q.
func (s *InSet) RangesFrom(q int) []Range {
	lo := sort.Search(len(s.Ranges), func(i int) bool { return s.Ranges[i].FromProc >= q })
	hi := lo
	for hi < len(s.Ranges) && s.Ranges[hi].FromProc == q {
		hi++
	}
	return s.Ranges[lo:hi]
}

// BuildOut assembles a processor's OutSet from the collections of
// in-records that name it as FromProc, as delivered by the global
// exchange ("out(p,q) = in(q,p)": the transposition the paper performs
// with the Crystal router).  Records are sorted by (ToProc, Low) with
// adjacent ranges merged.
func BuildOut(me int, received []Range) *OutSet {
	rs := append([]Range(nil), received...)
	for _, r := range rs {
		if r.FromProc != me {
			panic(fmt.Sprintf("comm: out record %v not sourced at %d", r, me))
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].ToProc != rs[j].ToProc {
			return rs[i].ToProc < rs[j].ToProc
		}
		return rs[i].Low < rs[j].Low
	})
	out := &OutSet{}
	for _, r := range rs {
		if n := len(out.Ranges); n > 0 {
			last := &out.Ranges[n-1]
			if last.ToProc == r.ToProc && last.High+1 == r.Low {
				last.High = r.High
				out.Total += r.Len()
				continue
			}
		}
		out.Ranges = append(out.Ranges, r)
		out.Total += r.Len()
	}
	return out
}

// Receivers returns the distinct destination processors in ascending
// order.
func (s *OutSet) Receivers() []int {
	var out []int
	for _, r := range s.Ranges {
		if len(out) == 0 || out[len(out)-1] != r.ToProc {
			out = append(out, r.ToProc)
		}
	}
	return out
}

// RangesTo returns the records destined for processor q.
func (s *OutSet) RangesTo(q int) []Range {
	lo := sort.Search(len(s.Ranges), func(i int) bool { return s.Ranges[i].ToProc >= q })
	hi := lo
	for hi < len(s.Ranges) && s.Ranges[hi].ToProc == q {
		hi++
	}
	return s.Ranges[lo:hi]
}

// CountTo returns the number of elements destined for processor q.
func (s *OutSet) CountTo(q int) int {
	n := 0
	for _, r := range s.RangesTo(q) {
		n += r.Len()
	}
	return n
}

// CountFrom returns the number of elements expected from processor q.
func (s *InSet) CountFrom(q int) int {
	n := 0
	for _, r := range s.RangesFrom(q) {
		n += r.Len()
	}
	return n
}

// PackInto fills dst with the values of all records destined to q, one
// bulk copyRange call per record (copyRange must copy the local values
// of global indices [lo..hi] into its dst argument).  Because every
// record covers a contiguous block of global indices whose owner packs
// them densely, each record is a single memcpy-style copy rather than a
// per-element gather.  It returns the number of values packed; dst must
// have at least CountTo(q) elements.
func (s *OutSet) PackInto(q int, dst []float64, copyRange func(lo, hi int, dst []float64)) int {
	n := 0
	for _, r := range s.RangesTo(q) {
		copyRange(r.Low, r.High, dst[n:n+r.Len()])
		n += r.Len()
	}
	return n
}

// Unpack scatters a payload received from q into the communication
// buffer according to the in set's records for q — one bulk copy per
// record, since each record's elements land contiguously at its Buf
// offset.  It returns the number of values consumed and panics if the
// payload size mismatches the schedule.
func (s *InSet) Unpack(q int, payload []float64, buf []float64) int {
	n := 0
	for _, r := range s.RangesFrom(q) {
		n += copy(buf[r.Buf:r.Buf+r.Len()], payload[n:n+r.Len()])
	}
	if n != len(payload) {
		panic(fmt.Sprintf("comm: payload from %d has %d values, schedule expects %d", q, len(payload), n))
	}
	return n
}
