package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call.  Depth-0 spans are a solver step or a tenant
// request; depth-1 spans are the layer calls made inside one, on the
// same lane, and share its id.
type span struct {
	name       string
	lane       int   // node id (solvers) or client connection (tenants)
	id         int64 // step or request id
	depth      int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends.  A nil *tracer
// records nothing and never reads the clock, so untraced runs pay
// nothing for the hooks.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin returns the start time of a span (the zero time when off).
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records the span that began at start.
func (t *tracer) end(name string, lane int, id int64, depth int, start time.Time) {
	if t == nil {
		return
	}
	s := span{name: name, lane: lane, id: id, depth: depth,
		start: start.Sub(t.epoch), end: time.Since(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it its children (the depth-1 spans on
// the same lane inside its interval) cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	byLane := map[int][]span{}
	for _, s := range t.spans {
		if s.depth == 1 {
			byLane[s.lane] = append(byLane[s.lane], s)
		}
	}
	for _, ch := range byLane {
		sort.Slice(ch, func(i, j int) bool { return ch[i].start < ch[j].start })
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.end - s.start
		if s.depth == 0 {
			ch := byLane[s.lane]
			k := sort.Search(len(ch), func(i int) bool { return ch[i].start >= s.start })
			for ; k < len(ch) && ch[k].start < s.end; k++ {
				d -= min(ch[k].end, s.end) - ch[k].start
			}
		}
		self[s.name] += d
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format that chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`  // microseconds
	Dur  float64          `json:"dur"` // microseconds
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int64{"id": s.id},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
