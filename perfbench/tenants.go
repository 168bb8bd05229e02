package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kali/internal/core"
	"kali/internal/forall"
	"kali/internal/lang"
	"kali/internal/machine"
	"kali/internal/server"
)

// Load shape of tenants-http.  The server runs the `kalirun -serve`
// defaults except for the pool: Machines pooled sim-backend machines of
// tenantP nodes each (goroutines, not pinned threads).  The client is
// one process with at most clientConns connections.
const (
	tenantP     = 4
	tenantPool  = 2
	clientConns = 2
	// openRate is the open-loop request rate, below the closed-loop
	// capacity measured on a 2-core host at the benchmark's first
	// commit.  It is fixed, so latency is always compared at one load.
	openRate = 150.0
	// freshEvery makes every freshEvery-th request (on average) carry
	// a shape no earlier request had, so the shared store builds
	// beside its hits.
	freshEvery = 40
	// maxClosedRate is the closed-loop rate the request stream is
	// sized for: about twice the capacity of a 2-core host at the
	// benchmark's first commit.
	maxClosedRate = 2000.0
	// loadBlocks is how many open/closed block pairs a measurement
	// alternates.
	loadBlocks = 10
	// setupRepeats is how many server set-ups a run times.
	setupRepeats = 15
	// requestTimeout bounds one request; a request that exceeds it
	// fails.
	requestTimeout = 10 * time.Second
)

// tenantProgram is one corpus program and the constants that set its
// array shapes.
type tenantProgram struct {
	file   string
	consts []string
}

var tenantPrograms = []tenantProgram{
	{"adi.kali", []string{"n"}},
	{"gather.kali", []string{"n"}},
	{"jacobi2d.kali", []string{"nx", "ny"}},
	{"loadbalance.kali", []string{"n"}},
	{"redblack.kali", []string{"n"}},
	{"redblack2d.kali", []string{"n"}},
	{"rowsum.kali", []string{"N", "M"}},
	{"shift.kali", []string{"N"}},
}

// setupProgram indexes the corpus program, unmodified, that set-up
// sends as its first request: jacobi2d uses all four nodes.
const setupProgram = 2

// Shape ranges: the repeated (store-hit) shapes draw each size
// constant from [hitLo, hitHi]; fresh shapes from [freshLo, freshHi].
// Sizes stay small so per-request fixed costs dominate, and at least
// 10 because loadbalance.kali reads a[act+1] with act = 8.
const (
	hitLo, hitHi     = 10, 26
	freshLo, freshHi = 10, 40
	hitShapes        = 16 // repeated shapes per program
)

// shape is one (program, sizes) pair: a distinct request body and its
// oracle.
type shape struct {
	body  string
	print string // every real array of the program, comma-separated
	want  map[string][]float64
	elems int // total elements of the printed arrays
}

// tenantLoad is the generated request stream and its oracles.
type tenantLoad struct {
	first  *shape // the set-up request: a corpus program as committed
	shapes []*shape
	hits   []int // indices of the distinct repeated shapes
	stream []int // shape index per request, in send order
}

// sizeConst matches one size constant's definition line.
func sizeConst(name string) *regexp.Regexp {
	return regexp.MustCompile(`(?m)^(\s*(?:const\s+)?` + regexp.QuoteMeta(name) + `\s*=\s*)\d+(\s*;)`)
}

// newTenantLoad reads the corpus, draws the repeated shapes and a
// stream of n requests from the seed, and computes every shape's
// oracle with a solo Program.Run — all before any timing.
func newTenantLoad(cfg runConfig, n int) (*tenantLoad, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	srcs := make([]string, len(tenantPrograms))
	for i, p := range tenantPrograms {
		b, err := os.ReadFile(filepath.Join(cfg.corpus, p.file))
		if err != nil {
			return nil, fmt.Errorf("reading corpus: %w", err)
		}
		srcs[i] = string(b)
	}
	// Set-up is timed on one fixed request, so it does not vary with
	// the seed's size draws.
	ld := &tenantLoad{first: &shape{body: srcs[setupProgram]}}
	if err := ld.first.oracle(); err != nil {
		return nil, fmt.Errorf("%s: %w", tenantPrograms[setupProgram].file, err)
	}
	seen := map[string]int{}
	add := func(prog int, sizes []int) (int, error) {
		body := srcs[prog]
		for k, name := range tenantPrograms[prog].consts {
			re := sizeConst(name)
			if !re.MatchString(body) {
				return 0, fmt.Errorf("%s: no size constant %s", tenantPrograms[prog].file, name)
			}
			body = re.ReplaceAllString(body, "${1}"+strconv.Itoa(sizes[k])+"${2}")
		}
		if i, ok := seen[body]; ok {
			return i, nil
		}
		sh := &shape{body: body}
		if err := sh.oracle(); err != nil {
			return 0, fmt.Errorf("%s %v: %w", tenantPrograms[prog].file, sizes, err)
		}
		seen[body] = len(ld.shapes)
		ld.shapes = append(ld.shapes, sh)
		return len(ld.shapes) - 1, nil
	}
	draw := func(lo, hi int, prog int) []int {
		s := make([]int, len(tenantPrograms[prog].consts))
		for k := range s {
			s[k] = lo + rng.Intn(hi-lo+1)
		}
		return s
	}
	// The repeated shapes are stratified: the k-th shape of a program
	// draws every size constant from the k-th of hitShapes equal strata
	// of [hitLo, hitHi], so every seed spans the same range of request
	// costs.
	stratum := func(k int) int {
		w := hitHi - hitLo + 1
		lo, hi := hitLo+w*k/hitShapes, hitLo+w*(k+1)/hitShapes
		return lo + rng.Intn(max(hi-lo, 1))
	}
	for prog := range tenantPrograms {
		for k := 0; k < hitShapes; k++ {
			sizes := make([]int, len(tenantPrograms[prog].consts))
			for c := range sizes {
				sizes[c] = stratum(k)
			}
			before := len(ld.shapes)
			i, err := add(prog, sizes)
			if err != nil {
				return nil, err
			}
			if len(ld.shapes) > before {
				ld.hits = append(ld.hits, i)
			}
		}
	}
	// fresh adds a shape no earlier request had, redrawing until the
	// body is new; false means the shape space looks used up.
	fresh := func() (int, bool, error) {
		for tries := 0; tries < 1000; tries++ {
			before := len(ld.shapes)
			prog := rng.Intn(len(tenantPrograms))
			i, err := add(prog, draw(freshLo, freshHi, prog))
			if err != nil || len(ld.shapes) > before {
				return i, err == nil, err
			}
		}
		return 0, false, nil
	}
	// Runs far longer than BENCHMARK.json's can use up the shape space;
	// the rest of their stream repeats shapes, and the facts say how
	// many were fresh.
	exhausted := false
	for len(ld.stream) < n {
		if !exhausted && rng.Intn(freshEvery) == 0 {
			i, ok, err := fresh()
			if err != nil {
				return nil, err
			}
			if ok {
				ld.stream = append(ld.stream, i)
				continue
			}
			exhausted = true
		}
		ld.stream = append(ld.stream, ld.hits[rng.Intn(len(ld.hits))])
	}
	return ld, nil
}

// oracleConfig is the solo run every response is checked against: the
// server's processor count and cost model on a private sim machine.
func oracleConfig() core.Config {
	return core.Config{P: tenantP, Params: machine.NCUBE7(), Backend: "sim"}
}

// oracle runs the shape's program solo and keeps its real arrays.
func (sh *shape) oracle() error {
	prog, err := lang.Compile(sh.body)
	if err != nil {
		return err
	}
	res, err := prog.Run(oracleConfig())
	if err != nil {
		return err
	}
	var names []string
	for name, vals := range res.Arrays {
		names = append(names, name)
		sh.elems += len(vals)
	}
	sort.Strings(names)
	sh.print = strings.Join(names, ",")
	sh.want = res.Arrays
	return nil
}

// check compares a response body with the oracle bit for bit.
func (sh *shape) check(body []byte) error {
	var resp server.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	for name, want := range sh.want {
		got := resp.Arrays[name]
		if len(got) != len(want) {
			return fmt.Errorf("array %s: %d elements, oracle %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("array %s[%d]: got %v, oracle %v", name, i+1, got[i], want[i])
			}
		}
	}
	return nil
}

// tenantServer is one running schedule server on a loopback listener.
type tenantServer struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

// startServer builds the server and serves its handler (wrapped in a
// handler span when tr is non-nil) until stop.
func startServer(tr *tracer) (*tenantServer, error) {
	srv, err := server.New(server.Config{P: tenantP, Machines: tenantPool, Params: machine.NCUBE7(), Backend: "sim"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			b := tr.begin()
			inner.ServeHTTP(w, r)
			id, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Id"), 10, 64)
			lane, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Lane"))
			tr.end("server.handler", lane, id, 1, b)
		})
	}
	ts := &tenantServer{srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ts.done <- ts.http.Serve(ln) }()
	return ts, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (ts *tenantServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := ts.http.Shutdown(ctx)
	if serr := <-ts.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// client sends requests over at most clientConns connections.
type client struct {
	hc *http.Client
	tr *tracer
}

func newClient(tr *tracer) *client {
	return &client{tr: tr, hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send posts shape sh as request id on lane and returns the response
// body; latency is measured by the caller around it.
func (c *client) send(url string, sh *shape, id int64, lane int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/run?print="+sh.print, strings.NewReader(sh.body))
	if err != nil {
		return nil, err
	}
	if c.tr != nil {
		req.Header.Set("X-Perfbench-Id", strconv.FormatInt(id, 10))
		req.Header.Set("X-Perfbench-Lane", strconv.Itoa(lane))
	}
	b := c.tr.begin()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	c.tr.end("request", lane, id, 0, b)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// failedLatency stands for a failed or refused request's latency: it
// exceeds every limit.
const failedLatency = math.MaxFloat64

// tally counts one phase's operations.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	lat       []float64 // ms; failedLatency for failures
	late      []float64 // ms the generator ran behind the due time
	elems     int       // printed array elements of correct responses
	firstErr  error
}

func (t *tally) record(sh *shape, body []byte, err error, latMS float64) {
	if err == nil {
		err = sh.check(body)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		latMS = failedLatency
		if t.firstErr == nil {
			t.firstErr = err
		}
	} else {
		t.elems += sh.elems
	}
	t.lat = append(t.lat, latMS)
}

// nextReq hands out stream positions to the phases in order.
type nextReq struct {
	ld  *tenantLoad
	pos atomic.Int64
}

func (n *nextReq) take() (int64, *shape, bool) {
	i := n.pos.Add(1) - 1
	if i >= int64(len(n.ld.stream)) {
		return 0, nil, false
	}
	return i, n.ld.shapes[n.ld.stream[i]], true
}

// openLoop sends requests at openRate for seconds, each on its own
// goroutine at its due time (the rate bounds the goroutines), and
// times each from its due time to its response into t.
func openLoop(ts *tenantServer, c *client, next *nextReq, t *tally, seconds float64, corrupt bool) {
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < int(math.Ceil(seconds*openRate)); k++ {
		id, sh, ok := next.take()
		if !ok {
			break
		}
		due := start.Add(time.Duration(float64(k) / openRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		t.late = append(t.late, ms(time.Since(due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := c.send(ts.url, sh, id, 2+int(id%16))
			lat := ms(time.Since(due))
			if corrupt && k == 0 {
				body = corruptBody(body)
			}
			t.record(sh, body, err, lat)
		}()
	}
	wg.Wait()
}

// closedLoop runs clientConns senders into t, each sending its next
// request when the previous one completes, for seconds (or until the
// stream runs out), and returns the elapsed time.
func closedLoop(ts *tenantServer, c *client, next *nextReq, t *tally, seconds float64) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for lane := 0; lane < clientConns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				id, sh, ok := next.take()
				if !ok {
					return
				}
				b := time.Now()
				body, err := c.send(ts.url, sh, id, lane)
				t.record(sh, body, err, ms(time.Since(b)))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// corruptBody damages the first number in an arrays payload, so the
// oracle check must catch it.
func corruptBody(body []byte) []byte {
	i := bytes.Index(body, []byte(`"arrays"`))
	if i < 0 {
		return body
	}
	j := bytes.IndexAny(body[i:], "0123456789")
	if j < 0 {
		return body
	}
	out := append([]byte(nil), body...)
	out[i+j] = '0' + (out[i+j]-'0'+1)%10
	return out
}

// tenantPhase is one warm-up plus open-loop plus closed-loop
// measurement.
type tenantPhase struct {
	warm, open, closed *tally
	// Per block: open-loop latency median and 75th percentile, and
	// closed-loop correct responses and printed elements per second.
	blockP50, blockP75    []float64
	blockRuns, blockElems []float64
	storeBefore           forall.StoreStats
	storeAfter            forall.StoreStats
	pool                  [2]struct{ gets, news int64 }
	mallocs, gcs          [2]uint64
}

// measureTenants warms the server's store with every repeated shape
// (checked, untimed), then alternates loadBlocks open-loop blocks (a
// third of seconds in all) with closed-loop blocks (the rest), so a
// slow spell of the host lands on both loops alike, and snapshots the
// server and process counters around the load.
func measureTenants(ts *tenantServer, ld *tenantLoad, next *nextReq, tr *tracer, seconds float64, corrupt bool) *tenantPhase {
	ph := &tenantPhase{warm: &tally{}, open: &tally{}, closed: &tally{}}
	c := newClient(tr)
	defer c.close()
	for k, i := range ld.hits {
		sh := ld.shapes[i]
		body, err := c.send(ts.url, sh, -1-int64(k), 0)
		ph.warm.record(sh, body, err, 0)
	}
	snap := func(k int) {
		var mst runtime.MemStats
		runtime.ReadMemStats(&mst)
		p := forall.PayloadPoolStats()
		ph.pool[k].gets, ph.pool[k].news = p.Gets, p.News
		ph.mallocs[k], ph.gcs[k] = mst.Mallocs, uint64(mst.NumGC)
	}
	ph.storeBefore = ts.srv.Stats().Store
	snap(0)
	for b := 0; b < loadBlocks; b++ {
		n := len(ph.open.lat)
		openLoop(ts, c, next, ph.open, seconds/3/loadBlocks, corrupt && b == 0)
		lat := append([]float64(nil), ph.open.lat[n:]...)
		ph.blockP50 = append(ph.blockP50, quantile(lat, 0.5))
		ph.blockP75 = append(ph.blockP75, quantile(lat, 0.75))
		good, elems := ph.closed.attempted-ph.closed.failed, ph.closed.elems
		d := closedLoop(ts, c, next, ph.closed, seconds*2/3/loadBlocks).Seconds()
		ph.blockRuns = append(ph.blockRuns, float64(ph.closed.attempted-ph.closed.failed-good)/d)
		ph.blockElems = append(ph.blockElems, float64(ph.closed.elems-elems)/d)
	}
	snap(1)
	ph.storeAfter = ts.srv.Stats().Store
	return ph
}

// setupServer times one set-up: server.New to the first correct
// response, which t records.  The server is returned running; the
// set-up time is valid only if t gained no failure.
func setupServer(ld *tenantLoad, tr *tracer, t *tally) (*tenantServer, float64, error) {
	t0 := time.Now()
	ts, err := startServer(tr)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(nil)
	defer c.close()
	sh := ld.first
	body, err := c.send(ts.url, sh, -1, 0)
	setup := time.Since(t0).Seconds()
	t.record(sh, body, err, setup*1e3)
	return ts, setup, nil
}

// runTenants is the tenants-http workload.
func runTenants(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	hostFacts(o, cfg)
	o.facts["P"] = tenantP
	o.facts["backend"] = "sim"
	o.facts["machines"] = tenantPool
	o.facts["client_conns"] = clientConns
	o.facts["open_rate_per_s"] = openRate
	o.facts["fresh_share"] = 1.0 / freshEvery
	// The stream is long enough for the open loops plus closed loops
	// at up to maxClosedRate; a closed loop that exhausts it ends early
	// and reports its rate over the time it ran.
	n := int(cfg.seconds/3*openRate) + int(cfg.seconds*2/3*maxClosedRate)
	ld, err := newTenantLoad(cfg, n)
	if err != nil {
		return nil, err
	}
	o.facts["shapes"] = len(ld.shapes)
	o.facts["fresh_shapes"] = len(ld.shapes) - len(ld.hits)
	// The oracles stay resident; the peak counts from here on.
	debug.FreeOSMemory()
	resetPeakRSS()
	bytesTotal := 0
	for _, sh := range ld.shapes {
		bytesTotal += 8 * sh.elems
	}
	o.facts["array_bytes"] = bytesTotal

	var setups []float64
	var ts *tenantServer
	first := &tally{}
	for k := 0; k < setupRepeats; k++ {
		if ts != nil {
			if err := ts.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // each set-up starts from a collected heap, untimed
		failed := first.failed
		var setup float64
		if ts, setup, err = setupServer(ld, nil, first); err != nil {
			return nil, err
		}
		if first.failed == failed {
			setups = append(setups, setup)
		}
	}
	next := &nextReq{ld: ld}
	var plain, ph *tenantPhase
	if cfg.trace {
		// Half the time untraced, half traced on a new server whose
		// handler is wrapped in spans.
		plain = measureTenants(ts, ld, next, nil, cfg.seconds/2, cfg.corrupt)
		if err := ts.stop(); err != nil {
			return nil, err
		}
		o.spans = newTracer()
		if ts, _, err = setupServer(ld, o.spans, first); err != nil {
			return nil, err
		}
		ph = measureTenants(ts, ld, next, o.spans, cfg.seconds/2, false)
	} else {
		ph = measureTenants(ts, ld, next, nil, cfg.seconds, cfg.corrupt)
	}
	tallies := []*tally{first, ph.warm, ph.open, ph.closed}
	if plain != nil {
		tallies = append(tallies, plain.warm, plain.open, plain.closed)
	}
	for _, t := range tallies {
		o.attempted += t.attempted
		o.failed += t.failed
		if t.firstErr != nil {
			fmt.Fprintf(cfg.log, "WRONG ANSWER: %v\n", t.firstErr)
		}
	}
	o.e2e("setup_s", median(setups), "s")
	// Each figure is the median over blocks of the block's own, which a
	// slow spell of the host during a few blocks does not move.
	o.e2e("run_ms_p50", median(ph.blockP50), "ms")
	o.e2e("run_ms_p75", median(ph.blockP75), "ms")
	o.e2e("runs_per_s", median(ph.blockRuns), "1/s")
	o.e2e("updates_per_s", median(ph.blockElems), "1/s")
	o.e2e("peak_rss_mb", peakRSSMB(), "MB")
	o.facts["open_requests"] = ph.open.attempted
	o.facts["closed_requests"] = ph.closed.attempted
	if cfg.trace {
		tenantLayers(ld, plain, ph, o)
	}
	return o, ts.stop()
}

// tenantLayers derives the per-layer metrics of the traced phase.
func tenantLayers(ld *tenantLoad, plain, ph *tenantPhase, o *outcome) {
	// lang: parse and check every distinct body, and run each solo.
	var parse, check, run []float64
	for i, sh := range ld.shapes {
		b := o.spans.begin()
		f, err := lang.Parse(sh.body)
		o.spans.end("lang.Parse", -1, int64(i), 0, b)
		parse = append(parse, float64(time.Since(b))/1e3)
		if err != nil {
			continue
		}
		b = o.spans.begin()
		_ = lang.Check(f) // every corpus body already compiled for its oracle
		o.spans.end("lang.Check", -1, int64(i), 0, b)
		check = append(check, float64(time.Since(b))/1e3)
		if prog, err := lang.Compile(sh.body); err == nil {
			b = time.Now()
			if _, err := prog.Run(oracleConfig()); err == nil {
				run = append(run, ms(time.Since(b)))
			}
		}
	}
	o.layer("lang.parse_us", median(parse), "us")
	o.layer("lang.check_us", median(check), "us")
	o.layer("lang.run_ms", median(run), "ms")

	// server: handler time, and the wire time around it, matched by
	// request id over the closed loop (no generator queueing there).
	handler := map[int64]time.Duration{}
	var hs []float64
	for _, s := range o.spans.spans {
		if s.name == "server.handler" {
			handler[s.id] = s.end - s.start
			hs = append(hs, ms(s.end-s.start))
		}
	}
	var wire []float64
	for _, s := range o.spans.spans {
		if h, ok := handler[s.id]; ok && s.name == "request" && s.lane < clientConns {
			wire = append(wire, ms(s.end-s.start-h))
		}
	}
	o.layer("server.handler_ms_p50", quantile(hs, 0.5), "ms")
	o.layer("server.wire_ms_p50", quantile(wire, 0.5), "ms")
	hits := float64(ph.storeAfter.Hits - ph.storeBefore.Hits)
	builds := float64(ph.storeAfter.Builds - ph.storeBefore.Builds)
	o.layer("server.store_hit_ratio", ratio(hits, hits+builds), "ratio")
	o.layer("server.store_waits", float64(ph.storeAfter.Waits-ph.storeBefore.Waits), "count")
	o.layer("forall.builds", builds, "count")
	o.layer("forall.cache_hits", hits, "count")
	o.layer("loadgen.late_ms_p99", quantile(plain.open.late, 0.99), "ms")

	// Per request ("step") counters over the load.
	reqs := float64(ph.open.attempted + ph.closed.attempted)
	gets := float64(ph.pool[1].gets - ph.pool[0].gets)
	news := float64(ph.pool[1].news - ph.pool[0].news)
	o.layer("comm.pool_news_per_step", news/reqs, "count")
	o.layer("comm.pool_hit_ratio", ratio(gets-news, gets), "ratio")
	o.layer("go.allocs_per_step", float64(ph.mallocs[1]-ph.mallocs[0])/reqs, "count")
	o.layer("go.gc_cycles", float64(ph.gcs[1]-ph.gcs[0]), "count")
	o.layer("trace.overhead_pct", 100*(median(ph.blockP50)/median(plain.blockP50)-1), "%")

	// The solver layers this workload bypasses (or runs only on the
	// sim backend, whose times are predictions, not measurements).
	for _, n := range []string{"forall.build_s", "forall.schedule_kb", "forall.exec_ns_per_update",
		"forall.seq_self_ns_per_update", "forall.nonlocal_iter_frac", "forall.overhead_x",
		"kernel.seq_ns_per_update", "darray.redist_ms_per_step", "darray.redist_plan_builds",
		"darray.redist_plan_hits", "machine.msgs_per_step", "machine.bytes_per_step",
		"machine.redist_bytes_per_step", "machine.fused_msgs_per_step",
		"machine.barrier_wait_ms_per_step", "step.self_ms_per_step", "sim.exec_err_pct"} {
		o.layer(n, 0, layerUnits[n])
	}
}
