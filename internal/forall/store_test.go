package forall

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"kali/internal/analysis"
	"kali/internal/comm"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/machine"
	"kali/internal/machine/sim"
	"kali/internal/topology"
)

// shiftRun is what runShiftWithStore observed: the gathered array,
// builds and store hits over all engines, and per node the machine
// Stats, the loop's schedule and its MemBytes.
type shiftRun struct {
	vals             []float64
	builds, storeHit int
	stats            []machine.Stats
	scheds           []*Schedule
	mem              []int
}

// runShiftWithStore runs the Figure 1 shift loop three times on a
// fresh P-node machine whose engines use the given shared store.
func runShiftWithStore(t *testing.T, n, p int, store *SharedStore) shiftRun {
	t.Helper()
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	m := sim.MustNew(p, machine.Ideal())
	r := shiftRun{
		vals:   make([]float64, n+1),
		stats:  make([]machine.Stats, p),
		scheds: make([]*Schedule, p),
		mem:    make([]int, p),
	}
	var mu sync.Mutex
	m.Run(func(nd *machine.Node) {
		a := darray.New("A", d, nd)
		a.EachLocal(func(gl int) { a.Set1(gl, float64(gl)) })
		eng := NewEngine(nd)
		eng.Store = store
		for rep := 0; rep < 3; rep++ {
			eng.Run(&Loop{
				Name: "shift", Lo: 1, Hi: n - 1,
				On: a, OnF: analysis.Identity,
				Reads: []ReadSpec{{Array: a, Affine: &analysis.Affine{A: 1, C: 1}}},
				Body: func(i int, e *Env) {
					e.Write(a, i, e.Read(a, i+1))
				},
			})
		}
		mu.Lock()
		defer mu.Unlock()
		r.builds += eng.Builds()
		r.storeHit += eng.StoreHits()
		me := nd.ID()
		r.stats[me] = nd.Stats()
		r.scheds[me] = eng.Schedule("shift")
		r.mem[me] = r.scheds[me].MemBytes()
		a.EachLocal(func(gl int) { r.vals[gl] = a.Get1(gl) })
	})
	return r
}

func testKey(i int) shareKey {
	return shareKey{rank: 1, bounds: [4]int{1, 10 + i}, onF: analysis.Identity, nreads: 1, reads: uint64(i)}
}

// TestStoreSingleflight: K tenants asking for one key concurrently
// cause exactly one build; everyone else adopts.
func TestStoreSingleflight(t *testing.T) {
	const K = 16
	s := NewSharedStore(64, "")
	key := testKey(0)
	var buildCount sync.Map
	var calls int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, _ := s.getOrBuild(0, key, func() *Schedule {
				mu.Lock()
				calls++
				mu.Unlock()
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return &Schedule{rank: 1}
			})
			if sc == nil {
				t.Error("nil schedule")
			}
			buildCount.Store(sc, true)
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("build ran %d times, want exactly 1", calls)
	}
	st := s.Stats()
	if st.Builds != 1 || st.Hits != K-1 {
		t.Fatalf("stats = %+v, want Builds=1 Hits=%d", st, K-1)
	}
	distinct := 0
	buildCount.Range(func(any, any) bool { distinct++; return true })
	if distinct != 1 {
		t.Fatalf("tenants saw %d distinct schedules, want 1 shared", distinct)
	}
}

// TestStoreBuilderPanicReleasesWaiters: a failing builder must not
// wedge the inflight entry — waiters retry and one of them builds.
func TestStoreBuilderPanicReleasesWaiters(t *testing.T) {
	s := NewSharedStore(64, "")
	key := testKey(1)
	func() {
		defer func() { recover() }()
		s.getOrBuild(0, key, func() *Schedule { panic("tenant died mid-build") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc, hit := s.getOrBuild(0, key, func() *Schedule { return &Schedule{rank: 1} })
		if sc == nil || hit {
			t.Errorf("retry after panic: schedule=%v hit=%v, want fresh build", sc, hit)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after builder panic")
	}
}

// TestStoreDistinctKeys: different structures never coalesce.
func TestStoreDistinctKeys(t *testing.T) {
	s := NewSharedStore(64, "")
	for i := 0; i < 5; i++ {
		s.getOrBuild(0, testKey(i), func() *Schedule { return &Schedule{rank: 1} })
	}
	if st := s.Stats(); st.Builds != 5 || st.Hits != 0 || st.Entries != 5 {
		t.Fatalf("stats = %+v, want 5 builds, 0 hits, 5 entries", st)
	}
}

// TestStoreCrossTenantAdopt: a second program (fresh machine, fresh
// engines) sharing the store adopts every schedule the first built —
// the same pointer, not a copy — with bit-identical results.
func TestStoreCrossTenantAdopt(t *testing.T) {
	const n, p = 24, 4
	s := NewSharedStore(64, "")
	first := runShiftWithStore(t, n, p, s)
	if first.builds != p {
		t.Fatalf("first tenant: builds = %d, want %d", first.builds, p)
	}
	second := runShiftWithStore(t, n, p, s)
	if second.builds != 0 || second.storeHit != p {
		t.Fatalf("second tenant: builds=%d storeHits=%d, want 0 and %d", second.builds, second.storeHit, p)
	}
	for me := range first.scheds {
		if second.scheds[me] != first.scheds[me] {
			t.Errorf("node %d: second tenant holds a different schedule than the first built", me)
		}
	}
	for i := range first.vals {
		if second.vals[i] != first.vals[i] {
			t.Fatalf("A[%d] = %g adopted, want %g built", i, second.vals[i], first.vals[i])
		}
	}
}

// checkRevived asserts a run on schedules revived from disk matches
// the fresh build it was persisted from: bit-identical values, per-node
// Stats and MemBytes, and structurally equal schedules.
func checkRevived(t *testing.T, got, want shiftRun) {
	t.Helper()
	for i := range want.vals {
		if got.vals[i] != want.vals[i] {
			t.Fatalf("A[%d] = %g revived, want %g built", i, got.vals[i], want.vals[i])
		}
	}
	for me := range want.stats {
		if got.stats[me] != want.stats[me] {
			t.Errorf("node %d: stats %+v revived, want %+v built", me, got.stats[me], want.stats[me])
		}
		if got.mem[me] != want.mem[me] {
			t.Errorf("node %d: MemBytes %d revived, want %d built", me, got.mem[me], want.mem[me])
		}
		if !reflect.DeepEqual(snapshot(got.scheds[me]), snapshot(want.scheds[me])) {
			t.Errorf("node %d: revived schedule differs from the built one", me)
		}
	}
}

// TestStorePersistRoundTrip: a fresh store on the same directory
// revives every schedule from disk — the warm start builds nothing —
// and replays with the values, Stats and MemBytes of the fresh build.
func TestStorePersistRoundTrip(t *testing.T) {
	const n, p = 24, 4
	dir := t.TempDir()
	cold := runShiftWithStore(t, n, p, NewSharedStore(64, dir))
	files, err := filepath.Glob(filepath.Join(dir, "sched-*.ksched"))
	if err != nil || len(files) != p {
		t.Fatalf("persisted %d schedule files (err %v), want %d", len(files), err, p)
	}

	warm := NewSharedStore(64, dir)
	got := runShiftWithStore(t, n, p, warm)
	if got.builds != 0 || got.storeHit != p {
		t.Fatalf("warm start: builds=%d storeHits=%d, want 0 and %d", got.builds, got.storeHit, p)
	}
	if st := warm.Stats(); st.DiskHits != p || st.Builds != 0 {
		t.Fatalf("warm store stats = %+v, want DiskHits=%d Builds=0", st, p)
	}
	checkRevived(t, got, cold)
}

// TestStorePersistCorruptFallback: garbage cache files are ignored and
// rebuilt cleanly, never trusted.
func TestStorePersistCorruptFallback(t *testing.T) {
	const n, p = 24, 4
	dir := t.TempDir()
	want := runShiftWithStore(t, n, p, NewSharedStore(64, dir))
	files, _ := filepath.Glob(filepath.Join(dir, "sched-*.ksched"))
	for _, f := range files {
		if err := os.WriteFile(f, []byte("not a schedule"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSharedStore(64, dir)
	got := runShiftWithStore(t, n, p, s)
	if got.builds != p {
		t.Fatalf("corrupt cache: builds = %d, want %d (full rebuild)", got.builds, p)
	}
	if st := s.Stats(); st.DiskHits != 0 {
		t.Fatalf("corrupt cache produced %d disk hits", st.DiskHits)
	}
	for i := range want.vals {
		if got.vals[i] != want.vals[i] {
			t.Fatalf("A[%d] = %g after fallback, want %g", i, got.vals[i], want.vals[i])
		}
	}
}

// TestStorePersistStaleVersionFallback: a structurally valid envelope
// with the wrong format version is rejected and rebuilt.
func TestStorePersistStaleVersionFallback(t *testing.T) {
	const n, p = 24, 4
	dir := t.TempDir()
	runShiftWithStore(t, n, p, NewSharedStore(64, dir))
	files, _ := filepath.Glob(filepath.Join(dir, "sched-*.ksched"))
	if len(files) == 0 {
		t.Fatal("no persisted files")
	}
	for _, fname := range files {
		raw, err := os.ReadFile(fname)
		if err != nil {
			t.Fatal(err)
		}
		var env diskSched
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
			t.Fatal(err)
		}
		env.Version = schedCacheVersion + 1
		f, err := os.Create(fname)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(&env); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	s := NewSharedStore(64, dir)
	if got := runShiftWithStore(t, n, p, s); got.builds != p {
		t.Fatalf("stale version: builds = %d, want %d (full rebuild)", got.builds, p)
	}
	if st := s.Stats(); st.DiskHits != 0 {
		t.Fatalf("stale version produced %d disk hits", st.DiskHits)
	}
}

// v1Sched mirrors the version-1 payload, the format schedules were
// persisted in before wireSched: iteration lists as index pairs and
// flat per-slot range records.
type v1Sched struct {
	Rank         int
	ExecLocal    [][2]int
	ExecNonlocal [][2]int
	Arrays       []v1Slot
}

type v1Slot struct {
	In       []comm.Range
	InTotal  int
	Out      []comm.Range
	OutTotal int
}

// TestStorePersistVersion1Rejected: files in the version-1 format are
// rejected and rebuilt, never misread — under their own version
// header, and even relabelled with the current version and a valid
// checksum, because no version-1 field decodes into the current form.
func TestStorePersistVersion1Rejected(t *testing.T) {
	const n, p = 24, 4
	pairs := func(its []iteration) [][2]int {
		var out [][2]int
		for _, it := range its {
			out = append(out, [2]int{it.I, it.J})
		}
		return out
	}
	for _, version := range []int{1, schedCacheVersion} {
		dir := t.TempDir()
		want := runShiftWithStore(t, n, p, NewSharedStore(64, dir))
		files, _ := filepath.Glob(filepath.Join(dir, "sched-*.ksched"))
		if len(files) != p {
			t.Fatalf("persisted %d files, want %d", len(files), p)
		}
		for _, fname := range files {
			raw, err := os.ReadFile(fname)
			if err != nil {
				t.Fatal(err)
			}
			var env diskSched
			var w wireSched
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&w); err != nil {
				t.Fatal(err)
			}
			old := v1Sched{Rank: w.LoopRank, ExecLocal: pairs(w.Local), ExecNonlocal: pairs(w.Nonlocal)}
			for k := range w.In {
				old.Arrays = append(old.Arrays, v1Slot{
					In: w.In[k].Ranges, InTotal: w.In[k].Total,
					Out: w.Out[k].Ranges, OutTotal: w.Out[k].Total,
				})
			}
			var payload, file bytes.Buffer
			if err := gob.NewEncoder(&payload).Encode(&old); err != nil {
				t.Fatal(err)
			}
			env.Version, env.Payload, env.Sum = version, payload.Bytes(), payloadSum(payload.Bytes())
			if err := gob.NewEncoder(&file).Encode(&env); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(fname, file.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := NewSharedStore(64, dir)
		got := runShiftWithStore(t, n, p, s)
		if st := s.Stats(); got.builds != p || st.DiskHits != 0 {
			t.Fatalf("version-1 files labelled %d: builds=%d diskHits=%d, want %d and 0",
				version, got.builds, st.DiskHits, p)
		}
		for i := range want.vals {
			if got.vals[i] != want.vals[i] {
				t.Fatalf("A[%d] = %g after rebuild, want %g", i, got.vals[i], want.vals[i])
			}
		}
	}
}

// peek returns the schedule the store holds for (node, key), or nil.
func (s *SharedStore) peek(node int, key shareKey) *Schedule {
	sh := &s.shards[key.fingerprint()%uint64(len(s.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sc, _ := sh.lru.Get(storeKey{node: node, key: key})
	return sc
}

// sharedShapes is what one run of runSharedShapes observed: the
// gathered arrays u, o1, o2; per node the machine Stats, the schedules
// loops a, b, c hold, and (with a store) the store's entries for their
// keys; and the engines' fused-window and cached-plan totals.
type sharedShapes struct {
	vals         [3][]float64
	stats        []machine.Stats
	scheds       [][3]*Schedule
	stored       [][3]*Schedule
	fused, plans int
}

// runSharedShapes runs steps of a three-loop sequence on a fresh
// P-node machine: loops a and b have one compile-time shape (reads
// u[i-1] and v[i+1]) and fuse into one window by default; loop c feeds
// their results back into u, so every step starts a new window.
func runSharedShapes(n, p, steps int, store *SharedStore, noCombine bool) sharedShapes {
	g := topology.MustGrid(p)
	d := dist.Must([]int{n}, []dist.DimSpec{dist.BlockDim()}, g)
	m := sim.MustNew(p, machine.Ideal())
	obs := sharedShapes{
		stats:  make([]machine.Stats, p),
		scheds: make([][3]*Schedule, p),
		stored: make([][3]*Schedule, p),
	}
	for k := range obs.vals {
		obs.vals[k] = make([]float64, n+1)
	}
	var mu sync.Mutex
	m.Run(func(nd *machine.Node) {
		u, v := darray.New("u", d, nd), darray.New("v", d, nd)
		o1, o2 := darray.New("o1", d, nd), darray.New("o2", d, nd)
		u.EachLocal(func(i int) {
			u.Set1(i, float64(i))
			v.Set1(i, float64(n-i)/4)
		})
		eng := NewEngine(nd)
		eng.Store = store
		eng.NoCombine = noCombine
		pair := func(name string, out *darray.Array, f func(x, y float64) float64) *Loop {
			return &Loop{
				Name: name, Lo: 2, Hi: n - 1, On: out, OnF: analysis.Identity,
				Reads: []ReadSpec{
					{Array: u, Affine: &analysis.Affine{A: 1, C: -1}},
					{Array: v, Affine: &analysis.Affine{A: 1, C: 1}},
				},
				Body: func(i int, e *Env) { e.Write(out, i, f(e.Read(u, i-1), e.Read(v, i+1))) },
			}
		}
		loops := []*Loop{
			pair("a", o1, func(x, y float64) float64 { return x + y }),
			pair("b", o2, func(x, y float64) float64 { return x * y / 8 }),
			{
				Name: "c", Lo: 2, Hi: n - 2, On: u, OnF: analysis.Identity,
				Reads: []ReadSpec{
					{Array: o1, Affine: &analysis.Affine{A: 1, C: 0}},
					{Array: o2, Affine: &analysis.Affine{A: 1, C: 1}},
				},
				Body: func(i int, e *Env) { e.Write(u, i, (e.Read(o1, i)+e.Read(o2, i+1))/4) },
			},
		}
		seq := []SeqLoop{
			{L: loops[0], Writes: []*darray.Array{o1}},
			{L: loops[1], Writes: []*darray.Array{o2}},
			{L: loops[2], Writes: []*darray.Array{u}},
		}
		for s := 0; s < steps; s++ {
			eng.RunSequence(seq)
		}
		mu.Lock()
		defer mu.Unlock()
		me := nd.ID()
		obs.stats[me] = nd.Stats()
		for k, l := range loops {
			obs.scheds[me][k] = eng.Schedule(l.Name)
			if store != nil {
				var c loopCore
				l.lower(&c)
				obs.stored[me][k] = store.peek(me, shareKeyOf(&c))
			}
		}
		obs.fused += eng.FusedWindows()
		obs.plans += eng.FusedPlans()
		for k, a := range []*darray.Array{u, o1, o2} {
			a.EachLocal(func(i int) { obs.vals[k][i] = a.Get1(i) })
		}
	})
	return obs
}

// TestTenantsShareSchedulePointer: two machines on one SharedStore run
// the same compile-time shapes concurrently, one with NoCombine
// (per-array plans), the other through fused RunSequence windows.
// Every loop holds, on both tenants and in the store, the identical
// *Schedule per node — same-shape loops within a tenant included — and
// each tenant's results and Stats equal a solo run of its own
// configuration.  Under -race this also pins that nothing writes a
// published schedule: both tenants replay the same ones concurrently.
func TestTenantsShareSchedulePointer(t *testing.T) {
	const n, p, steps = 40, 4, 3
	store := NewSharedStore(64, "")
	var perArray, fused sharedShapes
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); perArray = runSharedShapes(n, p, steps, store, true) }()
	go func() { defer wg.Done(); fused = runSharedShapes(n, p, steps, store, false) }()
	wg.Wait()
	if fused.fused == 0 {
		t.Fatal("the fused tenant never fused a window")
	}
	if perArray.plans == 0 {
		t.Fatal("the NoCombine tenant laid out no per-array plans")
	}
	for me := 0; me < p; me++ {
		a, b := perArray.scheds[me], fused.scheds[me]
		for k, name := range []string{"a", "b", "c"} {
			if a[k] == nil || a[k] != b[k] || a[k] != perArray.stored[me][k] || b[k] != fused.stored[me][k] {
				t.Errorf("node %d loop %s: tenants hold %p and %p, store %p and %p; want one pointer",
					me, name, a[k], b[k], perArray.stored[me][k], fused.stored[me][k])
			}
		}
		if a[0] != a[1] {
			t.Errorf("node %d: same-shape loops a and b hold different schedules", me)
		}
	}
	for _, tc := range []struct {
		name      string
		got       sharedShapes
		noCombine bool
	}{{"per-array", perArray, true}, {"fused", fused, false}} {
		want := runSharedShapes(n, p, steps, nil, tc.noCombine)
		for k := range want.vals {
			for i := range want.vals[k] {
				if tc.got.vals[k][i] != want.vals[k][i] {
					t.Fatalf("%s tenant: array %d[%d] = %g, solo %g", tc.name, k, i, tc.got.vals[k][i], want.vals[k][i])
				}
			}
		}
		for me := range want.stats {
			if tc.got.stats[me] != want.stats[me] {
				t.Errorf("%s tenant node %d: stats %+v, solo %+v", tc.name, me, tc.got.stats[me], want.stats[me])
			}
		}
	}
}

// TestStoreEvictionBounded: the in-memory store never exceeds its
// capacity however many shapes pass through, whether it is one shard
// or striped across the most shards a store uses.
func TestStoreEvictionBounded(t *testing.T) {
	for _, capacity := range []int{maxStoreShards, maxStoreShards * storeShardMin} {
		s := NewSharedStore(capacity, "")
		for i := 0; i < 10*capacity; i++ {
			s.getOrBuild(0, testKey(i), func() *Schedule { return &Schedule{rank: 1} })
		}
		st := s.Stats()
		if st.Entries > capacity {
			t.Fatalf("store holds %d entries, cap %d", st.Entries, capacity)
		}
		if st.Evictions == 0 {
			t.Fatalf("cap %d: expected evictions under churn", capacity)
		}
	}
}
