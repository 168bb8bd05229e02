package forall

import (
	"sync"
	"sync/atomic"

	"kali/internal/comm"
	"kali/internal/lru"
)

// The schedule store — the paper's §3.2 reuse argument as one
// structure.  A compile-time schedule is a pure function of loop
// structure (share.go), and a sealed Schedule is immutable, so a store
// holds schedules by pointer and any number of loops and engines adopt
// them without copying.  Every engine has one: the SharedStore its
// Store field names, which many tenants on one machine pool share
// (keyed by (node, shareKey): schedules are per-node), or else a
// private one it makes itself.  Only compile-time schedules
// participate, and that restriction is also what makes the
// singleflight safe: a compile-time build performs no communication,
// so a tenant blocked waiting for another tenant's build can never be
// part of a communication cycle.

// Store striping: a store of capacity c has
// clamp(c/storeShardMin, 1, maxStoreShards) shards.  Shard choice is
// keyFP mod shards, so tenants building different shapes (or the same
// shape on different nodes) rarely contend on one mutex, while a small
// store — an engine's private one — is a single exact LRU that evicts
// only when full.
const (
	maxStoreShards = 16
	storeShardMin  = 256
)

// storeKey identifies one schedule: schedules are per-node (each node
// holds its own slice of the iteration space), so the node id is part
// of the key alongside the structural shareKey.
type storeKey struct {
	node int
	key  shareKey
}

// inflight is one in-progress build other tenants can wait on: done is
// closed when the builder finishes, with s left nil if the build
// failed (waiters then retry, racing to become the builder).
type inflight struct {
	done chan struct{}
	s    *Schedule
}

type storeShard struct {
	mu       sync.Mutex
	lru      *lru.Cache[storeKey, *Schedule]
	building map[storeKey]*inflight
}

// SharedStore is a content-addressed schedule store: a sharded,
// LRU-bounded map from (node, structural key) to sealed Schedule, with
// singleflight build coalescing and optional disk persistence.  All
// methods are safe for concurrent use by any number of tenants.
type SharedStore struct {
	dir    string
	shards []storeShard

	hits     atomic.Int64
	builds   atomic.Int64
	diskHits atomic.Int64
	waits    atomic.Int64
}

// DefaultStoreCap is the schedule capacity used when NewSharedStore
// is given a nonpositive one.
const DefaultStoreCap = 4096

// NewSharedStore creates a store bounded to roughly capacity schedules
// (split evenly across its shards; <= 0 means DefaultStoreCap).  A
// nonempty dir enables schedule persistence: built schedules are
// written there, and misses consult the directory before building, so
// a warm start in a fresh process skips building entirely.
func NewSharedStore(capacity int, dir string) *SharedStore {
	if capacity <= 0 {
		capacity = DefaultStoreCap
	}
	n := min(max(capacity/storeShardMin, 1), maxStoreShards)
	s := &SharedStore{dir: dir, shards: make([]storeShard, n)}
	for i := range s.shards {
		s.shards[i].lru = lru.New[storeKey, *Schedule]((capacity + n - 1) / n)
		s.shards[i].building = map[storeKey]*inflight{}
	}
	return s
}

// Dir returns the persistence directory ("" when persistence is off).
func (s *SharedStore) Dir() string { return s.dir }

// getOrBuild returns the schedule for (node, key), building it with
// build exactly once machine-wide however many tenants ask
// concurrently: the first caller becomes the builder, later callers
// block on its inflight entry and adopt the result.  hit reports
// whether the caller avoided building (memory hit, disk hit, or
// coalesced wait).  If the builder panics, its waiters retry and race
// to build; the panic propagates to the builder's own node.
func (s *SharedStore) getOrBuild(node int, key shareKey, build func() *Schedule) (sc *Schedule, hit bool) {
	fp := key.fingerprint()
	sh := &s.shards[fp%uint64(len(s.shards))]
	k := storeKey{node: node, key: key}
	for {
		sh.mu.Lock()
		if sc, ok := sh.lru.Get(k); ok {
			sh.mu.Unlock()
			s.hits.Add(1)
			return sc, true
		}
		if fl, ok := sh.building[k]; ok {
			sh.mu.Unlock()
			<-fl.done
			if fl.s != nil {
				s.hits.Add(1)
				s.waits.Add(1)
				return fl.s, true
			}
			continue // builder failed; race to take over
		}
		fl := &inflight{done: make(chan struct{})}
		sh.building[k] = fl
		sh.mu.Unlock()

		fromDisk := false
		func() {
			// Publish whatever we got (possibly nil, on a build panic)
			// even if build unwinds, so waiters never hang.
			defer func() {
				sh.mu.Lock()
				delete(sh.building, k)
				if sc != nil {
					sh.lru.Put(k, sc)
				}
				sh.mu.Unlock()
				fl.s = sc
				close(fl.done)
			}()
			if s.dir != "" {
				sc = s.loadDisk(node, fp)
				fromDisk = sc != nil
			}
			if sc == nil {
				sc = build()
				if sc != nil && s.dir != "" {
					s.saveDisk(node, fp, sc)
				}
			}
		}()
		if fromDisk {
			s.diskHits.Add(1)
			return sc, true
		}
		s.builds.Add(1)
		return sc, false
	}
}

// StoreStats is a point-in-time snapshot of a SharedStore.
type StoreStats struct {
	// Hits counts adoptions of an already-present schedule (including
	// Waits, the subset that blocked on another tenant's in-progress
	// build instead of duplicating it); Builds counts actual builds;
	// DiskHits counts schedules revived from the persistence
	// directory.
	Hits     int64
	Builds   int64
	DiskHits int64
	Waits    int64
	// Entries/Evictions describe the bounded in-memory store.
	Entries   int
	Evictions int
}

// Stats snapshots the store counters; safe to call concurrently with
// tenant traffic.
func (s *SharedStore) Stats() StoreStats {
	st := StoreStats{
		Hits:     s.hits.Load(),
		Builds:   s.builds.Load(),
		DiskHits: s.diskHits.Load(),
		Waits:    s.waits.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Entries += sh.lru.Len()
		st.Evictions += sh.lru.Evictions()
		sh.mu.Unlock()
	}
	return st
}

// PayloadPoolStats snapshots the package-global executor payload pool
// shared by every engine in the process; safe mid-execution (the
// counters are atomic — see comm.BufPool.Stats).
func PayloadPoolStats() comm.PoolStats { return payloadPool.Stats() }
