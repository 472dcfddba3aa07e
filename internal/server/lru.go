package server

import (
	"cmp"
	"log/slog"
	"slices"
	"sync"

	"codepack"
)

// compCache is the content-addressed compression cache: SHA-256 digest of
// the marshalled program image -> its compressed form, so repeat
// compressions of the same image are served from memory. An entry holds
// only the program's .cpk bytes and the statistics taken when they were
// built, as CodePack holds a program: compressed until it is fetched.
// Responses, peer payloads and the durable store all use those bytes
// as they are, and only a caller that needs the object graph (a
// compressed-fetch simulation) parses them back. Eviction reuses
// the timestamp-scan LRU idiom of internal/cache: every entry carries the
// clock value of its last touch and the victim scan picks the minimum.
// The scan is O(entries) per eviction, which at service cache sizes
// (hundreds of entries, each worth a full dictionary build) is noise next
// to a compression, and keeps the structure a flat map with no list links.
//
// With a diskStore attached the cache is durable: every newly inserted
// entry is appended to the store's log (outside the cache lock, so disk
// latency never blocks readers), a background goroutine cuts compacted
// snapshots when the log outgrows them, and close flushes a final
// snapshot. Lock order is always cache.mu before store.mu is NOT allowed:
// the cache lock is released before any store call, and compaction's
// collect callback is the one place the store holds its own lock while
// briefly taking the cache lock.
type compCache struct {
	mu      sync.Mutex
	cap     int
	clock   uint64
	entries map[string]*compEntry

	hits, misses, evictions uint64
	bytes                   int64 // sum of len(wire) over resident entries

	// Persistence (nil store = memory only).
	store     *diskStore
	log       *slog.Logger
	compactCh chan struct{}
	stopCh    chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once
}

// wireForm is a compressed program as the cache keeps it: its exact-size
// .cpk bytes (codepack's Marshal format) and the statistics taken when
// they were built or last parsed. Neither changes once cached, so the
// bytes are shared with every reader and never written.
type wireForm struct {
	wire  []byte
	stats codepack.Stats
}

type compEntry struct {
	wireForm
	stamp uint64

	// verified marks entries whose payload is known to decompress to
	// the program their digest names: everything compressed locally or
	// restored from the durable store. Entries replicated from peers
	// arrive unverified (quarantined): they are served to peers — who
	// verify for themselves — but a local request must prove the entry
	// against its own program (confirm) before trusting it, and only
	// verified entries are ever persisted.
	verified bool
}

// cacheStats is a point-in-time view of the cache counters.
type cacheStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Unverified int    `json:"unverified"`
}

// newCompCache builds a cache holding at most capEntries compressed
// programs; capEntries <= 0 disables caching (every get is a miss).
func newCompCache(capEntries int) *compCache {
	c := &compCache{cap: capEntries, log: slog.Default()}
	if capEntries > 0 {
		c.entries = make(map[string]*compEntry, capEntries)
	}
	return c
}

// attachStore makes the cache durable: recovered entries are loaded in
// replay order (so their relative recency survives the restart) and the
// background compactor starts. Returns the number of entries actually
// restored into the cache; entries whose payloads no longer parse are
// skipped, and entries beyond the cache capacity evict oldest-first.
func (c *compCache) attachStore(st *diskStore, recovered []storedEntry, logger *slog.Logger) int {
	if c.cap <= 0 || st == nil {
		return 0
	}
	if logger != nil {
		c.log = logger
	}
	restored := 0
	for _, e := range recovered {
		comp, err := codepack.UnmarshalCompressed("cached", e.payload)
		if err != nil {
			c.log.Warn("restored cache record does not parse, skipping",
				"key", e.key, "err", err)
			st.mu.Lock()
			st.stats.RecordsSkipped++
			st.stats.RestoredEntries--
			st.mu.Unlock()
			continue
		}
		// Only verified entries are persisted, so restored entries are
		// trusted as verified. The record's payload is an exact-size
		// copy, kept as the entry's bytes.
		c.putMem(e.key, wireForm{e.payload, comp.Stats()}, true)
		restored++
	}
	c.store = st
	c.compactCh = make(chan struct{}, 1)
	c.stopCh = make(chan struct{})
	c.loopDone = make(chan struct{})
	go c.compactLoop()
	return restored
}

// lookup returns the entry cached under key and whether it is verified
// (callers holding the program the digest names prove quarantined
// replicas before trusting them). countMiss is false for the
// singleflight leader's re-probe, whose request already counted its
// miss; a hit always counts.
func (c *compCache) lookup(key string, countMiss bool) (wf wireForm, verified, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return wireForm{}, false, false
	}
	c.hits++
	c.clock++
	e.stamp = c.clock
	return e.wireForm, e.verified, true
}

func (c *compCache) put(key string, wf wireForm) {
	if !c.putMem(key, wf, true) {
		return
	}
	c.persist(key, wf.wire)
}

// putReplicated quarantines an entry pushed by a peer: resident and
// servable to other peers, but unverified — never persisted and never
// trusted by a local request until confirm proves it.
func (c *compCache) putReplicated(key string, wf wireForm) {
	c.putMem(key, wf, false)
}

// confirm marks a quarantined entry as verified (the caller has proved
// its payload against the program) and persists it.
func (c *compCache) confirm(key string) {
	c.mu.Lock()
	var wire []byte
	if e, ok := c.entries[key]; ok && !e.verified {
		e.verified = true
		wire = e.wire
	}
	c.mu.Unlock()
	if wire != nil {
		c.persist(key, wire)
	}
}

// drop removes an entry outright (a quarantined replica that failed
// verification).
func (c *compCache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.bytes -= int64(len(e.wire))
		delete(c.entries, key)
	}
}

// persist appends one verified entry to the durable store, outside the
// cache lock: a slow disk must not block gets. A store that refuses
// appends also signals the compactor, whose log reset is what lifts the
// refusal.
func (c *compCache) persist(key string, wire []byte) {
	if c.store == nil {
		return
	}
	if err := c.store.append(key, wire); err != nil {
		c.log.Warn("cache persist failed", "key", key, "err", err)
	}
	if c.store.needCompact() {
		select {
		case c.compactCh <- struct{}{}:
		default: // a compaction signal is already pending
		}
	}
}

// putMem inserts into the in-memory map and reports whether the entry
// needs persisting: newly added as verified, or a quarantined entry
// replaced by a verified form (false for other refreshes and for a
// disabled cache). Refreshing an entry never downgrades it: a verified
// entry stays as it is even if a peer replicates the same digest again.
func (c *compCache) putMem(key string, wf wireForm, verified bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return false
	}
	if e, ok := c.entries[key]; ok {
		c.clock++
		e.stamp = c.clock
		if !verified || e.verified {
			return false
		}
		// The quarantined bytes were never proven; the verified form
		// replaces them rather than inheriting their trust.
		c.bytes += int64(len(wf.wire) - len(e.wire))
		e.wireForm, e.verified = wf, true
		return true
	}
	if len(c.entries) >= c.cap {
		var victim string
		var oldest uint64
		first := true
		for k, e := range c.entries {
			if first || e.stamp < oldest {
				victim, oldest, first = k, e.stamp, false
			}
		}
		c.bytes -= int64(len(c.entries[victim].wire))
		delete(c.entries, victim)
		c.evictions++
	}
	c.clock++
	c.entries[key] = &compEntry{wireForm: wf, stamp: c.clock, verified: verified}
	c.bytes += int64(len(wf.wire))
	return verified
}

// payload returns the .cpk bytes cached under key for the peer
// protocol — quarantined entries included, since the requesting peer
// verifies payloads against its own program. It refreshes recency but
// does not count toward hit/miss rates (peer traffic would skew them).
func (c *compCache) payload(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.clock++
	e.stamp = c.clock
	return e.wire, true
}

// has reports residency with no side effects (anti-entropy offers).
func (c *compCache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// keys snapshots the resident digests (the startup anti-entropy pass).
func (c *compCache) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	return out
}

// compactLoop runs snapshot compactions off the request path.
func (c *compCache) compactLoop() {
	defer close(c.loopDone)
	for {
		select {
		case <-c.compactCh:
			if err := c.compactNow(); err != nil {
				c.log.Warn("cache compaction failed", "err", err)
			}
		case <-c.stopCh:
			return
		}
	}
}

// compactNow cuts a snapshot of the live entries, oldest first so replay
// order preserves recency on the next boot. The entries' bytes are the
// records' payloads, so the cache lock is held only for the walk.
func (c *compCache) compactNow() error {
	return c.store.compact(func() []storedEntry {
		c.mu.Lock()
		defer c.mu.Unlock()
		out := make([]storedEntry, 0, len(c.entries))
		for k, e := range c.entries {
			out = append(out, storedEntry{key: k, payload: e.wire})
		}
		slices.SortFunc(out, func(a, b storedEntry) int {
			return cmp.Compare(c.entries[a.key].stamp, c.entries[b.key].stamp)
		})
		return out
	})
}

// close stops the compactor, flushes a final snapshot (the SIGTERM flush)
// and closes the store. Safe to call multiple times and with no store.
func (c *compCache) close() {
	c.closeOnce.Do(func() {
		if c.store == nil {
			return
		}
		close(c.stopCh)
		<-c.loopDone
		if err := c.compactNow(); err != nil {
			c.log.Warn("final cache flush failed", "err", err)
		}
		if err := c.store.close(); err != nil {
			c.log.Warn("cache store close failed", "err", err)
		}
	})
}

func (c *compCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	unverified := 0
	for _, e := range c.entries {
		if !e.verified {
			unverified++
		}
	}
	return cacheStats{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Entries:    len(c.entries),
		Bytes:      c.bytes,
		Unverified: unverified,
	}
}
