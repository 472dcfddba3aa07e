package server

import (
	"log/slog"
	"sort"
	"sync"

	"codepack"
)

// compCache is the content-addressed compression cache: SHA-256 digest of
// the marshalled program image -> its compressed form, so repeat
// compressions of the same image are served from memory. Eviction reuses
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
	bytes                   int64

	// Persistence (nil store = memory only).
	store     *diskStore
	log       *slog.Logger
	compactCh chan struct{}
	stopCh    chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once
}

type compEntry struct {
	comp  *codepack.Compressed
	stamp uint64
	bytes int64

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
		// trusted as verified.
		c.putMem(e.key, comp, true)
		restored++
	}
	c.store = st
	c.compactCh = make(chan struct{}, 1)
	c.stopCh = make(chan struct{})
	c.loopDone = make(chan struct{})
	go c.compactLoop()
	return restored
}

func (c *compCache) get(key string) (*codepack.Compressed, bool) {
	comp, _, ok := c.getEntry(key)
	return comp, ok
}

// getEntry is get plus the entry's verification state; callers holding
// the program the digest names use it to prove quarantined replicas
// before trusting them.
func (c *compCache) getEntry(key string) (comp *codepack.Compressed, verified, ok bool) {
	return c.lookup(key, true)
}

// recheck is getEntry without the miss accounting: the singleflight
// leader re-probes the cache after acquiring the flight key, and that
// probe must not count the same request's miss twice. A hit still
// counts (the fill was satisfied from memory after all).
func (c *compCache) recheck(key string) (comp *codepack.Compressed, verified, ok bool) {
	return c.lookup(key, false)
}

func (c *compCache) lookup(key string, countMiss bool) (comp *codepack.Compressed, verified, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return nil, false, false
	}
	c.hits++
	c.clock++
	e.stamp = c.clock
	return e.comp, e.verified, true
}

func (c *compCache) put(key string, comp *codepack.Compressed) {
	if !c.putMem(key, comp, true) {
		return
	}
	c.persist(key, comp)
}

// putReplicated quarantines an entry pushed by a peer: resident and
// servable to other peers, but unverified — never persisted and never
// trusted by a local request until confirm proves it.
func (c *compCache) putReplicated(key string, comp *codepack.Compressed) {
	c.putMem(key, comp, false)
}

// confirm marks a quarantined entry as verified (the caller has proved
// its payload against the program) and persists it.
func (c *compCache) confirm(key string) {
	c.mu.Lock()
	var comp *codepack.Compressed
	if e, ok := c.entries[key]; ok && !e.verified {
		e.verified = true
		comp = e.comp
	}
	c.mu.Unlock()
	if comp != nil {
		c.persist(key, comp)
	}
}

// drop removes an entry outright (a quarantined replica that failed
// verification).
func (c *compCache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.bytes -= e.bytes
		delete(c.entries, key)
	}
}

// persist appends one verified entry to the durable store, outside the
// cache lock: a slow disk must not block gets.
func (c *compCache) persist(key string, comp *codepack.Compressed) {
	if c.store == nil {
		return
	}
	if err := c.store.append(key, comp.Marshal()); err != nil {
		c.log.Warn("cache persist failed", "key", key, "err", err)
		return
	}
	if c.store.needCompact() {
		select {
		case c.compactCh <- struct{}{}:
		default: // a compaction signal is already pending
		}
	}
}

// putMem inserts into the in-memory map and reports whether key was newly
// added (false for refreshes of a resident entry and for a disabled cache).
// Refreshing an entry never downgrades it: a verified entry stays verified
// even if a peer replicates the same digest again.
func (c *compCache) putMem(key string, comp *codepack.Compressed, verified bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return false
	}
	if e, ok := c.entries[key]; ok {
		c.clock++
		e.stamp = c.clock
		e.verified = e.verified || verified
		return false
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
		c.bytes -= c.entries[victim].bytes
		delete(c.entries, victim)
		c.evictions++
	}
	c.clock++
	bytes := int64(comp.Stats().CompressedBytes())
	c.entries[key] = &compEntry{comp: comp, stamp: c.clock, bytes: bytes, verified: verified}
	c.bytes += bytes
	return true
}

// payload returns the marshalled bytes cached under key for the peer
// protocol — quarantined entries included, since the requesting peer
// verifies payloads against its own program. It refreshes recency but
// does not count toward hit/miss rates (peer traffic would skew them).
func (c *compCache) payload(key string) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	var comp *codepack.Compressed
	if ok {
		c.clock++
		e.stamp = c.clock
		comp = e.comp
	}
	c.mu.Unlock()
	if comp == nil {
		return nil, false
	}
	// Marshal outside the lock: payloads can be large.
	return comp.Marshal(), true
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
// order preserves recency on the next boot. Only the recency walk holds
// the cache lock; the entries are marshalled after it is released (the
// store lock still keeps appends out until the log reset).
func (c *compCache) compactNow() error {
	return c.store.compact(func() []storedEntry {
		type aged struct {
			key   string
			comp  *codepack.Compressed
			stamp uint64
		}
		c.mu.Lock()
		order := make([]aged, 0, len(c.entries))
		for k, e := range c.entries {
			order = append(order, aged{k, e.comp, e.stamp})
		}
		c.mu.Unlock()
		sort.Slice(order, func(i, j int) bool { return order[i].stamp < order[j].stamp })
		out := make([]storedEntry, len(order))
		for i, a := range order {
			out[i] = storedEntry{key: a.key, payload: a.comp.Marshal()}
		}
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
