// Package sim is a deterministic cluster simulator for the dynamic
// membership layer in internal/peer. It drives the real exported state
// machine — peer.Membership on an injectable virtual clock, peer.Ring
// over the live view — under an in-memory message transport with
// injectable fault schedules: probabilistic drop, delay and duplication
// of every gossip round trip, named network partitions, node crashes
// and (durable-store) restarts, and impostor payload injection.
//
// Everything runs on one goroutine inside a virtual-time event loop
// seeded from a single PRNG: the same seed always yields the same
// interleaving, so a failing schedule is a repro, not a flake. Map
// iterations that feed the PRNG or the event queue are sorted first for
// the same reason.
//
// The simulator checks the properties the live cluster promises:
//
//   - after any fault schedule, once the network heals the ring
//     converges — every running node computes the same member list;
//   - every digest a client ever compressed still has a live owner and
//     is served warm post-convergence (zero recompressions);
//   - no unverified or wrong payload is ever served to a client, no
//     matter what impostors pushed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"codepack/internal/peer"
)

// Config parameterizes a World. Zero values pick the defaults below.
type Config struct {
	// Nodes are the member URLs. Seeds maps a node to its seed list;
	// nodes absent from Seeds default to "every other node".
	Nodes []string
	Seeds map[string][]string

	// ReplicationFactor is how many members hold each digest (R).
	ReplicationFactor int
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	DeadAfter         time.Duration
	GossipFanout      int

	// RPCTimeout is when an unanswered round trip reports failure;
	// MinDelay/MaxDelay bound one message hop's latency.
	RPCTimeout time.Duration
	MinDelay   time.Duration
	MaxDelay   time.Duration

	// DropProb drops a message hop (request and response roll
	// independently); DupProb delivers a request twice.
	DropProb float64
	DupProb  float64
}

func (c Config) withDefaults() Config {
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * c.HeartbeatInterval
	}
	if c.GossipFanout <= 0 {
		c.GossipFanout = peer.DefaultGossipFanout
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = c.HeartbeatInterval
	}
	if c.MinDelay <= 0 {
		c.MinDelay = 5 * time.Millisecond
	}
	if c.MaxDelay < c.MinDelay {
		c.MaxDelay = 10 * c.MinDelay
	}
	return c
}

// Stats are the world's lifetime fault and invariant counters.
type Stats struct {
	Messages         int // round trips attempted
	Dropped          int // message hops lost to DropProb or a partition
	Duplicated       int // requests delivered twice
	RingChanges      int // ring rebuilds across all nodes
	Recompressions   int // client requests that paid a local compression
	UnverifiedServed int // INVARIANT: must stay 0
	WrongServed      int // INVARIANT: must stay 0
}

// event is one scheduled callback; the heap orders by virtual time,
// then insertion sequence, so ties resolve deterministically.
type event struct {
	at  int64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() *event  { return h[0] }

// World is one simulated cluster: the nodes, the virtual clock, the
// event queue and the fault state.
type World struct {
	cfg   Config
	rng   *rand.Rand
	now   int64 // virtual nanoseconds
	seq   int64
	queue eventHeap
	nodes map[string]*node
	order []string // node URLs, sorted: the deterministic iteration order

	groups    map[string]int // partition groups; nil = fully connected
	committed map[string]bool

	stats  Stats
	events []string
}

// logf appends one line to the event log, stamped with virtual time.
// Everything that feeds a line is derived from the seed, so two runs of
// the same schedule produce byte-identical logs — the determinism guard
// in sim-smoke diffs them.
func (w *World) logf(format string, args ...any) {
	w.events = append(w.events, fmt.Sprintf("%09dus ", w.now/1e3)+fmt.Sprintf(format, args...))
}

// EventLog returns the full event log, one line per event.
func (w *World) EventLog() string { return strings.Join(w.events, "\n") }

// New builds a world with every node stopped; call Boot (or Restart
// individual nodes) to start them.
func New(seed int64, cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		nodes:     make(map[string]*node),
		committed: make(map[string]bool),
	}
	for _, url := range cfg.Nodes {
		seeds := cfg.Seeds[url]
		if seeds == nil {
			for _, other := range cfg.Nodes {
				if other != url {
					seeds = append(seeds, other)
				}
			}
		}
		w.nodes[url] = &node{w: w, url: url, seeds: seeds, durable: make(map[string][]byte)}
		w.order = append(w.order, url)
	}
	sort.Strings(w.order)
	return w
}

// clock is the injectable Now for peer.Membership.
func (w *World) clock() time.Time { return time.Unix(0, w.now) }

// schedule queues fn to run after d of virtual time.
func (w *World) schedule(d time.Duration, fn func()) {
	w.seq++
	heap.Push(&w.queue, &event{at: w.now + int64(d), seq: w.seq, fn: fn})
}

// Run advances virtual time by d, executing every event that falls due.
func (w *World) Run(d time.Duration) {
	end := w.now + int64(d)
	for len(w.queue) > 0 && w.queue.peek().at <= end {
		ev := heap.Pop(&w.queue).(*event)
		w.now = ev.at
		ev.fn()
	}
	w.now = end
}

// Boot starts every node.
func (w *World) Boot() {
	for _, url := range w.order {
		w.nodes[url].start()
	}
}

// Crash stops a node hard: volatile state is gone, timers die, in-flight
// responses to it are discarded. Its durable store (verified entries,
// the -cache-dir analogue) survives for a later Restart.
func (w *World) Crash(url string) {
	w.logf("crash %s", url)
	w.nodes[url].crash()
}

// Restart boots a crashed node: fresh membership at generation 1 (its
// tombstone, if any, is refuted by incarnation on first contact), cache
// reloaded from the durable store.
func (w *World) Restart(url string) {
	w.logf("restart %s", url)
	w.nodes[url].start()
}

// Partition splits the network into the given groups; nodes in
// different groups cannot exchange messages. Unlisted nodes form an
// implicit extra group each.
func (w *World) Partition(groups ...[]string) {
	w.logf("partition %v", groups)
	w.groups = make(map[string]int)
	for i, g := range groups {
		for _, url := range g {
			w.groups[url] = i
		}
	}
	next := len(groups)
	for _, url := range w.order {
		if _, ok := w.groups[url]; !ok {
			w.groups[url] = next
			next++
		}
	}
}

// Heal removes every partition.
func (w *World) Heal() {
	if w.groups != nil {
		w.logf("heal")
	}
	w.groups = nil
}

func (w *World) blocked(a, b string) bool {
	return w.groups != nil && w.groups[a] != w.groups[b]
}

// delay draws one message hop's latency.
func (w *World) delay() time.Duration {
	span := int64(w.cfg.MaxDelay - w.cfg.MinDelay)
	return w.cfg.MinDelay + time.Duration(w.rng.Int63n(span+1))
}

// rpc is one faulty round trip: the request may be dropped, delayed or
// duplicated on the way in, the response dropped or delayed on the way
// out; done fires exactly once, with ok=false at RPCTimeout if no
// response made it back. Duplicate deliveries re-run the handler (its
// side effects must be idempotent — that is the point) but answer once.
func (w *World) rpc(from, to string, handler func(*node) any, done func(resp any, ok bool)) {
	w.stats.Messages++
	responded := false
	w.schedule(w.cfg.RPCTimeout, func() {
		if !responded {
			responded = true
			done(nil, false)
		}
	})
	deliveries := 1
	if w.rng.Float64() < w.cfg.DupProb {
		deliveries = 2
		w.stats.Duplicated++
	}
	for i := 0; i < deliveries; i++ {
		if w.blocked(from, to) || w.rng.Float64() < w.cfg.DropProb {
			w.stats.Dropped++
			continue
		}
		w.schedule(w.delay(), func() {
			tn := w.nodes[to]
			if !tn.up {
				return
			}
			resp := handler(tn)
			if w.blocked(to, from) || w.rng.Float64() < w.cfg.DropProb {
				w.stats.Dropped++
				return
			}
			w.schedule(w.delay(), func() {
				if !responded {
					responded = true
					done(resp, true)
				}
			})
		})
	}
}

// canonical is the one true payload for a digest — the simulator's
// stand-in for "what compressing this program produces". Verification
// against it models the server's word-for-word decompress-and-compare.
func canonical(digest string) []byte { return []byte("compressed:" + digest) }

// Compress models a client POST /v1/compress for digest at the given
// node: local verified cache, then quarantine-verify, then owner fetch,
// then local compression (counted in Stats.Recompressions) with async
// replication — the same tiered path as internal/server.
func (w *World) Compress(url, digest string) {
	w.committed[digest] = true
	w.nodes[url].compress(digest)
}

// InjectCorrupt models an impostor PUT: a well-formed but wrong payload
// pushed straight at a node's replication endpoint. It lands in
// quarantine only if the node does not already hold the digest, exactly
// like the real handler.
func (w *World) InjectCorrupt(url, digest string) {
	n := w.nodes[url]
	if !n.up {
		return
	}
	n.handlePut(digest, []byte("corrupt:"+digest))
}

// Up reports whether a node is running.
func (w *World) Up(url string) bool { return w.nodes[url].up }

// Live returns a running node's current ring view.
func (w *World) Live(url string) []string { return w.nodes[url].mem.Live() }

// Stats returns the world's counters.
func (w *World) Stats() Stats { return w.stats }

// NodeStats returns one node's lifetime event counters (zero value for
// an unknown URL).
func (w *World) NodeStats(url string) NodeStats {
	if n, ok := w.nodes[url]; ok {
		return n.stats
	}
	return NodeStats{}
}

// Committed returns every digest a client ever compressed, sorted.
func (w *World) Committed() []string {
	out := make([]string, 0, len(w.committed))
	for d := range w.committed {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// upNodes returns the running nodes' URLs, sorted.
func (w *World) upNodes() []string {
	var out []string
	for _, url := range w.order {
		if w.nodes[url].up {
			out = append(out, url)
		}
	}
	return out
}

// Converged reports whether every running node's ring view equals
// exactly the set of running nodes.
func (w *World) Converged() bool {
	want := w.upNodes()
	for _, url := range want {
		if !equalStrings(w.nodes[url].mem.Live(), want) {
			return false
		}
	}
	return len(want) > 0
}

// Settle heals the network, turns faults off, and runs heartbeat rounds
// until the ring converges (or maxRounds elapse). Once converged it
// runs one final anti-entropy pass on every node — the steady-state
// equivalent of each node's next ring-change or restart pass — and
// drains it, so every committed digest reaches its final owner.
func (w *World) Settle(maxRounds int) error {
	w.Heal()
	w.cfg.DropProb, w.cfg.DupProb = 0, 0
	for i := 0; i < maxRounds; i++ {
		w.Run(w.cfg.HeartbeatInterval)
		if w.Converged() {
			for _, url := range w.upNodes() {
				w.nodes[url].runAE()
			}
			w.Run(4 * w.cfg.RPCTimeout)
			if !w.Converged() {
				continue
			}
			return nil
		}
	}
	views := make(map[string][]string)
	for _, url := range w.upNodes() {
		views[url] = w.nodes[url].mem.Live()
	}
	return fmt.Errorf("sim: no convergence after %d rounds: views %v", maxRounds, views)
}

// CheckWarm asserts the post-convergence warm-serve property: every
// committed digest, requested at every running node, is served without
// a recompression — from the local verified cache or the ring owner.
// It returns the number of recompressions those requests paid (the
// caller asserts 0) and any invariant violation.
func (w *World) CheckWarm() (recompressions int, err error) {
	before := w.stats.Recompressions
	for _, digest := range w.Committed() {
		owners := ""
		for _, url := range w.upNodes() {
			n := w.nodes[url]
			if o := strings.Join(n.ring.Owners(digest, w.cfg.ReplicationFactor), " "); owners == "" {
				owners = o
			} else if o != owners {
				return 0, fmt.Errorf("sim: ring disagreement for %s: [%s] vs [%s]", digest, owners, o)
			}
		}
		for _, url := range w.upNodes() {
			w.nodes[url].compress(digest)
		}
	}
	if w.stats.UnverifiedServed > 0 {
		return 0, fmt.Errorf("sim: %d unverified payloads served", w.stats.UnverifiedServed)
	}
	if w.stats.WrongServed > 0 {
		return 0, fmt.Errorf("sim: %d wrong payloads served", w.stats.WrongServed)
	}
	return w.stats.Recompressions - before, nil
}

// CheckReplication asserts the post-convergence placement property:
// every committed digest is held — quarantined or verified — by every
// running member of its replica set, so the cluster tolerates the loss
// of any R-1 of them without a recompression.
func (w *World) CheckReplication() error {
	up := w.upNodes()
	if len(up) == 0 {
		return fmt.Errorf("sim: no running nodes")
	}
	ring := w.nodes[up[0]].ring
	for _, d := range w.Committed() {
		for _, o := range ring.Owners(d, w.cfg.ReplicationFactor) {
			n := w.nodes[o]
			if !n.up {
				continue
			}
			if _, ok := n.cache[d]; !ok {
				return fmt.Errorf("sim: replica %s missing committed digest %s", o, d)
			}
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
