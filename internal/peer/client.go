package peer

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"time"

	"codepack/internal/tenant"
	"codepack/internal/trace"
)

// Peer-protocol wire details, shared by client and Handler.
const (
	// CachePathPrefix is the internal cache endpoint; the digest is the
	// final path element.
	CachePathPrefix = "/internal/v1/cache/"
	// OfferPath is the anti-entropy offer endpoint.
	OfferPath = "/internal/v1/cache/offer"
	// SumHeader carries the hex SHA-256 of the payload end to end — the
	// same per-record sum the durable store keeps — so a corrupted or
	// substituted body is rejected before it is even parsed.
	SumHeader = "X-Cpackd-Sum"
	// HealthPath is the signed per-node health summary endpoint;
	// /debug/cluster pulls it from every live member and merges the
	// answers into one fleet view.
	HealthPath = "/internal/v1/health"
)

// Reply size bounds: a peer's health summary, and a control reply (a
// push acknowledgement, an offer's want list).
const (
	maxHealthBytes = 1 << 20
	maxReplyBytes  = 1 << 20
)

// errBreakerOpen reports a call that was skipped, not sent: the
// target's breaker is open. Nothing is charged.
var errBreakerOpen = errors.New("peer: breaker open")

// statusError is a peer's definitive answer other than 2xx or 5xx: the
// peer is alive and said no (404 for a digest it lacks, 401 for a bad
// signature). Every other roundTrip error is a failure.
type statusError struct {
	method, path string
	code         int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("peer: %s %s returned %d", e.method, e.path, e.code)
}

// roundTrip sends one node-to-node request to target and returns the
// reply body of a 2xx answer. Every request one node makes of another
// goes through here: it applies the per-attempt FetchTimeout, the trace
// headers and the HMAC signature, and reads at most limit bytes — a
// longer reply is an error, not a truncation. A non-nil check vets a
// 2xx reply (its checksum header, its JSON).
//
// With a breaker, roundTrip also gates the call (errBreakerOpen) and
// charges its outcome by one rule: a transport error, a 5xx or an
// unusable reply (over the limit, or rejected by check) is a failure,
// and any other answer, 4xx included, proves the peer alive. A non-2xx
// answer below 500 comes back as a *statusError. Membership calls pass
// no breaker: gossip has its own failure detector.
func (c *Cluster) roundTrip(ctx context.Context, b *breaker, method, target, path string,
	body []byte, hdr http.Header, limit int64, check func(http.Header, []byte) error) (reply []byte, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, target+path, bytes.NewReader(body))
	if err != nil {
		return nil, err // a local fault: the peer is not charged
	}
	if b != nil {
		if !b.allow() {
			c.stats.breakerSkips.Add(1)
			return nil, fmt.Errorf("%w for %s", errBreakerOpen, target)
		}
		defer func() {
			var answer *statusError
			if err == nil || errors.As(err, &answer) {
				b.success()
				c.members.ObserveAlive(target)
			} else {
				c.noteFailure(target, b)
			}
		}()
	}
	maps.Copy(req.Header, hdr)
	c.setTraceHeader(req, ctx)
	c.signRequest(req, body)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 500 {
		return nil, fmt.Errorf("peer: %s %s returned %d", method, path, resp.StatusCode)
	}
	reply, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
	switch {
	case err != nil:
		return nil, err
	case int64(len(reply)) > limit:
		return nil, fmt.Errorf("peer: %s %s reply exceeds %d bytes", method, path, limit)
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		return nil, &statusError{method: method, path: path, code: resp.StatusCode}
	case check != nil:
		if err := check(resp.Header, reply); err != nil {
			return nil, err
		}
	}
	return reply, nil
}

// checkSum rejects a cache payload whose X-Cpackd-Sum header does not
// match its SHA-256.
func checkSum(h http.Header, payload []byte) error {
	sum := sha256.Sum256(payload)
	if got := h.Get(SumHeader); got != hex.EncodeToString(sum[:]) {
		return fmt.Errorf("peer: payload checksum mismatch (header %q)", got)
	}
	return nil
}

// jsonHeader is the header of a request with a JSON body.
func jsonHeader() http.Header { return http.Header{"Content-Type": {"application/json"}} }

// FetchHealth GETs one member's signed health summary, returning the
// raw JSON document for the caller to decode (the server owns the
// schema; the peer layer only moves the bytes). Breaker-gated like
// every other peer call, one attempt — /debug/cluster reports an
// unreachable member rather than waiting on retries.
func (c *Cluster) FetchHealth(ctx context.Context, member string) ([]byte, error) {
	return c.roundTrip(ctx, c.breakerFor(member), http.MethodGet, member, HealthPath,
		nil, nil, maxHealthBytes, nil)
}

// FetchOutcome classifies one warm-tier lookup.
type FetchOutcome int

const (
	// FetchSelf: this instance owns the digest; there is no one to ask.
	FetchSelf FetchOutcome = iota
	// FetchHit: the owner returned a payload whose transport checksum
	// verified. (The caller still verifies it against the program.)
	FetchHit
	// FetchMiss: the owner answered definitively that it does not hold
	// the digest.
	FetchMiss
	// FetchUnavailable: the owner could not be asked — breaker open,
	// every attempt failed, or it refused the request (a 4xx other than
	// 404).
	FetchUnavailable
)

// Fetch asks digest's replica set for its cached payload, walking the
// successor list in placement order: a replica whose breaker is open is
// skipped outright, a replica that cannot be reached, answers 404 or
// another 4xx, or serves a payload failing the caller's verify falls
// through to the next. verify (nil = accept) must be a pure check —
// Fetch itself charges a failed verification to the replica's breaker.
//
// On a verified hit, Fetch read-repairs: every replica that answered a
// definitive 404 during the walk is re-offered the entry through the
// replication queue. It returns the payload (FetchHit only), the
// serving replica's URL, and the outcome; FetchSelf means the replica
// set holds no one but this instance. When this instance is itself one
// of the replicas, a hit also counts one read-repair for the local
// install the caller performs.
func (c *Cluster) Fetch(ctx context.Context, digest string, verify func(owner string, payload []byte) bool) ([]byte, string, FetchOutcome) {
	remote, selfOwner := c.remoteOwners(digest)
	if len(remote) == 0 {
		return nil, "", FetchSelf
	}
	ctx, fs := trace.Start(ctx, "peer-fetch",
		trace.String("owner", remote[0]),
		trace.String("digest", shortDigest(digest)),
		trace.Int("replicas", len(remote)))
	defer fs.End()

	var missed []string // replicas that answered a clean 404
	for ri, owner := range remote {
		b := c.breakerFor(owner)
		rctx, rs := trace.Start(ctx, "peer-replica",
			trace.String("owner", owner),
			trace.Int("replica", ri+1),
			trace.String("breaker", b.snapshot().State))
		payload, found, outcome := c.fetchReplica(rctx, owner, digest, b)
		if outcome == "hit" && verify != nil && !verify(owner, payload) {
			// The replica served bytes that are not the program the digest
			// names: charge its breaker like any other failure and try the
			// next replica.
			c.ReportBadPayload(owner)
			outcome = "verify-failed"
			payload, found = nil, false
		}
		rs.SetAttr("outcome", outcome)
		rs.End()
		if found {
			c.stats.fetchHits.Add(1)
			if ri > 0 {
				c.stats.replicaFallthroughs.Add(1)
			}
			fs.SetAttr("outcome", "hit")
			c.readRepair(ctx, digest, payload, missed, selfOwner)
			return payload, owner, FetchHit
		}
		if outcome == "miss" {
			missed = append(missed, owner)
		}
		if outcome == "canceled" {
			fs.SetAttr("outcome", "canceled")
			return nil, owner, FetchUnavailable
		}
	}
	if len(missed) > 0 {
		// Every reachable replica answered definitively: the entry is not
		// in the warm tier. (Unreachable replicas may still hold it, but
		// the caller should compress rather than wait for them.)
		fs.SetAttr("outcome", "miss")
		return nil, missed[0], FetchMiss
	}
	fs.SetAttr("outcome", "unavailable")
	return nil, remote[0], FetchUnavailable
}

// fetchReplica runs the retry loop against one replica; only failures
// are retried. outcome is one of "hit", "miss", "rejected" (another
// 4xx), "breaker-skip", "canceled", "unavailable"; found is true only
// for a hit.
func (c *Cluster) fetchReplica(ctx context.Context, owner, digest string, b *breaker) (payload []byte, found bool, outcome string) {
	attempts := 1 + c.cfg.Retries
	for i := 0; i < attempts; i++ {
		if i > 0 && !sleepCtx(ctx, backoff(c.cfg.BackoffBase, i-1)) {
			c.stats.fetchErrors.Add(1)
			return nil, false, "canceled"
		}
		actx, as := trace.Start(ctx, "peer-attempt",
			trace.Int("attempt", i+1),
			trace.String("breaker", b.snapshot().State))
		payload, err := c.roundTrip(actx, b, http.MethodGet, owner, CachePathPrefix+digest,
			nil, nil, maxPayloadBytes, checkSum)
		if err != nil {
			as.SetAttr("err", err.Error())
		}
		as.End()
		var answer *statusError
		switch {
		case err == nil:
			return payload, true, "hit"
		case errors.Is(err, errBreakerOpen):
			// Open from the start, or tripped by another request's
			// failures while this one backed off.
			return nil, false, "breaker-skip"
		case errors.As(err, &answer) && answer.code == http.StatusNotFound:
			c.stats.fetchMisses.Add(1)
			return nil, false, "miss"
		case errors.As(err, &answer):
			// The replica is alive but refused (a 401 from a mis-keyed
			// member): a retry would get the same answer.
			c.stats.fetchErrors.Add(1)
			return nil, false, "rejected"
		}
		c.stats.fetchErrors.Add(1)
		c.log.Debug("peer fetch attempt failed",
			"peer", owner, "digest", digest, "attempt", i+1, "err", err)
	}
	return nil, false, "unavailable"
}

// readRepair re-offers a verified entry to the replicas that missed it
// during a fetch walk, through the replication queue pinned to each
// lagging member — convergence without waiting for an anti-entropy
// pass. selfInstall additionally counts the caller's own install when
// this instance is part of the replica set.
func (c *Cluster) readRepair(ctx context.Context, digest string, payload []byte, missed []string, selfInstall bool) {
	if selfInstall {
		c.stats.readRepairs.Add(1)
	}
	if len(missed) == 0 {
		return
	}
	for _, owner := range missed {
		j := replJob{
			digest:     digest,
			payload:    payload,
			targets:    []string{owner},
			traceID:    trace.ID(ctx),
			parentSpan: trace.SpanFromContext(ctx).SpanID(),
			enqueued:   time.Now(),
		}
		if c.tryEnqueue(j) {
			c.stats.readRepairs.Add(1)
			c.stats.replEnqueued.Add(1)
		} else {
			c.stats.replDropped.Add(1)
		}
	}
}

// Replicate enqueues an async best-effort push of a newly compressed
// entry to its replica set. Digests whose only owner is this instance
// stay local; a full queue drops the job (anti-entropy repairs the gap
// later) so the request path never blocks on replication.
//
// The owners are resolved when the push is sent, not here: a job that
// waits out a membership change drains to the owners of the ring as it
// is then, so the queue never feeds departed members.
func (c *Cluster) Replicate(ctx context.Context, digest string, payload []byte) {
	_, es := trace.Start(ctx, "repl-enqueue", trace.String("digest", shortDigest(digest)))
	defer es.End()
	if remote, _ := c.remoteOwners(digest); len(remote) == 0 {
		es.SetAttr("outcome", "self")
		return
	}
	j := replJob{
		digest:     digest,
		payload:    payload,
		traceID:    trace.ID(ctx),
		parentSpan: trace.SpanFromContext(ctx).SpanID(),
		enqueued:   time.Now(),
	}
	if c.tryEnqueue(j) {
		c.stats.replEnqueued.Add(1)
		es.SetAttr("outcome", "enqueued")
	} else {
		c.stats.replDropped.Add(1)
		es.SetAttr("outcome", "dropped")
	}
}

func (c *Cluster) replWorker() {
	defer c.replWG.Done()
	for j := range c.replCh {
		c.qmu.Lock()
		if len(c.qtimes) > 0 {
			c.qtimes = append(c.qtimes[:0], c.qtimes[1:]...)
		}
		c.qmu.Unlock()
		targets := j.targets
		if targets == nil {
			// A ring-resolved job: push to every remote member of the
			// digest's current replica set.
			targets, _ = c.remoteOwners(j.digest)
		}
		if len(targets) == 0 {
			continue // ownership moved entirely to us while the job was queued
		}
		// The push runs long after the originating request returned, so
		// it gets its own background trace — same trace ID, root
		// parented on the enqueuing span — that /debug/trace/recent can
		// stitch back to the request that caused it.
		ctx := context.Background()
		var root *trace.Span
		if c.cfg.Tracer != nil {
			id := j.traceID
			if id == "" {
				id = trace.NewID()
			}
			ctx = trace.WithID(ctx, id)
			ctx, root = c.cfg.Tracer.StartTrace(ctx, id, j.parentSpan, "replicate", "replicate",
				trace.String("digest", shortDigest(j.digest)),
				trace.Int("targets", len(targets)))
			root.SetAttr("queue_wait_ms", float64(time.Since(j.enqueued))/float64(time.Millisecond))
		}
		for _, owner := range targets {
			if err := c.push(ctx, owner, j.digest, j.payload); err != nil {
				c.stats.replErrors.Add(1)
				root.SetAttr("err", err.Error())
				c.log.Debug("replication push failed",
					"peer", owner, "digest", j.digest, "err", err)
				c.maybeHint(j, owner)
			} else {
				c.stats.replSent.Add(1)
				if j.fromHint {
					c.stats.handoffDrained.Add(1)
				}
			}
		}
		root.End()
	}
}

// maybeHint buffers a failed push as a handoff hint when the target is
// still in the ring (alive but flaky, or suspect): the entry will be
// re-pushed when the member proves healthy. A target already declared
// dead or left gets no hint — reassignment handles its backlog — and a
// failed drain re-buffers without recounting.
func (c *Cluster) maybeHint(j replJob, owner string) {
	st, known := c.members.State(owner)
	if !known || !st.inRing() {
		return
	}
	evicted := c.hints.add(HandoffRecord{Target: owner, Digest: j.digest, Payload: j.payload})
	if evicted > 0 {
		c.stats.handoffDropped.Add(uint64(evicted))
	}
	if !j.fromHint {
		c.stats.handoffHinted.Add(1)
	}
}

// push PUTs one payload to owner, breaker-gated, one attempt.
func (c *Cluster) push(ctx context.Context, owner, digest string, payload []byte) (err error) {
	ctx, ps := trace.Start(ctx, "peer-put",
		trace.String("owner", owner),
		trace.String("digest", shortDigest(digest)),
		trace.Int("bytes", len(payload)))
	defer func() {
		if err != nil {
			ps.SetAttr("err", err.Error())
		}
		ps.End()
	}()
	sum := sha256.Sum256(payload)
	hdr := http.Header{
		"Content-Type": {"application/octet-stream"},
		SumHeader:      {hex.EncodeToString(sum[:])},
	}
	_, err = c.roundTrip(ctx, c.breakerFor(owner), http.MethodPut, owner, CachePathPrefix+digest,
		payload, hdr, maxReplyBytes, nil)
	return err
}

// AntiEntropy offers every locally held digest to each member of its
// replica set and pushes the ones each owner asks for; payload resolves
// a digest to its marshalled bytes at push time (an entry evicted
// meanwhile is skipped). Run it in a goroutine at startup and after
// every ring change: it is synchronous, breaker-gated and abandons a
// peer on the first error rather than retrying — the next ring change,
// restart, or normal write-replication closes any remaining gap.
func (c *Cluster) AntiEntropy(ctx context.Context, digests []string, payload func(string) ([]byte, bool)) {
	c.antiEntropyRing(ctx, c.ring.Load(), digests, payload)
}

// antiEntropyRing is AntiEntropy against an explicit ring — Leave hands
// off over the ring that excludes self.
func (c *Cluster) antiEntropyRing(ctx context.Context, ring *Ring, digests []string, payload func(string) ([]byte, bool)) {
	byOwner := make(map[string][]string)
	for _, d := range digests {
		for _, owner := range ring.Owners(d, c.cfg.ReplicationFactor) {
			if owner != "" && owner != c.self {
				byOwner[owner] = append(byOwner[owner], d)
			}
		}
	}
	for owner, ds := range byOwner {
		for len(ds) > 0 && ctx.Err() == nil {
			batch := ds
			if len(batch) > c.cfg.OfferBatch {
				batch = batch[:c.cfg.OfferBatch]
			}
			ds = ds[len(batch):]
			want, err := c.offer(ctx, owner, batch)
			if err != nil {
				c.stats.offerErrors.Add(1)
				c.log.Debug("anti-entropy offer failed", "peer", owner, "err", err)
				break
			}
			c.stats.offeredDigests.Add(uint64(len(batch)))
			for _, d := range want {
				p, ok := payload(d)
				if !ok {
					continue
				}
				if err := c.push(ctx, owner, d, p); err != nil {
					c.stats.replErrors.Add(1)
				} else {
					c.stats.replSent.Add(1)
				}
			}
		}
	}
}

// offer POSTs a digest batch to owner and returns the subset it wants.
func (c *Cluster) offer(ctx context.Context, owner string, digests []string) (want []string, err error) {
	ctx, os := trace.Start(ctx, "peer-offer",
		trace.String("owner", owner),
		trace.Int("digests", len(digests)))
	defer func() {
		if err != nil {
			os.SetAttr("err", err.Error())
		} else {
			os.SetAttr("want", len(want))
		}
		os.End()
	}()
	body, err := json.Marshal(offerRequest{Digests: digests})
	if err != nil {
		return nil, err
	}
	var or offerResponse
	_, err = c.roundTrip(ctx, c.breakerFor(owner), http.MethodPost, owner, OfferPath,
		body, jsonHeader(), maxReplyBytes, func(_ http.Header, reply []byte) error {
			return json.Unmarshal(reply, &or)
		})
	if err != nil {
		return nil, err
	}
	return or.Want, nil
}

// setTraceHeader forwards the originating request's trace ID (minting
// one for background work) so one logical request logs the same ID on
// every instance it touches, and the calling span's ID so the receiving
// node's trace parents onto ours.
func (c *Cluster) setTraceHeader(req *http.Request, ctx context.Context) {
	id := trace.ID(ctx)
	if id == "" {
		id = trace.NewID()
	}
	req.Header.Set(trace.Header, id)
	if sid := trace.SpanFromContext(ctx).SpanID(); sid != "" {
		req.Header.Set(trace.SpanHeader, sid)
	}
}

// signRequest stamps an outbound internal request with the cluster's
// HMAC signature. A no-op when the cluster runs in unsigned open mode
// (no AuthKey configured). The key func is consulted per request so a
// SIGHUP key rotation takes effect without rebuilding the client.
func (c *Cluster) signRequest(req *http.Request, body []byte) {
	if c.cfg.AuthKey == nil {
		return
	}
	key := c.cfg.AuthKey()
	if len(key) == 0 {
		return
	}
	req.Header.Set(tenant.InternalHeader,
		tenant.SignInternal(key, req.Method, req.URL.Path, body, time.Now()))
}

// shortDigest truncates a content digest for span attributes — enough
// to correlate, not enough to bloat every trace.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// backoff returns the nth retry delay: base doubled per step with up to
// 50% added jitter, so synchronized retry storms de-correlate.
func backoff(base time.Duration, n int) time.Duration {
	d := base << uint(n)
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleepCtx sleeps for d or until ctx ends; it reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
