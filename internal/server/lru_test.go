package server

import (
	"bytes"
	"fmt"
	"testing"

	"codepack"
)

// makeComp builds a distinct small compressed program for cache tests.
func makeComp(t *testing.T, seed uint32) *codepack.Compressed {
	t.Helper()
	text := make([]uint32, 64)
	for i := range text {
		text[i] = 0x24020000 | seed<<6 | uint32(i) // addiu-shaped words
	}
	c, err := codepack.CompressWords(fmt.Sprintf("prog%d", seed), 0x00400000, text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wireOf is comp as the cache holds it.
func wireOf(comp *codepack.Compressed) wireForm {
	return wireForm{comp.Marshal(), comp.Stats()}
}

// makeWire is makeComp in the cache's form.
func makeWire(t *testing.T, seed uint32) wireForm {
	t.Helper()
	return wireOf(makeComp(t, seed))
}

func TestCompCacheHitMiss(t *testing.T) {
	c := newCompCache(4)
	if _, _, ok := c.lookup("a", true); ok {
		t.Fatal("hit on empty cache")
	}
	wf := makeWire(t, 1)
	c.put("a", wf)
	got, _, ok := c.lookup("a", true)
	if !ok || !bytes.Equal(got.wire, wf.wire) {
		t.Fatal("put entry not returned")
	}
	s := c.stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats %+v, want hits=1 misses=1 entries=1", s)
	}
	if s.Bytes != int64(len(wf.wire)) {
		t.Errorf("resident bytes %d, want %d (the entry's .cpk bytes)", s.Bytes, len(wf.wire))
	}
}

func TestCompCacheEvictsLRU(t *testing.T) {
	c := newCompCache(2)
	c.put("a", makeWire(t, 1))
	c.put("b", makeWire(t, 2))
	c.lookup("a", true) // a is now most recently used
	c.put("c", makeWire(t, 3))
	if _, _, ok := c.lookup("b", true); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, _, ok := c.lookup("a", true); !ok {
		t.Error("a (recently used) was evicted")
	}
	if _, _, ok := c.lookup("c", true); !ok {
		t.Error("c (just inserted) missing")
	}
	if s := c.stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats %+v, want evictions=1 entries=2", s)
	}
}

func TestCompCacheDisabled(t *testing.T) {
	c := newCompCache(-1)
	c.put("a", makeWire(t, 1))
	if _, _, ok := c.lookup("a", true); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if s := c.stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("disabled cache holds state: %+v", s)
	}
}

// TestCompCacheVerifiedPutReplacesQuarantined: a verified put over a
// quarantined entry replaces its unproven bytes, not just its flag, and
// the entry then counts as newly verified (so it is persisted).
func TestCompCacheVerifiedPutReplacesQuarantined(t *testing.T) {
	c := newCompCache(4)
	wrong, right := makeWire(t, 1), makeWire(t, 2)
	c.putReplicated("k", wrong)
	if !c.putMem("k", right, true) {
		t.Error("verified put over a quarantined entry not reported for persisting")
	}
	got, verified, ok := c.lookup("k", true)
	if !ok || !verified || !bytes.Equal(got.wire, right.wire) {
		t.Errorf("entry after verified put: ok=%v verified=%v right bytes=%v", ok, verified, bytes.Equal(got.wire, right.wire))
	}
	if s := c.stats(); s.Bytes != int64(len(right.wire)) || s.Unverified != 0 {
		t.Errorf("stats %+v, want bytes=%d unverified=0", s, len(right.wire))
	}
	if c.putMem("k", wrong, false) {
		t.Error("replicated refresh of a verified entry reported for persisting")
	}
	if got, _, _ := c.lookup("k", true); !bytes.Equal(got.wire, right.wire) {
		t.Error("replicated refresh replaced a verified entry's bytes")
	}
}
