package tenant

import (
	"strings"
	"sync"
	"testing"
	"time"
)

const validCfg = `
# production tenants
cluster-key s3cret-cluster-key
tenant acme key=acme-key-123 weight=3 rate=100 burst=20 quota=10MiB
tenant zenith key=zenith-key-456
anon weight=1 rate=5
`

func TestParseConfigValid(t *testing.T) {
	snap, err := ParseConfig(validCfg, "test")
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if string(snap.ClusterKey) != "s3cret-cluster-key" {
		t.Errorf("cluster key = %q", snap.ClusterKey)
	}
	acme := snap.ByKey["acme-key-123"]
	if acme == nil || acme.ID != "acme" || acme.Weight != 3 || acme.RateRPS != 100 || acme.Burst != 20 {
		t.Errorf("acme = %+v", acme)
	}
	if acme.QuotaBytes != 10<<20 {
		t.Errorf("acme quota = %d, want %d", acme.QuotaBytes, 10<<20)
	}
	z := snap.ByID["zenith"]
	if z == nil || z.Weight != 1 || z.RateRPS != 0 || z.QuotaBytes != 0 {
		t.Errorf("zenith defaults = %+v", z)
	}
	if snap.Anon == nil || snap.Anon.RateRPS != 5 || snap.Anon.Burst != 5 {
		t.Errorf("anon = %+v", snap.Anon)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name, cfg, wantErr string
	}{
		{"dup id", "tenant a key=aaaaaaaa\ntenant a key=bbbbbbbb", "duplicate tenant id"},
		{"dup key", "tenant a key=samekey1\ntenant b key=samekey1", "reuses the key"},
		{"zero weight", "tenant a key=aaaaaaaa weight=0", "weight must be"},
		{"negative weight", "tenant a key=aaaaaaaa weight=-3", "weight must be"},
		{"short key", "tenant a key=short", "8..128 bytes"},
		{"bad id", "tenant Not-Valid key=aaaaaaaa", "invalid tenant id"},
		{"reserved anon", "tenant anon key=aaaaaaaa", "reserved"},
		{"reserved internal", "tenant internal key=aaaaaaaa", "reserved"},
		{"missing key", "tenant a weight=2", "missing key="},
		{"unknown directive", "frobnicate x", "unknown directive"},
		{"unknown attr", "tenant a key=aaaaaaaa color=red", "unknown attribute"},
		{"dup cluster key", "cluster-key aaaaaaaa\ncluster-key bbbbbbbb", "duplicate cluster-key"},
		{"dup anon", "anon\nanon", "duplicate anon"},
		{"anon with key", "anon key=aaaaaaaa", "anon takes no key"},
		{"bad quota", "tenant a key=aaaaaaaa quota=lots", "quota"},
		{"negative rate", "tenant a key=aaaaaaaa rate=-1", "rate must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig(tc.cfg, "t")
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	snap, err := ParseConfig(validCfg, "test")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(snap)
	if tn, ok := r.Lookup("acme-key-123"); !ok || tn.ID != "acme" {
		t.Errorf("Lookup(acme key) = %v, %v", tn, ok)
	}
	if _, ok := r.Lookup("no-such-key"); ok {
		t.Error("unknown key admitted")
	}
	if tn, ok := r.Lookup(""); !ok || tn.ID != AnonID {
		t.Errorf("Lookup(empty) = %v, %v; want anon", tn, ok)
	}

	// Without an anon line, unauthenticated lookups are rejected.
	snap2, err := ParseConfig("tenant a key=aaaaaaaa", "test")
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(snap2)
	if _, ok := r2.Lookup(""); ok {
		t.Error("anon admitted without an anon line")
	}
}

func TestRateLimitAdmitAndRetryAfter(t *testing.T) {
	snap, _ := ParseConfig("tenant a key=aaaaaaaa rate=2 burst=2", "test")
	r := NewRegistry(snap)
	tn := snap.ByID["a"]
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if d := r.Admit(tn, now); !d.OK {
			t.Fatalf("request %d denied: %+v", i, d)
		}
	}
	d := r.Admit(tn, now)
	if d.OK || d.Reason != "rate" {
		t.Fatalf("third request = %+v, want rate denial", d)
	}
	// At 2 rps, one token takes 0.5s -> Retry-After floors at 1s.
	if d.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s", d.RetryAfter)
	}
	// After refill, admitted again.
	if d := r.Admit(tn, now.Add(time.Second)); !d.OK {
		t.Errorf("post-refill denied: %+v", d)
	}
}

func TestRetryAfterScalesWithDebt(t *testing.T) {
	snap, _ := ParseConfig("tenant slow key=aaaaaaaa rate=0.1 burst=1", "test")
	r := NewRegistry(snap)
	tn := snap.ByID["slow"]
	now := time.Unix(1000, 0)
	if d := r.Admit(tn, now); !d.OK {
		t.Fatal("first denied")
	}
	d := r.Admit(tn, now)
	// Empty bucket at 0.1 rps: ten seconds until the next token.
	if d.OK || d.RetryAfter != 10*time.Second {
		t.Fatalf("decision = %+v, want 10s retry", d)
	}
}

func TestByteQuota(t *testing.T) {
	snap, _ := ParseConfig("tenant a key=aaaaaaaa quota=1000", "test")
	r := NewRegistry(snap)
	tn := snap.ByID["a"]
	now := time.Unix(5000, 0)

	if d := r.Admit(tn, now); !d.OK {
		t.Fatalf("under quota denied: %+v", d)
	}
	r.AccountBytes("a", 1500, now)
	d := r.Admit(tn, now.Add(time.Second))
	if d.OK || d.Reason != "quota" {
		t.Fatalf("over quota = %+v, want quota denial", d)
	}
	if d.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", d.RetryAfter)
	}
	// After the window rolls past the spend, admitted again.
	if d := r.Admit(tn, now.Add(QuotaWindow+2*time.Second)); !d.OK {
		t.Fatalf("post-window denied: %+v", d)
	}
}

func TestReloadKeepsDebt(t *testing.T) {
	snap, _ := ParseConfig("tenant a key=aaaaaaaa quota=1000", "test")
	r := NewRegistry(snap)
	now := time.Unix(5000, 0)
	r.AccountBytes("a", 5000, now)

	// Reload with the same tenant: the spend survives.
	snap2, _ := ParseConfig("tenant a key=aaaaaaaa quota=1000\ntenant b key=bbbbbbbb", "test")
	r.Reload(snap2)
	if d := r.Admit(snap2.ByID["a"], now.Add(time.Second)); d.OK {
		t.Fatal("quota debt forgiven by reload")
	}
	if got := r.WindowBytes("a", now.Add(time.Second)); got != 5000 {
		t.Errorf("WindowBytes = %d, want 5000", got)
	}

	// Reload dropping the tenant: its state is garbage-collected.
	snap3, _ := ParseConfig("tenant b key=bbbbbbbb", "test")
	r.Reload(snap3)
	if got := r.WindowBytes("a", now); got != 0 {
		t.Errorf("dropped tenant WindowBytes = %d, want 0", got)
	}
}

func TestUnlimitedTenantSkipsState(t *testing.T) {
	snap, _ := ParseConfig("tenant free key=aaaaaaaa", "test")
	r := NewRegistry(snap)
	tn := snap.ByID["free"]
	now := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		if d := r.Admit(tn, now); !d.OK {
			t.Fatalf("unlimited tenant denied at %d", i)
		}
	}
	r.AccountBytes("free", 1<<40, now)
	if d := r.Admit(tn, now); !d.OK {
		t.Fatal("unlimited tenant denied after bytes")
	}
}

func TestRegistryConcurrentAdmitReload(t *testing.T) {
	snapA, _ := ParseConfig("tenant a key=aaaaaaaa rate=1000 quota=1MiB\ntenant b key=bbbbbbbb", "test")
	snapB, _ := ParseConfig("tenant a key=aaaaaaaa rate=10 quota=1000\nanon", "test")
	r := NewRegistry(snapA)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := time.Unix(100, 0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				for id, tn := range snap.ByID {
					r.Admit(tn, now)
					r.AccountBytes(id, 100, now)
					r.WindowBytes(id, now)
				}
				now = now.Add(time.Millisecond)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			r.Reload(snapB)
		} else {
			r.Reload(snapA)
		}
		r.ClusterKey()
	}
	close(stop)
	wg.Wait()
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"a", "acme", "acme-prod_2", strings.Repeat("x", 32)} {
		if !ValidID(ok) {
			t.Errorf("ValidID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "Acme", "-lead", "has space", strings.Repeat("x", 33), "é"} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true", bad)
		}
	}
}

func TestOpenSnapshot(t *testing.T) {
	r := NewRegistry(nil)
	tn, ok := r.Lookup("")
	if !ok || tn.ID != AnonID {
		t.Fatalf("open-mode anon lookup = %v, %v", tn, ok)
	}
	if d := r.Admit(tn, time.Now()); !d.OK {
		t.Fatal("open-mode anon denied")
	}
	if r.ClusterKey() != nil {
		t.Fatal("open mode has a cluster key")
	}
}
