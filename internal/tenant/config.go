package tenant

import (
	"fmt"
	"strconv"
	"strings"

	"codepack/internal/linecfg"
)

// Snapshot is one immutable parsed tenants config. The request path
// reads a Snapshot through an atomic pointer; a reload builds a fresh
// one and swaps it in whole, so a half-applied config is never visible.
type Snapshot struct {
	// ClusterKey signs and verifies /internal/v1/* peer traffic.
	// Empty means open mode: internal endpoints accept unsigned
	// requests (the pre-tenancy trusted-network deployment).
	ClusterKey []byte
	// ByID indexes every declared tenant, including anon when enabled.
	ByID map[string]*Tenant
	// ByKey indexes key-bearing tenants for O(1) auth lookups.
	ByKey map[string]*Tenant
	// Anon is the pseudo-tenant admitted without a key, or nil when
	// anonymous access is disabled (unauthenticated requests get 401).
	Anon *Tenant
	// Source names where the snapshot came from, for logs.
	Source string
}

// OpenSnapshot is the zero-config snapshot: no cluster key, anonymous
// callers admitted with weight 1 and no limits. It preserves the
// pre-tenancy behaviour of a server started without -tenants.
func OpenSnapshot() *Snapshot {
	anon := &Tenant{ID: AnonID, Weight: 1}
	return &Snapshot{
		ByID:   map[string]*Tenant{AnonID: anon},
		ByKey:  map[string]*Tenant{},
		Anon:   anon,
		Source: "open",
	}
}

// ParseConfig parses the tenants config format, in the linecfg grammar:
//
//	cluster-key <secret>                # optional; enables signed peer traffic
//	tenant <id> key=<key> [weight=<n>] [rate=<rps>] [burst=<n>] [quota=<bytes|KiB|MiB|GiB>]
//	anon [weight=<n>] [rate=<rps>] [burst=<n>] [quota=<...>]  # enable unauthenticated access
//
// Defaults: weight=1, rate/quota unlimited, burst=max(1,rate). Errors
// name the offending line. The parser never panics on any input (see
// FuzzTenantConfig).
func ParseConfig(src, name string) (*Snapshot, error) {
	snap := &Snapshot{
		ByID:   map[string]*Tenant{},
		ByKey:  map[string]*Tenant{},
		Source: name,
	}
	if err := linecfg.Scan(src, name, func(fields []string, errf func(string, ...any) error) error {
		switch fields[0] {
		case "cluster-key":
			if len(fields) != 2 {
				return errf("cluster-key takes exactly one value")
			}
			if len(snap.ClusterKey) > 0 {
				return errf("duplicate cluster-key")
			}
			if err := validateKey(fields[1]); err != nil {
				return errf("cluster-key: %v", err)
			}
			snap.ClusterKey = []byte(fields[1])
		case "tenant":
			if len(fields) < 2 {
				return errf("tenant needs an id")
			}
			id := fields[1]
			if !ValidID(id) {
				return errf("invalid tenant id %q (want lowercase [a-z0-9_-], 1..32 bytes)", id)
			}
			if id == AnonID || id == InternalID {
				return errf("tenant id %q is reserved (use an %q line for anonymous access)", id, AnonID)
			}
			t := &Tenant{ID: id, Weight: 1}
			if err := parseAttrs(t, fields[2:], true); err != nil {
				return errf("tenant %s: %v", id, err)
			}
			if _, dup := snap.ByID[id]; dup {
				return errf("duplicate tenant id %q", id)
			}
			if prev, dup := snap.ByKey[t.Key]; dup {
				return errf("tenant %s reuses the key of tenant %s", id, prev.ID)
			}
			snap.ByID[id] = t
			snap.ByKey[t.Key] = t
		case AnonID:
			if snap.Anon != nil {
				return errf("duplicate anon line")
			}
			t := &Tenant{ID: AnonID, Weight: 1}
			if err := parseAttrs(t, fields[1:], false); err != nil {
				return errf("anon: %v", err)
			}
			snap.Anon = t
			snap.ByID[AnonID] = t
		default:
			return errf("unknown directive %q", fields[0])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return snap, nil
}

// parseAttrs fills t from key=value attributes. wantKey requires (and
// permits) a key= attribute — the anon line takes none.
func parseAttrs(t *Tenant, attrs []string, wantKey bool) error {
	if err := linecfg.Attrs(attrs, func(k, v string) error {
		switch k {
		case "key":
			if !wantKey {
				return fmt.Errorf("anon takes no key")
			}
			if err := validateKey(v); err != nil {
				return fmt.Errorf("key %s: %v", redact(v), err)
			}
			t.Key = v
		case "weight":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > 1000 {
				return fmt.Errorf("weight must be an integer in 1..1000, got %q", v)
			}
			t.Weight = n
		case "rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1e9 {
				return fmt.Errorf("rate must be a number in 0..1e9, got %q", v)
			}
			t.RateRPS = f
		case "burst":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1e9 {
				return fmt.Errorf("burst must be a number in 0..1e9, got %q", v)
			}
			t.Burst = f
		case "quota":
			n, err := parseBytes(v)
			if err != nil {
				return fmt.Errorf("quota: %v", err)
			}
			t.QuotaBytes = n
		default:
			return fmt.Errorf("unknown attribute %q", k)
		}
		return nil
	}); err != nil {
		return err
	}
	if wantKey && t.Key == "" {
		return fmt.Errorf("missing key=")
	}
	if t.RateRPS > 0 && t.Burst == 0 {
		t.Burst = max(1, t.RateRPS)
	}
	return nil
}

// parseBytes parses a byte size with an optional KiB/MiB/GiB suffix.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10}} {
		if strings.HasSuffix(s, u.suffix) {
			s, mult = strings.TrimSuffix(s, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a non-negative byte count (optionally KiB/MiB/GiB), got %q", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("byte count overflows: %q", s)
	}
	return n * mult, nil
}
