// Package obs is cpackd's service-level-objective subsystem: declared
// latency and availability objectives tracked with multi-window
// burn-rate math over sliding error-budget rings, an ok→warn→page alert
// state machine, and a triggered continuous profiler that snapshots
// CPU/heap/goroutine profiles into a bounded on-disk ring whenever an
// alert fires — so the evidence for a tail-latency regression exists
// before anyone attaches a debugger.
//
// Like the rest of cpackd it is dependency-free: the config format is the
// linecfg line grammar shared with the tenants file (hot-reloadable on
// SIGHUP), the rings are plain bucketed counters, and the engine
// exposes snapshots for /debug/slo and the cpackd_slo_* metrics.
package obs

import (
	"fmt"
	"strconv"
	"time"

	"codepack/internal/linecfg"
)

// Default burn-rate thresholds. The fast pair (5m/1h windows) pages:
// at 14x burn a 1h-window budget is gone in ~4 minutes. The slow pair
// (30m/6h) warns: a 6x burn exhausts the budget well before the window
// rolls over but leaves time to react.
const (
	DefaultFastBurn = 14.0
	DefaultSlowBurn = 6.0
	// DefaultWindow is the error-budget accounting window when the
	// config does not name one. Production SLOs usually run 30d; a
	// compression service that redeploys daily gets more signal from a
	// tighter default.
	DefaultWindow = time.Hour
)

// Objective is one declared SLO: a target fraction of good requests
// over a budget window, scoped to an endpoint and/or tenant, judged as
// a latency objective (Latency > 0: a request slower than Latency is
// bad) or an availability objective (Latency == 0: a 5xx is bad). A
// slow 5xx is bad under either reading.
type Objective struct {
	// Name identifies the objective in metrics, /debug/slo and alerts.
	Name string
	// Endpoint restricts the objective to one public endpoint name
	// ("compress", "simulate", ...); empty matches every endpoint.
	Endpoint string
	// Tenant restricts the objective to one tenant ID; empty matches
	// every tenant.
	Tenant string
	// Target is the good-request fraction the objective promises,
	// exclusive on both ends (0 < Target < 1). The error budget is
	// 1 - Target.
	Target float64
	// Latency, when positive, makes this a latency objective: requests
	// slower than it burn budget. Zero makes it an availability
	// objective (only 5xx burns budget).
	Latency time.Duration
	// Window is the error-budget accounting window (0 = DefaultWindow).
	Window time.Duration
	// FastBurn and SlowBurn override the page/warn burn-rate thresholds
	// (0 = defaults).
	FastBurn float64
	SlowBurn float64
}

// budgetFraction is the objective's error budget as a fraction of
// traffic.
func (o Objective) budgetFraction() float64 { return 1 - o.Target }

// sameShape reports whether a reloaded objective can inherit this
// one's ring and alert state: the identity and accounting parameters
// match (thresholds may change freely — they only affect evaluation).
func (o Objective) sameShape(p Objective) bool {
	return o.Name == p.Name && o.Endpoint == p.Endpoint && o.Tenant == p.Tenant &&
		o.Target == p.Target && o.Latency == p.Latency && o.Window == p.Window
}

// Snapshot is one immutable parsed SLO config.
type Snapshot struct {
	Objectives []Objective
	// Source names where the snapshot came from, for logs.
	Source string
}

// ParseConfig parses the SLO config format, in the linecfg grammar:
//
//	slo <name> target=<percent> [endpoint=<ep>] [tenant=<id>] \
//	           [latency=<dur>] [window=<dur>] [fast-burn=<x>] [slow-burn=<x>]
//
// target is a percentage (99.9 means 99.9% of requests good); latency
// present makes a latency objective (requests slower than the duration
// burn budget), absent an availability objective (5xx burns budget).
// Errors name the offending line. The parser never panics on any input
// (see FuzzSLOConfig).
func ParseConfig(src, name string) (*Snapshot, error) {
	snap := &Snapshot{Source: name}
	seen := map[string]bool{}
	if err := linecfg.Scan(src, name, func(fields []string, errf func(string, ...any) error) error {
		if fields[0] != "slo" {
			return errf("unknown directive %q (want slo)", fields[0])
		}
		if len(fields) < 2 {
			return errf("slo needs a name")
		}
		id := fields[1]
		if !validName(id) {
			return errf("invalid slo name %q (want [a-z0-9_-], 1..48 bytes)", id)
		}
		if seen[id] {
			return errf("duplicate slo %q", id)
		}
		o := Objective{Name: id}
		if err := parseObjectiveAttrs(&o, fields[2:]); err != nil {
			return errf("slo %s: %v", id, err)
		}
		if o.Target == 0 {
			return errf("slo %s: missing target=", id)
		}
		seen[id] = true
		snap.Objectives = append(snap.Objectives, o)
		return nil
	}); err != nil {
		return nil, err
	}
	return snap, nil
}

func parseObjectiveAttrs(o *Objective, attrs []string) error {
	return linecfg.Attrs(attrs, func(k, v string) error {
		switch k {
		case "target":
			pct, err := strconv.ParseFloat(v, 64)
			if err != nil || pct <= 0 || pct >= 100 {
				return fmt.Errorf("target must be a percent in (0,100), got %q", v)
			}
			o.Target = pct / 100
		case "endpoint":
			if !validName(v) {
				return fmt.Errorf("invalid endpoint %q", v)
			}
			o.Endpoint = v
		case "tenant":
			if !validName(v) {
				return fmt.Errorf("invalid tenant %q", v)
			}
			o.Tenant = v
		case "latency":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 || d > 24*time.Hour {
				return fmt.Errorf("latency must be a positive duration up to 24h, got %q", v)
			}
			o.Latency = d
		case "window":
			d, err := time.ParseDuration(v)
			if err != nil || d < time.Minute || d > 30*24*time.Hour {
				return fmt.Errorf("window must be a duration in [1m,720h], got %q", v)
			}
			o.Window = d
		case "fast-burn":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f > 1e6 {
				return fmt.Errorf("fast-burn must be in (0,1e6], got %q", v)
			}
			o.FastBurn = f
		case "slow-burn":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f > 1e6 {
				return fmt.Errorf("slow-burn must be in (0,1e6], got %q", v)
			}
			o.SlowBurn = f
		default:
			return fmt.Errorf("unknown attribute %q", k)
		}
		return nil
	})
}

// validName bounds the names that land in metric labels, so a hostile
// config cannot bloat or corrupt the exposition.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 48 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}
