package main

import (
	"fmt"
	"math/rand"
)

// simBudget is the instruction budget of mixed's simulate requests, and
// of the sim.minstr_per_s replay.
const simBudget = 20000

// workload is one traffic mix.
type workload struct {
	name string
	// prime persists the whole working set before set-up, so set-up
	// measures a restart from the store.
	prime bool
	// build generates the seeded inputs.
	build func(seed int64) (*inputs, error)
	// sanity asserts, on the traced run, that the workload still
	// exercises the layer it exists for.
	sanity func(l map[string]float64) error
}

// inputs are a workload's seeded programs and request stream.
type inputs struct {
	warm   []*program     // requested once each, in order, by one client
	stream func() request // next request of the measured stream
	// fillDecompress marks that the stream's decompress bodies need the
	// .cpk bytes the warm pass returns.
	fillDecompress bool
}

// checkEvery is the mean spacing of content-checked responses.
const checkEvery = 48

func workloads() []*workload {
	return []*workload{hotWorkload(), coldWorkload(), mixedWorkload()}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want hot, cold or mixed)", name)
}

// spread returns n sizes covering [lo, hi] evenly, in a fixed scrambled
// order (stride coprime to n) so popularity rank and size are unrelated
// but identical for every seed. The seed picks program bodies and the
// request order, never the sizes, so a run's cost does not depend on
// which seed drew a large program into the head of the distribution.
func spread(n, lo, hi, stride int) []int {
	out := make([]int, n)
	for i := range out {
		k := i * stride % n
		out[i] = lo + k*(hi-lo)/(n-1)
	}
	return out
}

// ranked builds n programs: rank r is variant r of base r mod len(bases).
func ranked(bases []*base, n int) []*program {
	out := make([]*program, n)
	for r := range out {
		out[r] = bases[r%len(bases)].variant(uint32(r))
	}
	return out
}

// zipfStream draws ranks from a zipf(s) over progs and turns each into a
// request with pick; roughly one request in checkEvery is marked for a
// content check.
func zipfStream(seed int64, progs []*program, s float64, pick func(rng *rand.Rand, p *program) request) func() request {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(len(progs)-1))
	return func() request {
		r := pick(rng, progs[z.Uint64()])
		r.check = rng.Intn(checkEvery) == 0
		return r
	}
}

func compressReq(p *program) request { return request{op: "compress", body: imageBody(p), prog: p} }

// hot: every request is a cache hit on a restored store.
func hotWorkload() *workload {
	return &workload{
		name:  "hot",
		prime: true,
		build: func(seed int64) (*inputs, error) {
			bases, err := newBases(seed, spread(16, 1024, 16384, 7))
			if err != nil {
				return nil, err
			}
			progs := ranked(bases, 128)
			bodies := make([][]byte, len(progs))
			for i, p := range progs {
				bodies[i] = imageBody(p)
			}
			idx := make(map[*program]int, len(progs))
			for i, p := range progs {
				idx[p] = i
			}
			return &inputs{warm: progs, stream: zipfStream(mix(seed, 101), progs, 1.1,
				func(_ *rand.Rand, p *program) request {
					return request{op: "compress", body: bodies[idx[p]], prog: p}
				})}, nil
		},
		sanity: func(l map[string]float64) error {
			if l["cache.hit_ratio"] < 0.99 {
				return fmt.Errorf("hot: cache.hit_ratio %.4f < 0.99", l["cache.hit_ratio"])
			}
			if l["encode.count_per_op"] != 0 {
				return fmt.Errorf("hot: %.4f encodes per request, want none", l["encode.count_per_op"])
			}
			return nil
		},
	}
}

// coldVariantBase offsets the warm pass's filler variants from the
// measured stream's, so no measured request can hit a filler.
const coldVariantBase = 1 << 22

// cold: every request compresses a never-seen program into a full,
// persistent cache.
func coldWorkload() *workload {
	return &workload{
		name: "cold",
		build: func(seed int64) (*inputs, error) {
			bases, err := newBases(seed, spread(32, 2048, 8192, 13))
			if err != nil {
				return nil, err
			}
			fill := make([]*program, 256) // the default cache size
			for i := range fill {
				fill[i] = bases[i%len(bases)].variant(coldVariantBase + uint32(i))
			}
			// Each block of len(bases) requests uses every base once, in a
			// seeded order, so the mean program size is the same in every
			// phase of every run.
			rng := rand.New(rand.NewSource(mix(seed, 102)))
			var order []int
			next := uint32(0)
			return &inputs{warm: fill, stream: func() request {
				if len(order) == 0 {
					order = rng.Perm(len(bases))
				}
				b := bases[order[0]]
				order = order[1:]
				r := compressReq(b.variant(next))
				next++
				r.check = rng.Intn(checkEvery) == 0
				return r
			}}, nil
		},
		sanity: func(l map[string]float64) error {
			if l["cache.hit_ratio"] != 0 {
				return fmt.Errorf("cold: cache.hit_ratio %.4f, want 0", l["cache.hit_ratio"])
			}
			if e := l["encode.count_per_op"]; e < 0.98 || e > 1.02 {
				return fmt.Errorf("cold: %.4f encodes per request, want 1", e)
			}
			if e := l["cache.evictions_per_op"]; e < 0.9 || e > 1.1 {
				return fmt.Errorf("cold: %.4f evictions per request, want about 1", e)
			}
			return nil
		},
	}
}

// mixedOps is one block of mixed's blend: 40% compress by asm, 20% each
// verify, decompress and simulate.
var mixedOps = []string{"compress", "compress", "compress", "compress", "verify", "verify", "decompress", "decompress", "simulate", "simulate"}

// mixed: all four endpoints over a working set four times the cache.
func mixedWorkload() *workload {
	return &workload{
		name: "mixed",
		build: func(seed int64) (*inputs, error) {
			bases, err := newBases(seed, spread(64, 256, 4096, 23))
			if err != nil {
				return nil, err
			}
			progs := ranked(bases, 1024)
			var ops []string
			return &inputs{warm: progs, fillDecompress: true,
				stream: zipfStream(mix(seed, 103), progs, 1.1, func(rng *rand.Rand, p *program) request {
					// Every block of ten requests holds the exact mix, in a
					// seeded order, so no seed gets a costlier blend.
					if len(ops) == 0 {
						for _, k := range rng.Perm(len(mixedOps)) {
							ops = append(ops, mixedOps[k])
						}
					}
					op := ops[0]
					ops = ops[1:]
					switch op {
					case "compress":
						return request{op: op, body: asmBody(p), prog: p}
					case "verify":
						return request{op: op, body: verifyBody(p), prog: p}
					case "decompress":
						return request{op: op, body: decompressBody(p), prog: p}
					default:
						return request{op: op, body: simulateBody(p, simBudget), prog: p}
					}
				})}, nil
		},
		sanity: func(l map[string]float64) error {
			if h := l["cache.hit_ratio"]; h <= 0 || h >= 1 {
				return fmt.Errorf("mixed: cache.hit_ratio %.4f, want strictly between 0 and 1", h)
			}
			if l["cache.evictions_per_op"] <= 0 {
				return fmt.Errorf("mixed: no evictions")
			}
			return nil
		},
	}
}
