package loadgen

import (
	"math"
	"testing"
	"time"
)

// TestRecorderQuantiles checks the HDR buckets against a distribution
// whose exact quantiles are known. Bucket width bounds the error at ~5%.
func TestRecorderQuantiles(t *testing.T) {
	r := NewRecorder()
	add := func(n int, d time.Duration) {
		for i := 0; i < n; i++ {
			r.Observe(d)
		}
	}
	add(5000, 1*time.Millisecond)  // ranks 1..5000
	add(4000, 10*time.Millisecond) // ranks 5001..9000
	add(900, 100*time.Millisecond) // ranks 9001..9900
	add(99, 1*time.Second)         // ranks 9901..9999
	add(1, 10*time.Second)         // rank 10000

	within := func(q float64, want time.Duration) {
		t.Helper()
		got := r.Quantile(q)
		if ratio := float64(got) / float64(want); ratio < 0.90 || ratio > 1.10 {
			t.Fatalf("q%.3f = %v, want %v ±10%%", q, got, want)
		}
	}
	within(0.50, 1*time.Millisecond)
	within(0.90, 10*time.Millisecond)
	within(0.99, 100*time.Millisecond)
	within(0.999, 1*time.Second)
	if got := r.Quantile(1); got != 10*time.Second {
		t.Fatalf("q1 = %v, want the exact max 10s", got)
	}

	st := r.Snapshot()
	if st.N != 10000 {
		t.Fatalf("count = %d, want 10000", st.N)
	}
	if st.Max != 10000 {
		t.Fatalf("max = %vms, want 10000ms", st.Max)
	}
	wantMean := (5000*1 + 4000*10 + 900*100 + 99*1000 + 1*10000) / 10000.0
	if math.Abs(st.Mean-wantMean)/wantMean > 0.01 {
		t.Fatalf("mean = %.3fms, want %.3fms", st.Mean, wantMean)
	}
}

func TestRecorderEmptyAndClamp(t *testing.T) {
	r := NewRecorder()
	if r.Quantile(0.99) != 0 {
		t.Fatal("empty recorder should report zero")
	}
	st := r.Snapshot()
	if st.N != 0 || st.Max != 0 || st.Mean != 0 {
		t.Fatalf("empty snapshot not zero: %+v", st)
	}
	r.Observe(-5 * time.Millisecond) // clock skew guard: clamps, never panics
	r.Observe(10 * time.Minute)      // beyond range: overflow bucket, exact max kept
	if got := r.Quantile(1); got != 10*time.Minute {
		t.Fatalf("max = %v, want 10m", got)
	}
}

// TestRecorderConcurrent exercises Observe/Quantile under the race
// detector.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 1000; i++ {
				r.Observe(time.Duration(w*i) * time.Microsecond)
			}
			done <- struct{}{}
		}(w)
	}
	for i := 0; i < 100; i++ {
		r.Quantile(0.99)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if st := r.Snapshot(); st.N != 4000 {
		t.Fatalf("count = %d, want 4000", st.N)
	}
}
