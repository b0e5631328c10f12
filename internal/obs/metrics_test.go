package obs

import (
	"math"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this doubles as the data-race check for the hot path.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestCounterVecConcurrent exercises the labeled fast path (RLock
// lookup) concurrently with child creation.
func TestCounterVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_labeled_total", "t", "k")
	labels := []string{"a", "b", "c", "d"}
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v.With(labels[(w+i)%len(labels)]).Inc()
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, l := range labels {
		total += v.With(l).Value()
	}
	if total != workers*perWorker {
		t.Fatalf("sum over labels = %d, want %d", total, workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "t")
	g.Set(42)
	g.Add(-2)
	if got := g.Value(); got != 40 {
		t.Fatalf("gauge = %d, want 40", got)
	}
}

// TestHistogramConcurrent checks bucket assignment, count, and sum
// under concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "t", []float64{1, 10, 100})
	const workers, perWorker = 8, 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(5) // lands in the (1,10] bucket
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	want := float64(workers*perWorker) * 5
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestHistogramBucketBoundaries pins the upper-bound-inclusive bucket
// semantics Prometheus expects (le is <=).
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_bounds", "t", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3} {
		h.Observe(v)
	}
	c := h.c
	got := []uint64{c.hist.buckets[0].Load(), c.hist.buckets[1].Load(), c.hist.buckets[2].Load()}
	want := []uint64{2, 2, 1} // le=1: {0.5,1}; le=2 adds {1.5,2}; +Inf adds {3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestNilSafety runs every instrument operation against nil receivers:
// a disabled registry must cost nothing and crash nothing.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.CounterVec("x", "", "k").With("v").Add(2)
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "", nil).Observe(1)
	r.HistogramVec("x", "", nil, "k").With("v").Observe(1)
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if err := r.WriteSummary(nil); err != nil {
		t.Fatalf("nil registry WriteSummary: %v", err)
	}
	OrDiscard(nil).Info("ignored", "k", "v")
	OrDiscard(nil).With("a", 1).Debug("ignored")
	var sp *Span
	sp.SetAttr("k", "v")
	sp.End()
}

// TestReRegistration verifies that asking for the same family twice
// returns the same sample, and that a kind collision yields a detached
// (but usable) instrument instead of corrupting the family.
func TestReRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "t")
	b := r.Counter("same_total", "t")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("re-registered counter = %d, want shared value 2", got)
	}
	g := r.Gauge("same_total", "collides with the counter")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("detached gauge = %d, want 7", got)
	}
	if got := a.Value(); got != 2 {
		t.Fatalf("counter corrupted by collision: %d", got)
	}
	// Label-arity mismatch on With: no-op, no panic.
	v := r.CounterVec("labeled_total", "t", "k")
	v.With("a", "b").Inc()
	if got := v.With("a").Value(); got != 0 {
		t.Fatalf("arity-mismatched Inc leaked into a real child: %d", got)
	}
}
