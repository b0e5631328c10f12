package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind distinguishes metric families.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// DefBuckets are the default histogram boundaries, in seconds, spanning
// in-process calls (sub-microsecond) through remote round trips.
var DefBuckets = []float64{
	1e-6, 5e-6, 25e-6, 100e-6, 500e-6,
	1e-3, 5e-3, 25e-3, 100e-3, 500e-3,
	1, 5,
}

// DefDurationBuckets are the log-spaced (HDR-style) duration
// boundaries, in seconds: five boundaries per decade from 1µs to 10s.
// The constant ratio between adjacent bounds (10^(1/5) ≈ 1.58) bounds
// the relative error of a Quantile estimate by the bucket width at any
// magnitude, which fixed hand-picked boundaries cannot promise.
// Latency instruments (chain source, RPC wire, CT polls, loadgen)
// should use these.
var DefDurationBuckets = LogBuckets(1e-6, 10, 5)

// LogBuckets returns log-spaced histogram boundaries covering
// [min, max]: perDecade boundaries per factor of ten, computed in
// exponent form so the spacing does not accumulate floating-point
// drift. min and max must be positive with min < max; perDecade must
// be positive. Invalid arguments yield nil (the caller then falls back
// to DefBuckets).
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade <= 0 {
		return nil
	}
	var out []float64
	for i := 0; ; i++ {
		v := min * math.Pow(10, float64(i)/float64(perDecade))
		if v > max*(1+1e-12) {
			break
		}
		out = append(out, v)
	}
	return out
}

// Registry holds named metric families. The zero value is not usable;
// call NewRegistry. All methods tolerate a nil receiver, handing out
// nil instruments whose operations are no-ops, so instrumented code
// runs unchanged with observability disabled.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by the commands.
func Default() *Registry { return defaultRegistry }

// family is one named metric with zero or more labeled children.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64

	mu       sync.RWMutex
	children map[string]*child
	order    []string
}

// child is one (label-values) sample of a family.
type child struct {
	labelValues []string
	count       atomic.Uint64 // counter value / histogram observation count
	gauge       atomic.Int64
	hist        *histogramData
}

// histogramData holds the atomic histogram hot path: one bucket counter
// per boundary plus +Inf, and a CAS-updated float sum.
type histogramData struct {
	upper   []float64
	buckets []atomic.Uint64 // len(upper)+1; last is +Inf
	sumBits atomic.Uint64
}

func (h *histogramData) observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *histogramData) sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// family registers (or retrieves) a named family. Re-registering with a
// different kind or label set returns a detached family that records
// normally but is never exported, so a naming collision cannot corrupt
// the exposition — callers are expected to keep names unique.
func (r *Registry) family(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind == kind && equalStrings(f.labels, labels) {
			return f
		}
		return newFamily(name, help, kind, labels, buckets)
	}
	f := newFamily(name, help, kind, labels, buckets)
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func newFamily(name, help string, kind Kind, labels []string, buckets []float64) *family {
	return &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
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

const labelSep = "\x1f"

// child finds or creates the sample for the given label values. A
// label-arity mismatch yields nil (a no-op instrument).
func (f *family) child(values []string) *child {
	if f == nil || len(values) != len(f.labels) {
		return nil
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[key]; c != nil {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		upper := f.buckets
		if len(upper) == 0 {
			upper = DefBuckets
		}
		c.hist = &histogramData{upper: upper}
		c.hist.buckets = make([]atomic.Uint64, len(upper)+1)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Counter is a monotonically increasing count. Nil-safe.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil || c.c == nil {
		return
	}
	c.c.count.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil || c.c == nil {
		return 0
	}
	return c.c.count.Load()
}

// Gauge is a settable integer value. Nil-safe.
type Gauge struct{ c *child }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil || g.c == nil {
		return
	}
	g.c.gauge.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil || g.c == nil {
		return
	}
	g.c.gauge.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil || g.c == nil {
		return 0
	}
	return g.c.gauge.Load()
}

// Histogram accumulates observations into fixed buckets. Nil-safe.
type Histogram struct{ c *child }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.c == nil || h.c.hist == nil {
		return
	}
	h.c.count.Add(1)
	h.c.hist.observe(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil || h.c == nil {
		return 0
	}
	return h.c.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil || h.c == nil || h.c.hist == nil {
		return 0
	}
	return h.c.hist.sum()
}

// Snapshot returns a coherent copy of the histogram's buckets: the
// total count is derived from the bucket counters themselves, so the
// cumulative +Inf bucket always equals the count even while observers
// are mid-flight. Nil on a no-op instrument.
func (h *Histogram) Snapshot() *HistSnapshot {
	if h == nil || h.c == nil || h.c.hist == nil {
		return nil
	}
	return h.c.histSnapshot()
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// rank, the same estimator Prometheus's histogram_quantile uses. NaN
// when the histogram is empty or the instrument is a no-op.
func (h *Histogram) Quantile(p float64) float64 {
	return h.Snapshot().Quantile(p)
}

// histSnapshot reads the histogram once: every bucket counter is
// loaded into a plain slice and the total observation count is the sum
// of those loads, never the separate observation counter (which an
// in-flight Observe may have bumped ahead of its bucket). This is what
// keeps _bucket{le="+Inf"} == _count in every export.
func (c *child) histSnapshot() *HistSnapshot {
	h := c.hist
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		v := h.buckets[i].Load()
		counts[i] = v
		total += v
	}
	return &HistSnapshot{
		Upper:  h.upper,
		Counts: counts,
		Count:  total,
		Sum:    h.sum(),
	}
}

// CounterVec is a counter family partitioned by labels. Nil-safe.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{c: v.f.child(values)}
}

// HistogramVec is a histogram family partitioned by labels. Nil-safe.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{c: v.f.child(values)}
}

// Counter registers (or retrieves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, KindCounter, nil, nil)
	return &Counter{c: f.child(nil)}
}

// CounterVec registers (or retrieves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.family(name, help, KindCounter, labels, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// Gauge registers (or retrieves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, KindGauge, nil, nil)
	return &Gauge{c: f.child(nil)}
}

// Histogram registers (or retrieves) an unlabeled histogram with the
// given bucket upper bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, KindHistogram, nil, buckets)
	return &Histogram{c: f.child(nil)}
}

// HistogramVec registers (or retrieves) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.family(name, help, KindHistogram, labels, buckets)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}
