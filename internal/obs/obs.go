// Package obs is the pipeline's self-observability plane: a
// zero-dependency metrics registry (counters, gauges, log-bucketed
// histograms, scrape-time collectors) plus health probes. Records carry
// no per-event trace: per-hop latency is to come from per-batch
// timestamps folded into sampled histograms, not from stamping every
// record. The paper's whole point is run-time diagnosis of an I/O
// pipeline; obs turns the same lens on our own pipeline so a stalled
// chaos soak or a backed-up spool is visible per stage instead of only
// in final counters.
//
// Two properties are contractual:
//
//   - Clock-agnostic. obs never reads a clock on its own. Every
//     timestamped observation goes through an injected Clock: the sim
//     zone passes virtual time (sim.Engine.Now / darshan.Ctx.Now), the
//     real daemons pass WallClock(). A dedicated dlc-lint check
//     (obsclock) bans WallClock from the sim zone.
//
//   - Non-perturbing. Instruments are nil-safe no-ops when unattached,
//     and heavy aggregation happens only at scrape time (collectors read
//     existing stats structs). With telemetry fully enabled,
//     every seeded table and figure must remain bit-identical — CI
//     diffs a telemetry-on run against a telemetry-off run to enforce
//     it.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter is a no-op so call sites never need guards.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 level (spool depth, outstanding pool
// buffers). The zero value is ready; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-shape log2-bucketed histogram of non-negative
// values: bucket i counts observations v with bitlen(v) == i, i.e.
// upper bounds 0, 1, 3, 7, ..., 2^k-1. The shape is fixed so Observe is
// a single atomic add with no allocation, and two histograms fed the
// same values render identically — which keeps seeded reports stable.
// The zero value is ready; a nil *Histogram is a no-op.
type Histogram struct {
	buckets [65]atomic.Uint64 // buckets[i] counts values with bit length i
	sum     atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot returns cumulative bucket counts up to the highest non-empty
// bucket, as (upper bound, cumulative count) pairs.
func (h *Histogram) snapshot() (bounds []uint64, cum []uint64, sum, count uint64) {
	top := 0
	var counts [65]uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		if counts[i] != 0 {
			top = i
		}
	}
	var running uint64
	for i := 0; i <= top; i++ {
		running += counts[i]
		var bound uint64
		if i > 0 {
			bound = 1<<uint(i) - 1
		}
		bounds = append(bounds, bound)
		cum = append(cum, running)
	}
	return bounds, cum, h.sum.Load(), h.count.Load()
}

// Sample is one named series value in a registry snapshot. Name carries
// any labels in Prometheus notation (`x_total{stage="dedup"}`).
type Sample struct {
	Name  string
	Value float64
}

// Collector is a scrape-time callback: it reads existing component
// state (stats structs, queue depths) and emits samples. Collectors run
// only when a snapshot is taken, so instrumenting a component with a
// collector costs nothing on the hot path.
type Collector func(emit func(name string, value float64))

// Registry is a named set of instruments. All methods are safe for
// concurrent use, and every method is a no-op (or zero-result) on a nil
// *Registry, so pipelines run uninstrumented by passing nil.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterCollector adds a scrape-time collector.
func (r *Registry) RegisterCollector(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Snapshot returns every series in the registry — counters, gauges,
// expanded histogram series, and collector output — sorted by name so
// the result is deterministic and diffable.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	var samples []Sample
	for name, c := range counters {
		samples = append(samples, Sample{Name: name, Value: float64(c.Value())})
	}
	for name, g := range gauges {
		samples = append(samples, Sample{Name: name, Value: float64(g.Value())})
	}
	for name, h := range hists {
		bounds, cum, sum, count := h.snapshot()
		for i, b := range bounds {
			samples = append(samples, Sample{
				Name:  name + `_bucket{le="` + strconv.FormatUint(b, 10) + `"}`,
				Value: float64(cum[i]),
			})
		}
		samples = append(samples, Sample{Name: name + `_bucket{le="+Inf"}`, Value: float64(count)})
		samples = append(samples, Sample{Name: name + "_sum", Value: float64(sum)})
		samples = append(samples, Sample{Name: name + "_count", Value: float64(count)})
	}
	for _, c := range collectors {
		c(func(name string, value float64) {
			samples = append(samples, Sample{Name: name, Value: value})
		})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	return samples
}

// Value returns the current value of one series from a fresh snapshot
// (0 when absent). It is a convenience for tests and health checks.
func (r *Registry) Value(name string) float64 {
	for _, s := range r.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// formatValue renders a sample value like Prometheus does: integers
// without a decimal point, everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
