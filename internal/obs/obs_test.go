package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// render returns the registry's Prometheus text exposition.
func render(r *Registry) string {
	var b strings.Builder
	_ = r.WriteProm(&b)
	return b.String()
}

// TestRegistryGolden locks down the Prometheus text rendering: sorted
// series, integer formatting, histogram bucket/sum/count expansion, and
// collector output all in one deterministic body.
func TestRegistryGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("dlc_bus_published_total").Add(42)
	r.Counter("dlc_bus_dropped_total") // registered but never incremented
	r.Gauge("dlc_fwd_spool_depth").Set(7)
	h := r.Histogram("dlc_encode_cost_ns")
	h.Observe(0)
	h.Observe(1)
	h.Observe(5)
	h.Observe(5)
	r.RegisterCollector(func(emit func(string, float64)) {
		emit(`dlc_dedup_duplicates_total{stage="dedup"}`, 3)
	})

	const want = `dlc_bus_dropped_total 0
dlc_bus_published_total 42
dlc_dedup_duplicates_total{stage="dedup"} 3
dlc_encode_cost_ns_bucket{le="+Inf"} 4
dlc_encode_cost_ns_bucket{le="0"} 1
dlc_encode_cost_ns_bucket{le="1"} 2
dlc_encode_cost_ns_bucket{le="3"} 2
dlc_encode_cost_ns_bucket{le="7"} 4
dlc_encode_cost_ns_count 4
dlc_encode_cost_ns_sum 11
dlc_fwd_spool_depth 7
`
	if got := render(r); got != want {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := RenderSamples(r.Snapshot()); got != want {
		t.Fatalf("RenderSamples disagrees with Render:\n%s", got)
	}
}

// TestRegistryConcurrent hammers one registry from concurrent writers
// while a scraper renders /metrics; run under -race this is the data
// race guard for the whole instrument set.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(emit func(string, float64)) {
		emit("dlc_collector_probe", 1)
	})
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	const writers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("dlc_test_ops_total")
			g := r.Gauge("dlc_test_depth")
			h := r.Histogram("dlc_test_latency_ns")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(uint64(i * w))
				if i%100 == 0 {
					// Churn the name space concurrently with scrapes too.
					r.Counter("dlc_test_dynamic_total").Inc()
				}
			}
		}(w)
	}
	var scrapeWG sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(srv.URL)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	scrapeWG.Wait()

	if got := r.Counter("dlc_test_ops_total").Value(); got != writers*iters {
		t.Fatalf("ops counter = %d, want %d", got, writers*iters)
	}
	if got := r.Histogram("dlc_test_latency_ns").Count(); got != writers*iters {
		t.Fatalf("histogram count = %d, want %d", got, writers*iters)
	}
}

// TestNilSafety: every instrument and the registry itself must be a
// no-op when nil — that is the non-perturbation contract for
// uninstrumented pipelines.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter retained a value")
	}
	g := r.Gauge("y")
	g.Set(9)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatal("nil gauge retained a value")
	}
	h := r.Histogram("z")
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram retained observations")
	}
	r.RegisterCollector(func(emit func(string, float64)) { emit("a", 1) })
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
	if got := render(r); got != "" {
		t.Fatalf("nil registry render = %q, want empty", got)
	}
	var hl *Health
	hl.Register("p", func() error { return nil })
	if lines, ok := hl.Check(); !ok || len(lines) != 1 || lines[0] != "ok" {
		t.Fatalf("nil health check = %v %v", lines, ok)
	}
}

func TestHealthHandler(t *testing.T) {
	h := NewHealth()
	h.Register("store", func() error { return nil })
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "store: ok") {
		t.Fatalf("healthy probe: status %d body %q", resp.StatusCode, body)
	}

	h.Register("uplink", func() error { return io.ErrClosedPipe })
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing probe: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "uplink: "+io.ErrClosedPipe.Error()) {
		t.Fatalf("failing probe body %q", body)
	}
}

func TestWallClockMonotonic(t *testing.T) {
	c := WallClock()
	a := c()
	b := c()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
	if a > time.Minute {
		t.Fatalf("wall clock epoch not anchored at creation: %v", a)
	}
}

func TestHistogramBounds(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	bounds, cum, sum, count := h.snapshot()
	if count != 5 || sum != 10 {
		t.Fatalf("count=%d sum=%d", count, sum)
	}
	// Buckets: le=0 -> 1, le=1 -> 2, le=3 -> 4, le=7 -> 5.
	wantBounds := []uint64{0, 1, 3, 7}
	wantCum := []uint64{1, 2, 4, 5}
	if len(bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
	}
	for i := range bounds {
		if bounds[i] != wantBounds[i] || cum[i] != wantCum[i] {
			t.Fatalf("bucket %d: (%d,%d), want (%d,%d)", i, bounds[i], cum[i], wantBounds[i], wantCum[i])
		}
	}
}
