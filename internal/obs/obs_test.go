package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(10)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1000+8*10 {
		t.Fatalf("counter = %d", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	g.Set(100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Add(0.5)
				g.Add(-0.25)
			}
		}()
	}
	wg.Wait()
	want := 100 + 8*500*0.25
	if got := g.Value(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	// Buckets (≤1, ≤2, ≤4, +Inf): 0.5 and 1 land in the first (bounds
	// are inclusive upper edges), 1.5 in the second, 3 in the third,
	// 100 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-106) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	// 100 observations uniform over (0, 4].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-2) > 0.1 {
		t.Fatalf("p50 = %v, want ≈2", p50)
	}
	if p90 := h.Quantile(0.9); math.Abs(p90-3.6) > 0.1 {
		t.Fatalf("p90 = %v, want ≈3.6", p90)
	}
	// Everything in the +Inf bucket clamps to the last finite bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 1 {
		t.Fatalf("overflow quantile = %v", got)
	}
}

func TestHistogramMax(t *testing.T) {
	h := NewHistogram([]float64{1})
	if h.Max() != 0 {
		t.Fatalf("empty max = %v, want 0", h.Max())
	}
	// The max is exact even when the observation overflows the top
	// bucket (where quantiles clip to the last finite bound).
	for _, v := range []float64{0.5, 50, 3} {
		h.Observe(v)
	}
	if h.Max() != 50 {
		t.Fatalf("max = %v, want 50", h.Max())
	}
	if q := h.Quantile(0.99); q != 1 {
		t.Fatalf("clipped p99 = %v, want 1", q)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Max() != 7999 {
		t.Fatalf("concurrent max = %v, want 7999", h.Max())
	}
}

func TestHistogramBoundsCounts(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(9)
	b := h.Bounds()
	if len(b) != 2 || b[0] != 1 || b[1] != 2 {
		t.Fatalf("bounds = %v", b)
	}
	b[0] = 99 // caller's copy; the histogram must be unaffected
	if h.Bounds()[0] != 1 {
		t.Fatal("Bounds returned shared backing array")
	}
	c := h.Counts()
	want := []uint64{1, 0, 1}
	for i, w := range want {
		if c[i] != w {
			t.Fatalf("counts = %v, want %v", c, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w+1) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":    {},
		"unsorted": {2, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s bounds accepted", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestObserveDurationAndTime(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	h.ObserveDuration(time.Now().Add(-time.Millisecond))
	h.Time(func() {})
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() < 0.001 {
		t.Fatalf("sum = %v, want ≥ 1ms", h.Sum())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad ExpBuckets accepted")
		}
	}()
	ExpBuckets(0, 2, 3)
}

func TestName(t *testing.T) {
	if got := Name("x"); got != "x" {
		t.Fatalf("Name = %q", got)
	}
	got := Name("http.requests_total", "route", "/buy", "status", "2xx")
	if got != "http.requests_total{route=/buy,status=2xx}" {
		t.Fatalf("Name = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd kv accepted")
		}
	}()
	Name("x", "k")
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity lost")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("gauge identity lost")
	}
	h := r.Histogram("c", []float64{1, 2})
	if r.Histogram("c", []float64{9}) != h {
		t.Fatal("histogram identity lost")
	}
	names := r.MetricNames()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
	// Map-copy accessors hand back live metric pointers.
	if r.Counters()["a"] != r.Counter("a") {
		t.Fatal("Counters copy lost identity")
	}
	if r.Gauges()["b"] != r.Gauge("b") {
		t.Fatal("Gauges copy lost identity")
	}
	if r.Histograms()["c"] != h {
		t.Fatal("Histograms copy lost identity")
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("hits").Inc()
				r.Gauge("level").Set(1)
				r.Histogram("lat", LatencyBuckets()).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 1600 {
		t.Fatalf("hits = %d", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("purchases").Add(3)
	r.Gauge("revenue").Set(12.5)
	r.Histogram("lat", []float64{0.01, 0.1}).Observe(0.05)

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["purchases"] != 3 || snap.Gauges["revenue"] != 12.5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	hs := snap.Histograms["lat"]
	if hs.Count != 1 || hs.Mean != 0.05 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if len(hs.Buckets) != 3 || hs.Buckets[2].LE != "+Inf" {
		t.Fatalf("buckets = %+v", hs.Buckets)
	}
	if hs.Buckets[1].Count != 1 {
		t.Fatalf("0.05 not in (0.01, 0.1] bucket: %+v", hs.Buckets)
	}
}

func TestHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", r.Handler())
	mux.Handle("GET /healthz", r.HealthzHandler())
	WirePprof(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["hits"] != 1 || snap.UptimeSeconds < 0 {
		t.Fatalf("snapshot = %+v", snap)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}

func TestRegistryRemove(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(2)
	r.Histogram("h", []float64{1}).Observe(0.5)
	r.Counter("kept").Inc()
	r.Remove("c", "g", "h", "never-registered")
	if got := r.MetricNames(); len(got) != 1 || got[0] != "kept" {
		t.Fatalf("names after Remove = %v, want [kept]", got)
	}
	if v := r.Counter("c").Value(); v != 0 {
		t.Fatalf("re-created counter = %d, want a fresh 0", v)
	}
}
