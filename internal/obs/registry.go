package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Registry names metrics and snapshots them. Get-or-create calls take
// a short lock; the returned metric pointers are then updated
// lock-free, so callers should resolve names once (package init, route
// registration) and hold the pointer on hot paths.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	start    time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		start:    time.Now(),
	}
}

// Default is the process-wide registry. The instrumented packages
// (market, revopt, noise, httpapi) register against it, and
// cmd/mbpmarket serves it at /metrics.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = new(Counter)
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = new(Gauge)
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. An existing histogram wins; its bounds are kept.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Remove drops the named metrics, whatever their kind, so a series
// whose subject is gone (a replication target, say) stops appearing in
// snapshots. Holders of the removed pointers may keep updating them
// unseen; a later get-or-create under the same name starts afresh.
// Unknown names are ignored.
func (r *Registry) Remove(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		delete(r.counters, n)
		delete(r.gauges, n)
		delete(r.hists, n)
	}
}

// BucketCount is one histogram bucket in a snapshot. LE is the upper
// bound rendered as a string so the implicit "+Inf" bucket survives
// JSON encoding.
type BucketCount struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Max     float64       `json:"max"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot is a point-in-time JSON-encodable view of a registry.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptimeSeconds"`
	Counters      map[string]uint64            `json:"counters"`
	Gauges        map[string]float64           `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric. Counts are read atomically per
// metric; the snapshot is not a cross-metric transaction (a purchase
// landing mid-snapshot may appear in the purchase counter but not yet
// in revenue), which is fine for monitoring.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Counters:      make(map[string]uint64, len(r.counters)),
		Gauges:        make(map[string]float64, len(r.gauges)),
		Histograms:    make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:   h.Count(),
			Sum:     h.Sum(),
			P50:     h.Quantile(0.50),
			P90:     h.Quantile(0.90),
			P99:     h.Quantile(0.99),
			Max:     h.Max(),
			Buckets: make([]BucketCount, len(h.counts)),
		}
		if hs.Count > 0 {
			hs.Mean = hs.Sum / float64(hs.Count)
		}
		for i := range h.counts {
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			hs.Buckets[i] = BucketCount{LE: le, Count: h.counts[i].Load()}
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// Counters returns a point-in-time copy of the name → counter map.
// The metric pointers are live (updates after the call are visible
// through them); only the map itself is copied, so periodic samplers
// can iterate without holding the registry lock.
func (r *Registry) Counters() map[string]*Counter {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		out[n] = c
	}
	return out
}

// Gauges returns a point-in-time copy of the name → gauge map.
func (r *Registry) Gauges() map[string]*Gauge {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		out[n] = g
	}
	return out
}

// Histograms returns a point-in-time copy of the name → histogram map.
func (r *Registry) Histograms() map[string]*Histogram {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		out[n] = h
	}
	return out
}

// MetricNames returns every registered metric name, sorted.
func (r *Registry) MetricNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Handler serves the registry snapshot as JSON — the GET /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
}

// Uptime reports how long ago the registry was created — process
// uptime for the Default registry.
func (r *Registry) Uptime() time.Duration {
	return time.Since(r.start)
}

// HealthzHandler reports liveness plus uptime — the GET /healthz
// endpoint.
func (r *Registry) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":        "ok",
			"uptimeSeconds": time.Since(r.start).Seconds(),
		})
	})
}

// WirePprof attaches net/http/pprof's profiling endpoints under
// /debug/pprof/ on a custom mux (the blank import only registers them
// on http.DefaultServeMux). cmd/mbpmarket enables this with -pprof.
func WirePprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
