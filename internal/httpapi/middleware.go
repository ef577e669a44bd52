package httpapi

import (
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"github.com/datamarket/mbp/internal/market/audit"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/slo"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/obs/ts"
	"github.com/datamarket/mbp/internal/replica"
	"github.com/datamarket/mbp/internal/repricer"
	"github.com/datamarket/mbp/internal/resilience"
)

// config carries the observability and resilience settings shared by
// Server and ExchangeServer.
type config struct {
	reg     *obs.Registry
	metrics bool
	tracer  *trace.Tracer
	logger  *slog.Logger

	// Resilience knobs; see resilience.go for the options.
	timeout time.Duration       // server-side default request deadline
	limiter *resilience.Limiter // admission control, nil = unlimited
	chaos   *resilience.Chaos   // fault injection, nil = off

	// Durability wiring; see health.go.
	health []healthCheck // readiness probes folded into /healthz
	drains []drainHook   // flush steps for Drain

	// Market-health wiring; see debug.go.
	tsStore  *ts.Store          // /metrics/history, nil = off
	sloEval  *slo.Evaluator     // SLO state on /debug/health
	auditor  *audit.Auditor     // audit state on /debug/health
	repricer *repricer.Repricer // epoch ring on /debug/repricer

	// Replication wiring; see replication.go.
	replica *replica.Node // /replica/* + /admin/promote, nil = off
}

func defaultConfig() config {
	return config{reg: obs.Default, metrics: true, tracer: trace.Default}
}

// log returns the configured logger, defaulting to slog.Default() so
// cmd/mbpmarket's slog.SetDefault (a JSON handler wrapped in
// trace.NewLogHandler) is picked up without extra wiring.
func (c *config) log() *slog.Logger {
	if c.logger != nil {
		return c.logger
	}
	return slog.Default()
}

// Option customizes a Server or ExchangeServer.
type Option func(*config)

// WithRegistry directs metrics at reg instead of the process-wide
// obs.Default — tests use it to get isolated counters.
func WithRegistry(reg *obs.Registry) Option { return func(c *config) { c.reg = reg } }

// WithoutMetrics disables request instrumentation and the /metrics
// endpoint. /healthz and tracing stay.
func WithoutMetrics() Option { return func(c *config) { c.metrics = false } }

// WithTracer records request traces on t instead of the process-wide
// trace.Default — tests use it to get an isolated ring buffer.
func WithTracer(t *trace.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithoutTracing disables span creation and the /debug/traces
// endpoint.
func WithoutTracing() Option { return func(c *config) { c.tracer = nil } }

// WithLogger directs request logs (and handler diagnostics) at l
// instead of slog.Default().
func WithLogger(l *slog.Logger) Option { return func(c *config) { c.logger = l } }

// statusRecorder captures the status code a handler writes. Handlers
// that never call WriteHeader implicitly send 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// The wrapper variants below re-expose the optional interfaces the
// underlying ResponseWriter actually implements, so wrapping doesn't
// silently drop streaming (http.Flusher) or the sendfile fast path
// (io.ReaderFrom). wrapWriter picks the shape at request time.

type flushRecorder struct{ *statusRecorder }

func (r flushRecorder) Flush() { r.ResponseWriter.(http.Flusher).Flush() }

type readerFromRecorder struct{ *statusRecorder }

func (r readerFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	return r.ResponseWriter.(io.ReaderFrom).ReadFrom(src)
}

type flushReaderFromRecorder struct{ *statusRecorder }

func (r flushReaderFromRecorder) Flush() { r.ResponseWriter.(http.Flusher).Flush() }

func (r flushReaderFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	return r.ResponseWriter.(io.ReaderFrom).ReadFrom(src)
}

// wrapWriter returns a status-capturing ResponseWriter that still
// implements exactly the optional interfaces w does, plus the
// underlying recorder for reading the captured status.
func wrapWriter(w http.ResponseWriter) (http.ResponseWriter, *statusRecorder) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	_, fl := w.(http.Flusher)
	_, rf := w.(io.ReaderFrom)
	switch {
	case fl && rf:
		return flushReaderFromRecorder{rec}, rec
	case fl:
		return flushRecorder{rec}, rec
	case rf:
		return readerFromRecorder{rec}, rec
	}
	return rec, rec
}

// instrument wraps a handler with the per-request observability stack:
// a server span continuing any inbound traceparent, per-route request
// metrics (resolved once here, at route registration, so each request
// costs only atomic updates), and one structured access-log line
// correlated to the span by trace_id. The resilience middleware
// (deadline, admission control, chaos; see resilience.go) runs inside
// the span, so shed and fault-injected requests still trace and meter.
func (c *config) instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	next = c.resilient(route, next)
	var classes [6]*obs.Counter
	var latency *obs.Histogram
	if c.metrics {
		for i := 1; i < len(classes); i++ {
			classes[i] = c.reg.Counter(obs.Name("http.requests_total",
				"route", route, "status", strconv.Itoa(i)+"xx"))
		}
		latency = c.reg.Histogram(obs.Name("http.request_seconds", "route", route), obs.LatencyBuckets())
	}
	tracer := c.tracer
	logCfg := c // capture for the late slog.Default() resolution
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		if sc, ok := trace.Extract(r.Header); ok {
			ctx = trace.ContextWithRemote(ctx, sc)
		}
		ctx, span := tracer.Start(ctx, r.Method+" "+route, "route", route, "method", r.Method)
		rw, rec := wrapWriter(w)
		next(rw, r.WithContext(ctx))
		elapsed := time.Since(start)
		span.SetAttr("status", strconv.Itoa(rec.status))
		span.End()
		if latency != nil {
			latency.Observe(elapsed.Seconds())
			if cl := rec.status / 100; cl >= 1 && cl < len(classes) {
				classes[cl].Inc()
			}
		}
		logCfg.log().LogAttrs(ctx, slog.LevelInfo, "http request",
			slog.String("route", route),
			slog.String("method", r.Method),
			slog.Int("status", rec.status),
			slog.Duration("duration", elapsed))
	}
}

// mount adds the observability endpoints to a route table.
func (c *config) mount(mux *http.ServeMux) {
	if c.metrics {
		mux.Handle("GET /metrics", c.reg.Handler())
	}
	if c.tracer != nil {
		mux.Handle("GET /debug/traces", c.tracer.Handler())
	}
	if c.tsStore != nil {
		mux.Handle("GET /metrics/history", c.tsStore.Handler())
	}
	if c.sloEval != nil || c.auditor != nil || c.replica != nil {
		mux.Handle("GET /debug/health", c.debugHealthHandler())
	}
	if c.repricer != nil {
		mux.Handle("GET /debug/repricer", c.debugRepricerHandler())
	}
	if c.replica != nil {
		c.mountReplication(mux)
	}
	mux.Handle("GET /healthz", c.healthzHandler())
}
