package httpapi

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"time"

	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/resilience"
)

// StatusClientClosedRequest is the de-facto status (nginx's 499) for a
// request abandoned by the client before the server finished it. The
// ledger was not charged; there is nothing for the client to see.
const StatusClientClosedRequest = 499

// WithRequestTimeout bounds every request's context: handlers inherit
// a deadline d from arrival, so a purchase stuck in pricing or noise
// injection is canceled server-side instead of holding a connection
// forever. Zero or negative d means no server-imposed deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithAdmission caps concurrently served requests at maxInflight.
// Arrivals beyond the cap queue for at most queueWait before being
// shed with 503 + Retry-After — bounded latency for admitted requests
// beats unbounded queueing for all of them.
func WithAdmission(maxInflight int, queueWait time.Duration) Option {
	return func(c *config) { c.limiter = resilience.NewLimiter(maxInflight, queueWait) }
}

// WithChaos injects faults into request handling for resilience
// testing: added latency and hangs before the handler runs, dropped
// responses after it returns (the commit-then-lose-the-reply case that
// makes idempotency keys necessary). A nil c is a no-op.
func WithChaos(ch *resilience.Chaos) Option {
	return func(c *config) { c.chaos = ch }
}

// resilient stacks the request-resilience middleware around next,
// innermost first: chaos (closest to the handler, so injected latency
// counts against the deadline and drops discard real responses), then
// admission, then the deadline. instrument wraps the result in the
// span, so shed and injected requests still trace and meter.
func (c *config) resilient(route string, next http.HandlerFunc) http.HandlerFunc {
	h := c.withChaos(next)
	h = c.withAdmission(route, h)
	return c.withTimeout(h)
}

// withTimeout imposes the server-side default deadline.
func (c *config) withTimeout(next http.HandlerFunc) http.HandlerFunc {
	if c.timeout <= 0 {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
		defer cancel()
		next(w, r.WithContext(ctx))
	}
}

// withAdmission sheds load beyond the concurrency cap. Shed requests
// answer 503 with a Retry-After hint and count into
// http.shed_total{route}.
func (c *config) withAdmission(route string, next http.HandlerFunc) http.HandlerFunc {
	if c.limiter == nil {
		return next
	}
	var shed *obs.Counter
	if c.metrics {
		shed = c.reg.Counter(obs.Name("http.shed_total", "route", route))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if err := c.limiter.Acquire(ctx); err != nil {
			if shed != nil {
				shed.Inc()
			}
			if span := trace.FromContext(ctx); span != nil {
				span.SetAttr("shed", "true")
			}
			status := statusFor(err)
			if errors.Is(err, resilience.ErrSaturated) {
				w.Header().Set("Retry-After", "1")
				status = http.StatusServiceUnavailable
			}
			writeErr(ctx, c.log(), w, status, err)
			return
		}
		defer c.limiter.Release()
		next(w, r)
	}
}

// withChaos injects the configured faults. Responses are buffered so a
// drop can discard a fully written (and possibly committed) response —
// exactly the network failure that turns a retry into a double charge
// without idempotency keys.
func (c *config) withChaos(next http.HandlerFunc) http.HandlerFunc {
	if c.chaos == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if err := c.chaos.Delay(ctx); err != nil {
			// An injected hang outlived the request's deadline.
			writeErr(ctx, c.log(), w, statusFor(err), err)
			return
		}
		buf := &bufferedResponse{header: make(http.Header)}
		next(buf, r)
		if c.chaos.Drop() {
			if span := trace.FromContext(ctx); span != nil {
				span.SetAttr("chaos.dropped", "true")
			}
			writeErr(ctx, c.log(), w, http.StatusBadGateway, resilience.ErrInjected)
			return
		}
		buf.flushTo(w)
	}
}

// bufferedResponse holds a handler's full response in memory so the
// chaos layer can decide afterwards whether to deliver or drop it.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, v := range b.header {
		dst[k] = v
	}
	status := b.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	w.Write(b.body.Bytes())
}
