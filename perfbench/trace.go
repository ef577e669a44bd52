package main

// The benchmark's own tracing. Spans are recorded at the boundaries the
// benchmark can reach from outside the program: around each client
// call, around the HTTP round trip, around the server's route table,
// in the WAL's append hook, around the quorum acknowledgement wait and
// around each repricer epoch. Spans live in memory and are written out
// when the run ends. A layer's self time is its spans' duration minus
// the part of it their child spans cover.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names: the repository's modules as the spans see them.
const (
	layerWorkload  = "workload"          // HTTP client side: workload.HTTPClient and httpapi.Client
	layerMarket    = "market"            // in-process Broker calls
	layerTransport = "httpapi.transport" // HTTP round trip, net/http on both ends
	layerHandler   = "httpapi.handler"   // server route table: middleware, handler, broker
	layerStore     = "store"             // WAL append (write + fsync)
	layerReplica   = "replica"           // quorum acknowledgement wait
	layerRepricer  = "repricer"          // one repricing epoch
)

// spanHeader carries the caller's span from the client transport to
// the server's route table.
const spanHeader = "X-Perfbench-Span"

type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s span) ref() spanRef { return spanRef{trace: s.Trace, id: s.ID} }

// spanRef identifies a parent span.
type spanRef struct{ trace, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// tracer records spans for one repetition. A nil *tracer records
// nothing, so untraced repetitions carry no instrumentation.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	// handlers maps a goroutine to the handler span running on it. The
	// WAL append hook gets no request context, but it runs on the
	// goroutine serving the buy, so this is how an append finds its
	// parent.
	handlers sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span under parent (a zero parent starts a new trace).
func (t *tracer) open(parent spanRef, layer, op string) span {
	if t == nil {
		return span{}
	}
	id := t.ids.Add(1)
	tr := parent.trace
	if tr == 0 {
		tr = id
	}
	return span{Trace: tr, ID: id, Parent: parent.id, Layer: layer, Op: op, Start: t.now()}
}

// close ends s now, keeps it and returns it ended.
func (t *tracer) close(s span) span {
	if t == nil {
		return s
	}
	s.End = t.now()
	t.keep(s)
	return s
}

func (t *tracer) keep(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// appended records a WAL append of duration d that just finished, as a
// child of the handler span on the calling goroutine.
func (t *tracer) appended(d time.Duration) {
	end := t.now()
	var parent spanRef
	if r, ok := t.handlers.Load(goroutineID()); ok {
		parent = r.(spanRef)
	}
	s := t.open(parent, layerStore, "append")
	s.Start, s.End = end-int64(d), end
	t.keep(s)
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 42 [running]:"). Traced repetitions only.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// transport times each HTTP round trip and hands its span to the
// server in spanHeader.
type transport struct {
	base http.RoundTripper
	t    *tracer
}

func (tp *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := tp.t.open(spanFrom(req.Context()), layerTransport, opName(req.URL.Path))
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.Trace, 10)+"-"+strconv.FormatUint(s.ID, 10))
	resp, err := tp.base.RoundTrip(req)
	tp.t.close(s)
	return resp, err
}

// handler times the server's route table for requests that carry a
// span; replication traffic between nodes carries none and passes
// through untimed. Untraced, it is next itself.
func (t *tracer) handler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		s := t.open(parent, layerHandler, opName(r.URL.Path))
		gid := goroutineID()
		t.handlers.Store(gid, s.ref())
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s.ref())))
		t.handlers.Delete(gid)
		t.close(s)
	})
}

func parseSpanHeader(v string) (spanRef, bool) {
	tr, id, ok := strings.Cut(v, "-")
	if !ok {
		return spanRef{}, false
	}
	a, err1 := strconv.ParseUint(tr, 10, 64)
	b, err2 := strconv.ParseUint(id, 10, 64)
	return spanRef{trace: a, id: b}, err1 == nil && err2 == nil
}

// opName maps a route to the op it serves ("/buy" → "buy").
func opName(path string) string { return strings.TrimPrefix(path, "/") }

// spanStats pools, over traced repetitions, what the per-layer metrics
// read from spans, so the spans themselves need not be kept.
type spanStats struct {
	marketQuote, marketBuy   latencies
	handlerQuote, handlerBuy latencies
	transportSelf            latencies // round trip minus handler, per quote or buy
	self                     map[string]time.Duration
}

// add folds one repetition's spans in. A span's self time is its
// duration minus the union of its children's intervals clipped to it.
func (st *spanStats) add(spans []span) {
	if st.self == nil {
		st.self = make(map[string]time.Duration)
	}
	kids := children(spans)
	for _, s := range spans {
		self := s.dur() - covered(s, kids[s.ID])
		st.self[s.Layer] += self
		switch {
		case s.Layer == layerMarket && s.Op == "quote":
			st.marketQuote.add(s.dur())
		case s.Layer == layerMarket:
			st.marketBuy.add(s.dur())
		case s.Layer == layerHandler && s.Op == "quote":
			st.handlerQuote.add(s.dur())
		case s.Layer == layerHandler && s.Op == "buy":
			st.handlerBuy.add(s.dur())
		case s.Layer == layerTransport && (s.Op == "quote" || s.Op == "buy"):
			st.transportSelf.add(self)
		}
	}
}

// children indexes spans by parent id.
func children(spans []span) map[uint64][]span {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// covered is the length of the union of kids' intervals inside s.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
