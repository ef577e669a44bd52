package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/resilience"
	"github.com/datamarket/mbp/internal/rng"
)

func TestStatusForContextErrors(t *testing.T) {
	if got := statusFor(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Fatalf("DeadlineExceeded → %d, want 504", got)
	}
	if got := statusFor(context.Canceled); got != StatusClientClosedRequest {
		t.Fatalf("Canceled → %d, want 499", got)
	}
	if got := statusFor(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)); got != http.StatusGatewayTimeout {
		t.Fatalf("wrapped DeadlineExceeded → %d, want 504", got)
	}
}

// TestStatusForInvalidSpec: a spec the broker refuses as malformed is
// the client's mistake (400), not an economic no-sale (422).
func TestStatusForInvalidSpec(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", market.ErrInvalidSpec)
	if got := statusFor(err); got != http.StatusBadRequest {
		t.Fatalf("ErrInvalidSpec → %d, want 400", got)
	}
}

func TestBuyRejectsOversizedBody(t *testing.T) {
	ts := newTestServer(t)
	body := `{"model":"linear-regression","delta":1,"epsilon":"` + strings.Repeat("x", maxBuyBody) + `"}`
	resp, err := http.Post(ts.URL+"/buy", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestQuoteRejectsNonFiniteDelta(t *testing.T) {
	ts := newTestServer(t)
	// strconv.ParseFloat accepts all of these; the pricing code must
	// never see them.
	for _, bad := range []string{"NaN", "Inf", "-Inf", "1e999"} {
		getJSON(t, ts.URL+"/quote?model=linear-regression&delta="+bad, http.StatusBadRequest, nil)
	}
}

// postBuy posts a BuyRequest with an optional Idempotency-Key and
// returns the raw response.
func postBuy(t *testing.T, url string, req BuyRequest, key string) *http.Response {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if key != "" {
		hreq.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestBuyIdempotencyKeyOverHTTP(t *testing.T) {
	b := markettest.Broker(t, 5)
	ts := httptest.NewServer(New(b).Mux())
	t.Cleanup(ts.Close)
	var curve CurveResponse
	getJSON(t, ts.URL+"/curve?model=linear-regression", http.StatusOK, &curve)
	req := BuyRequest{Model: "linear-regression", Delta: f(curve.Curve[0].Delta)}

	var first, second BuyResponse
	resp := postBuy(t, ts.URL+"/buy", req, "retry-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first buy: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Idempotency-Replayed") != "" {
		t.Fatal("first buy claims to be a replay")
	}
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp = postBuy(t, ts.URL+"/buy", req, "retry-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried buy: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("retried buy not marked Idempotency-Replayed")
	}
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if second.Seq != first.Seq || second.Price != first.Price {
		t.Fatalf("replay differs: %+v vs %+v", second, first)
	}
	if len(second.Weights) != len(first.Weights) {
		t.Fatalf("replay weight lengths differ")
	}
	for i := range first.Weights {
		if second.Weights[i] != first.Weights[i] {
			t.Fatalf("replay weights differ at %d", i)
		}
	}
	if txs := b.Ledger(); len(txs) != 1 {
		t.Fatalf("ledger has %d rows after a retried buy, want 1", len(txs))
	}
}

func TestRequestTimeoutTurnsHangInto504(t *testing.T) {
	chaos := resilience.NewChaos(1, resilience.ChaosConfig{HangProb: 1})
	ts := httptest.NewServer(New(markettest.Broker(t, 5),
		WithChaos(chaos),
		WithRequestTimeout(50*time.Millisecond),
		WithRegistry(obs.NewRegistry()),
	).Mux())
	t.Cleanup(ts.Close)
	getJSON(t, ts.URL+"/menu", http.StatusGatewayTimeout, nil)
}

func TestAdmissionShedsOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	c := defaultConfig()
	c.reg = reg
	c.tracer = trace.NewTracer(4)
	c.limiter = resilience.NewLimiter(1, 5*time.Millisecond)

	release := make(chan struct{})
	entered := make(chan struct{})
	h := c.instrument("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/slow", nil))
	}()
	<-entered

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/slow", nil))
	close(release)
	wg.Wait()

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", rec.Header().Get("Retry-After"))
	}
	if got := reg.Counter(obs.Name("http.shed_total", "route", "/slow")).Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := c.limiter.Shed(); got != 1 {
		t.Fatalf("limiter shed = %d, want 1", got)
	}
}

// httpCancelingMechanism cancels the in-flight request's context from
// inside the noise draw, reproducing a client that hangs up after the
// sale was priced but before the noisy instance was delivered.
type httpCancelingMechanism struct {
	inner  noise.Mechanism
	cancel context.CancelFunc
}

func (c *httpCancelingMechanism) Name() string { return c.inner.Name() }
func (c *httpCancelingMechanism) Perturb(optimal *ml.Instance, delta float64, r *rng.RNG) *ml.Instance {
	c.cancel()
	return c.inner.Perturb(optimal, delta, r)
}
func (c *httpCancelingMechanism) TotalVariance(delta float64, d int) float64 {
	return c.inner.TotalVariance(delta, d)
}

// TestBuyCanceledMidPerturb is the cancellation acceptance path: a
// /buy whose context dies mid-noise-draw answers 499, charges nothing,
// and its span tree still lands complete in the trace ring.
func TestBuyCanceledMidPerturb(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	mech := &httpCancelingMechanism{inner: noise.Gaussian{}, cancel: cancel}
	b := markettest.BrokerWith(t, 5, mech)
	tracer := trace.NewTracer(8)
	mux := New(b, WithTracer(tracer), WithRegistry(obs.NewRegistry())).Mux()

	menu, err := b.PriceErrorCurve(markettest.Model, "")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(BuyRequest{Model: markettest.ModelName, Delta: f(menu[0].Delta)})
	req := httptest.NewRequest("POST", "/buy", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	if txs := b.Ledger(); len(txs) != 0 {
		t.Fatalf("ledger has %d rows after canceled buy, want 0", len(txs))
	}

	// The whole span tree ended: the tracer only publishes a trace once
	// every span in it closed, so finding the request's trace in the
	// ring proves no span leaked.
	traces := tracer.Traces(10)
	if len(traces) != 1 {
		t.Fatalf("trace ring has %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Root != "POST /buy" {
		t.Fatalf("root span %q, want POST /buy", tr.Root)
	}
	var sawCanceledNoise bool
	for _, sp := range tr.Spans {
		if sp.Name == "noise.perturb" && sp.Attrs["canceled"] == "true" {
			sawCanceledNoise = true
		}
	}
	if !sawCanceledNoise {
		t.Fatalf("no canceled noise.perturb span in %+v", tr.Spans)
	}
}

// newChaosExchange serves one markettest listing through an exchange
// with the given chaos and resilience options, returning the backing
// broker for ledger assertions.
func newChaosExchange(t *testing.T, seed uint64, opts ...Option) (*httptest.Server, *market.Broker) {
	t.Helper()
	b := markettest.Broker(t, seed)
	ex := market.NewExchange()
	if err := ex.List("casp", b); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewExchange(ex, opts...).Mux())
	t.Cleanup(ts.Close)
	return ts, b
}

// TestChaosConcurrentBuyersNoDoubleCharge is the idempotency acceptance
// test: under injected latency spikes and dropped responses, 64
// concurrent buyers retrying with idempotency keys must
// produce exactly one ledger row each — contiguous seqs, and a revenue
// split that equals the ledger sum.
func TestChaosConcurrentBuyersNoDoubleCharge(t *testing.T) {
	chaos := resilience.NewChaos(7, resilience.ChaosConfig{
		LatencyProb: 0.20,
		Latency:     time.Millisecond,
		DropProb:    0.30,
	})
	ts, b := newChaosExchange(t, 7,
		WithChaos(chaos),
		WithRequestTimeout(10*time.Second),
		WithRegistry(obs.NewRegistry()),
		WithoutTracing(),
	)
	menu, err := b.PriceErrorCurve(markettest.Model, "")
	if err != nil {
		t.Fatal(err)
	}
	req := BuyRequest{Model: markettest.ModelName, Delta: f(menu[len(menu)/2].Delta)}

	const buyers = 64
	seqs := make([]int, buyers)
	var replays atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < buyers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("buyer-%d", i)
			for attempt := 0; attempt < 200; attempt++ {
				resp := postBuy(t, ts.URL+"/l/casp/buy", req, key)
				if resp.StatusCode >= 500 {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					continue // transient: dropped response
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					t.Errorf("buyer %d: terminal status %d", i, resp.StatusCode)
					return
				}
				if resp.Header.Get("Idempotency-Replayed") == "true" {
					replays.Add(1)
				}
				var out BuyResponse
				err := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Errorf("buyer %d: %v", i, err)
					return
				}
				seqs[i] = out.Seq
				return
			}
			t.Errorf("buyer %d: no success in 200 attempts", i)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	txs := b.Ledger()
	if len(txs) != buyers {
		t.Fatalf("ledger has %d rows for %d buyers — duplicates or losses", len(txs), buyers)
	}
	for i, tx := range txs {
		if tx.Seq != i+1 {
			t.Fatalf("ledger row %d has seq %d, want %d (contiguous)", i, tx.Seq, i+1)
		}
	}
	seen := make(map[int]bool, buyers)
	var ledgerSum float64
	for _, tx := range txs {
		ledgerSum += tx.Price
	}
	for i, seq := range seqs {
		if seq < 1 || seq > buyers || seen[seq] {
			t.Fatalf("buyer %d got seq %d (duplicate or out of range)", i, seq)
		}
		seen[seq] = true
	}
	rev := b.Revenue()
	seller, broker := rev.SellerShare, rev.BrokerShare
	if diff := math.Abs((seller + broker) - ledgerSum); diff > 1e-9*math.Max(1, ledgerSum) {
		t.Fatalf("revenue split %v + %v != ledger sum %v", seller, broker, ledgerSum)
	}
	// With a 30% drop rate, some committed buys lost their response and
	// were re-served from the replay cache.
	if replays.Load() == 0 {
		t.Fatal("no buy was ever replayed — drops were not exercised")
	}
}

// TestChaosDropStillRecordsSale pins the failure mode idempotency
// exists for: a dropped response means the client saw 502 but the sale
// committed — without a key a retry would double-charge.
func TestChaosDropStillRecordsSale(t *testing.T) {
	chaos := resilience.NewChaos(2, resilience.ChaosConfig{DropProb: 1})
	b := markettest.Broker(t, 11)
	ts := httptest.NewServer(New(b, WithChaos(chaos), WithRegistry(obs.NewRegistry()), WithoutTracing()).Mux())
	t.Cleanup(ts.Close)
	menu, err := b.PriceErrorCurve(markettest.Model, "")
	if err != nil {
		t.Fatal(err)
	}
	resp := postBuy(t, ts.URL+"/buy", BuyRequest{Model: markettest.ModelName, Delta: f(menu[0].Delta)}, "once")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dropped response: status %d, want 502", resp.StatusCode)
	}
	if txs := b.Ledger(); len(txs) != 1 {
		t.Fatalf("ledger has %d rows, want 1: the sale committed before the drop", len(txs))
	}
	// The retry with the same key is answered from the replay cache —
	// same sale, still one ledger row.
	chaos.Update(resilience.ChaosConfig{})
	resp = postBuy(t, ts.URL+"/buy", BuyRequest{Model: markettest.ModelName, Delta: f(menu[0].Delta)}, "once")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("retry after drop: status %d, replayed %q", resp.StatusCode, resp.Header.Get("Idempotency-Replayed"))
	}
	if txs := b.Ledger(); len(txs) != 1 {
		t.Fatalf("ledger has %d rows after retry, want 1", len(txs))
	}
}
