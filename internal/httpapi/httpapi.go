// Package httpapi exposes a model-based-pricing broker over HTTP/JSON —
// the "real-time interaction" the paper claims for the noise-injection
// design: training happened once at startup, so each purchase costs one
// noise sample.
//
// Endpoints:
//
//	GET  /menu                         — offered models
//	GET  /epsilons?model=<m>           — buyer-selectable error functions
//	GET  /curve?model=<m>[&epsilon=<e>]— the price–error curve (Fig. 1C step 2)
//	GET  /quote?model=<m>&delta=<δ>    — price preview without a sale
//	POST /buy                          — {"model": ..., one of "delta" |
//	                                     "errorBudget" | "priceBudget",
//	                                     optional "epsilon"}
//	GET  /ledger                       — transactions and revenue split
//	GET  /sellers                      — attribution stakes and per-seller revenue
//
// Each route is a thin adapter over one market.Broker method: /curve
// is PriceErrorCurve, /quote is Quote, /buy builds a market.Spec for
// Buy, and /ledger and /sellers read Revenue. ExchangeServer serves
// the same routes per listing under /l/{listing}/..., resolving the
// listing with market.Exchange.Broker; an unknown listing is 404.
//
// Every route runs inside a server span (continuing any inbound W3C
// traceparent), so a purchase shows up at /debug/traces as a span tree
// covering pricing, noise injection and the ledger append.
//
// /buy is idempotent when the client sends an Idempotency-Key header
// (it becomes Spec.Key): a retry with the same key returns the original
// sale (same seq, same weights, one ledger row) with
// Idempotency-Replayed: true, so clients may retry 5xx responses
// without risking a double charge. Request bodies are bounded,
// non-finite numbers are rejected at the boundary, and the resilience
// options in resilience.go add server-side deadlines, admission control
// and fault injection; see docs/resilience.md.
//
// cmd/mbpmarket wraps this package in a binary; tests drive it through
// net/http/httptest.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/pricing"
)

// Server adapts a broker to HTTP.
type Server struct {
	broker *market.Broker
	cfg    config
}

// New wraps the broker. It panics on a nil broker — a wiring error.
// By default every route is instrumented on obs.Default, traced on
// trace.Default, and the mux serves /metrics, /debug/traces and
// /healthz; see WithRegistry, WithTracer, WithLogger and the
// Without* options.
func New(b *market.Broker, opts ...Option) *Server {
	if b == nil {
		panic("httpapi: nil broker")
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Server{broker: b, cfg: cfg}
}

// Mux returns the route table, each route wrapped in the tracing and
// request-metrics middleware, plus the observability endpoints.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /menu", s.cfg.instrument("/menu", s.menu))
	mux.HandleFunc("GET /epsilons", s.cfg.instrument("/epsilons", s.epsilons))
	mux.HandleFunc("GET /curve", s.cfg.instrument("/curve", s.curve))
	mux.HandleFunc("GET /quote", s.cfg.instrument("/quote", s.quote))
	mux.HandleFunc("POST /buy", s.cfg.instrument("/buy", s.buy))
	mux.HandleFunc("GET /ledger", s.cfg.instrument("/ledger", s.ledger))
	mux.HandleFunc("GET /sellers", s.cfg.instrument("/sellers", s.sellers))
	s.cfg.mount(mux)
	return mux
}

// writeJSON encodes v with the given status; encode failures are
// logged on lg with the request context, so the error line carries the
// request's trace_id.
func writeJSON(ctx context.Context, lg *slog.Logger, w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		lg.ErrorContext(ctx, "encoding response", slog.String("err", err.Error()))
	}
}

func writeErr(ctx context.Context, lg *slog.Logger, w http.ResponseWriter, status int, err error) {
	writeJSON(ctx, lg, w, status, map[string]string{"error": err.Error()})
}

func (s *Server) writeJSON(r *http.Request, w http.ResponseWriter, status int, v any) {
	writeJSON(r.Context(), s.cfg.log(), w, status, v)
}

func (s *Server) writeErr(r *http.Request, w http.ResponseWriter, status int, err error) {
	writeErr(r.Context(), s.cfg.log(), w, status, err)
}

// MenuResponse lists the offered models.
type MenuResponse struct {
	Models []string `json:"models"`
}

func (s *Server) menu(w http.ResponseWriter, r *http.Request) {
	models := s.broker.Models()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.String()
	}
	s.writeJSON(r, w, http.StatusOK, MenuResponse{Models: names})
}

// ModelByName resolves a model's string form.
func ModelByName(name string) (ml.Model, error) {
	for _, m := range []ml.Model{ml.LinearRegression, ml.LogisticRegression, ml.LinearSVM} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("httpapi: unknown model %q", name)
}

// CurveResponse is the published price–error curve.
type CurveResponse struct {
	Model string               `json:"model"`
	Curve []pricing.PriceError `json:"curve"`
}

func (s *Server) curve(w http.ResponseWriter, r *http.Request) {
	m, err := ModelByName(r.URL.Query().Get("model"))
	if err != nil {
		s.writeErr(r, w, http.StatusBadRequest, err)
		return
	}
	// An optional epsilon query parameter selects the error scale.
	menu, err := s.broker.PriceErrorCurve(m, r.URL.Query().Get("epsilon"))
	if err != nil {
		s.writeErr(r, w, statusFor(err), err)
		return
	}
	s.writeJSON(r, w, http.StatusOK, CurveResponse{Model: m.String(), Curve: menu})
}

// EpsilonsResponse lists the error functions offered for a model,
// default first.
type EpsilonsResponse struct {
	Model    string   `json:"model"`
	Epsilons []string `json:"epsilons"`
}

func (s *Server) epsilons(w http.ResponseWriter, r *http.Request) {
	m, err := ModelByName(r.URL.Query().Get("model"))
	if err != nil {
		s.writeErr(r, w, http.StatusBadRequest, err)
		return
	}
	names, err := s.broker.Epsilons(m)
	if err != nil {
		s.writeErr(r, w, statusFor(err), err)
		return
	}
	s.writeJSON(r, w, http.StatusOK, EpsilonsResponse{Model: m.String(), Epsilons: names})
}

// QuoteResponse previews one version without buying it.
type QuoteResponse struct {
	Model         string  `json:"model"`
	Delta         float64 `json:"delta"`
	Price         float64 `json:"price"`
	ExpectedError float64 `json:"expectedError"`
}

func (s *Server) quote(w http.ResponseWriter, r *http.Request) {
	m, err := ModelByName(r.URL.Query().Get("model"))
	if err != nil {
		s.writeErr(r, w, http.StatusBadRequest, err)
		return
	}
	delta, err := strconv.ParseFloat(r.URL.Query().Get("delta"), 64)
	if err != nil {
		s.writeErr(r, w, http.StatusBadRequest, fmt.Errorf("bad delta: %w", err))
		return
	}
	// ParseFloat happily accepts "NaN" and "Inf"; reject them here so
	// non-finite values never reach the pricing code.
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		s.writeErr(r, w, http.StatusBadRequest, errors.New("delta must be finite"))
		return
	}
	price, expErr, err := s.broker.Quote(r.Context(), m, delta)
	if err != nil {
		s.writeErr(r, w, statusFor(err), err)
		return
	}
	s.writeJSON(r, w, http.StatusOK, QuoteResponse{Model: m.String(), Delta: delta, Price: price, ExpectedError: expErr})
}

// BuyRequest selects exactly one of the three purchase options of
// Section 3.2.
type BuyRequest struct {
	Model       string   `json:"model"`
	Delta       *float64 `json:"delta,omitempty"`
	ErrorBudget *float64 `json:"errorBudget,omitempty"`
	PriceBudget *float64 `json:"priceBudget,omitempty"`
	// Epsilon optionally names the error scale an errorBudget refers
	// to; empty means the offer's default.
	Epsilon string `json:"epsilon,omitempty"`
}

// BuyResponse is the delivered model instance. Seq is the sale's
// ledger sequence number: a replayed idempotent retry returns the
// original sale's Seq, so clients can tell "charged again" from
// "answered from the replay cache".
type BuyResponse struct {
	Model         string    `json:"model"`
	Delta         float64   `json:"delta"`
	ExpectedError float64   `json:"expectedError"`
	Price         float64   `json:"price"`
	Weights       []float64 `json:"weights"`
	Seq           int       `json:"seq"`
	// Shares is the sale's attribution table — each staked seller's
	// weight and exact slice of the price — and BrokerShare the broker's
	// commission cut; together they reconstruct Price exactly.
	Shares      []market.SellerShare `json:"shares,omitempty"`
	BrokerShare float64              `json:"brokerShare,omitempty"`
}

// maxBuyBody bounds a /buy request body. The largest legitimate
// request is a few short JSON fields; 1 MiB is generous headroom
// before a hostile or broken client can make the decoder buffer
// arbitrary amounts.
const maxBuyBody = 1 << 20

func (s *Server) buy(w http.ResponseWriter, r *http.Request) {
	var req BuyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBuyBody)).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeErr(r, w, http.StatusRequestEntityTooLarge, err)
			return
		}
		s.writeErr(r, w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	m, err := ModelByName(req.Model)
	if err != nil {
		s.writeErr(r, w, http.StatusBadRequest, err)
		return
	}
	options := []struct {
		name string
		kind market.Kind
		v    *float64
	}{
		{"delta", market.AtPoint, req.Delta},
		{"errorBudget", market.ErrorBudget, req.ErrorBudget},
		{"priceBudget", market.PriceBudget, req.PriceBudget},
	}
	spec := market.Spec{Epsilon: req.Epsilon, Key: r.Header.Get("Idempotency-Key")}
	set := 0
	for _, o := range options {
		if o.v == nil {
			continue
		}
		set++
		// encoding/json rejects NaN/Inf literals, but guard the API
		// boundary anyway so no caller path hands the pricing code a
		// non-finite number.
		if math.IsNaN(*o.v) || math.IsInf(*o.v, 0) {
			s.writeErr(r, w, http.StatusBadRequest, fmt.Errorf("%s must be finite", o.name))
			return
		}
		spec.Kind, spec.Value = o.kind, *o.v
	}
	if set != 1 {
		s.writeErr(r, w, http.StatusBadRequest, errors.New("set exactly one of delta, errorBudget, priceBudget"))
		return
	}
	p, replayed, err := s.broker.Buy(r.Context(), m, spec)
	if err != nil {
		// A follower refuses writes; tell the client where the leader is
		// so it can redirect instead of guessing.
		if errors.Is(err, market.ErrFollower) {
			if hint := s.broker.LeaderHint(); hint != "" {
				w.Header().Set("X-Leader", hint)
			}
		}
		s.writeErr(r, w, statusFor(err), err)
		return
	}
	if replayed {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	s.writeJSON(r, w, http.StatusOK, BuyResponse{
		Model:         p.Model.String(),
		Delta:         p.Delta,
		ExpectedError: p.ExpectedError,
		Price:         p.Price,
		Weights:       p.Instance.W,
		Seq:           p.Seq,
		Shares:        p.Shares,
		BrokerShare:   p.BrokerShare,
	})
}

// LedgerResponse reports completed transactions and the revenue split.
// Sellers breaks the aggregate sellerShare down per seller id;
// sellerShare is their sum (see market.RevenueTotals).
type LedgerResponse struct {
	Transactions []market.Transaction `json:"transactions"`
	SellerShare  float64              `json:"sellerShare"`
	BrokerShare  float64              `json:"brokerShare"`
	Sellers      map[string]float64   `json:"sellers,omitempty"`
}

func (s *Server) ledger(w http.ResponseWriter, r *http.Request) {
	rev := s.broker.Revenue()
	s.writeJSON(r, w, http.StatusOK, LedgerResponse{
		Transactions: s.broker.Ledger(),
		SellerShare:  rev.SellerShare,
		BrokerShare:  rev.BrokerShare,
		Sellers:      rev.Sellers,
	})
}

// SellersResponse reports the live attribution stake table and each
// seller's cumulative attributed revenue. The recovery smoke tests
// compare this document byte-for-byte across a crash (Go's JSON encoder
// sorts map keys, so equal totals encode identically).
type SellersResponse struct {
	// Stakes is the stake table future sales will split by.
	Stakes []market.SellerStake `json:"stakes"`
	// Revenue is cumulative attributed revenue per seller.
	Revenue map[string]float64 `json:"revenue"`
	// BrokerShare is the broker's cumulative commission.
	BrokerShare float64 `json:"brokerShare"`
	// ExactViolations counts ledger rows whose attribution table fails
	// to reconstruct the price exactly; ResumMismatches counts stripe
	// totals disagreeing with an independent re-sum. Both must be zero
	// (see market.AttributionReport).
	ExactViolations int `json:"exactViolations"`
	ResumMismatches int `json:"resumMismatches"`
}

func (s *Server) sellers(w http.ResponseWriter, r *http.Request) {
	rev := s.broker.Revenue()
	rep := s.broker.AttributionTotals()
	s.writeJSON(r, w, http.StatusOK, SellersResponse{
		Stakes:          s.broker.SellerStakes(),
		Revenue:         rev.Sellers,
		BrokerShare:     rev.BrokerShare,
		ExactViolations: rep.ExactViolations,
		ResumMismatches: rep.ResumMismatches,
	})
}

// statusFor maps broker errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, market.ErrSaleNotRecorded):
		// The journal refused the write: the sale was rolled back and
		// the buyer not charged. 503 tells clients (and the idempotency
		// machinery) this is the broker's fault and safe to retry.
		return http.StatusServiceUnavailable
	case errors.Is(err, market.ErrFollower):
		// Writes only land on the leader; the X-Leader header points
		// there. 503 keeps idempotent retries safe.
		return http.StatusServiceUnavailable
	case errors.Is(err, market.ErrReplicationLag):
		// Journaled but not quorum-acknowledged in time: retrying the
		// same Idempotency-Key replays the sale once the quorum heals.
		return http.StatusServiceUnavailable
	case errors.Is(err, market.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, market.ErrUnknownEpsilon),
		errors.Is(err, market.ErrInvalidSpec):
		return http.StatusBadRequest
	case errors.Is(err, market.ErrBudgetTooSmall),
		errors.Is(err, market.ErrErrorBudgetTooTight):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusUnprocessableEntity
	}
}
