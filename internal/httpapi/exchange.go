package httpapi

import (
	"net/http"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/obs/trace"
)

// ExchangeServer serves a multi-seller marketplace: every listing's
// broker is reachable under /l/{listing}/..., with the same endpoint
// semantics as the single-broker Server.
type ExchangeServer struct {
	ex  *market.Exchange
	cfg config
}

// NewExchange wraps an exchange. It panics on nil — a wiring error.
func NewExchange(ex *market.Exchange, opts ...Option) *ExchangeServer {
	if ex == nil {
		panic("httpapi: nil exchange")
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return &ExchangeServer{ex: ex, cfg: cfg}
}

// ListingsResponse names the marketplace's listings.
type ListingsResponse struct {
	Listings []string `json:"listings"`
}

// Mux returns the route table. Per-listing routes are labeled by their
// pattern (one metric per route, not per listing) — per-listing traffic
// shows up in the exchange's own lookup counters instead.
func (s *ExchangeServer) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /listings", s.cfg.instrument("/listings", s.listings))
	mux.HandleFunc("GET /l/{listing}/menu", s.cfg.instrument("/l/{listing}/menu", s.perBroker((*Server).menu)))
	mux.HandleFunc("GET /l/{listing}/curve", s.cfg.instrument("/l/{listing}/curve", s.perBroker((*Server).curve)))
	mux.HandleFunc("POST /l/{listing}/buy", s.cfg.instrument("/l/{listing}/buy", s.perBroker((*Server).buy)))
	mux.HandleFunc("GET /l/{listing}/ledger", s.cfg.instrument("/l/{listing}/ledger", s.perBroker((*Server).ledger)))
	s.cfg.mount(mux)
	return mux
}

func (s *ExchangeServer) listings(w http.ResponseWriter, r *http.Request) {
	writeJSON(r.Context(), s.cfg.log(), w, http.StatusOK, ListingsResponse{Listings: s.ex.Listings()})
}

// perBroker resolves the listing path parameter and delegates to the
// single-broker handler; an unknown listing answers 404. The delegated
// request carries the exchange span's traceparent header, so the
// exchange→broker hop stitches into one trace even if the broker
// handler later moves out of process.
func (s *ExchangeServer) perBroker(h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		b, err := s.ex.Broker(ctx, r.PathValue("listing"))
		if err != nil {
			writeErr(ctx, s.cfg.log(), w, http.StatusNotFound, err)
			return
		}
		trace.Inject(ctx, r.Header)
		h(&Server{broker: b, cfg: s.cfg}, w, r)
	}
}
