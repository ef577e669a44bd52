package workload

// Client adapters. The runner drives a Client; two implementations
// exist — an in-process adapter over *market.Broker (zero network, for
// CI smoke and perf rigs) and an HTTP adapter over httpapi.Client (for
// a live endpoint, where admission control can shed requests). Both
// normalize their failure modes into Outcome so the runner counts
// shed/no-sale/error uniformly.

import (
	"context"
	"errors"
	"net/http"

	"github.com/datamarket/mbp/internal/httpapi"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/pricing"
)

// BuyResult is the economically relevant slice of a purchase.
type BuyResult struct {
	// Seq is the sale's ledger sequence number.
	Seq int
	// Price is what the buyer paid.
	Price float64
	// Replayed reports an idempotent replay: no new charge, no new
	// ledger row.
	Replayed bool
}

// LedgerSummary is the post-run view the invariant checks consume.
type LedgerSummary struct {
	// Seqs are the recorded sale sequence numbers, in ledger order.
	Seqs []int
	// Gross is the ledger's total revenue (Σ price).
	Gross float64
	// SellerShare and BrokerShare are the published split.
	SellerShare, BrokerShare float64
	// Sellers is cumulative attributed revenue per seller id.
	Sellers map[string]float64
	// AttributionChecked reports whether the exactness figures below
	// were measured (both client implementations measure them; custom
	// clients may not).
	AttributionChecked bool
	// ExactViolations counts rows whose attribution table fails to
	// reconstruct the price exactly; ResumMismatches counts stripe
	// totals disagreeing with an independent re-sum. A healthy broker
	// reports zero for both.
	ExactViolations, ResumMismatches int
}

// Client is the broker surface the harness drives.
type Client interface {
	// Menu returns the published price–error curve, cheapest row first.
	Menu(ctx context.Context) ([]pricing.PriceError, error)
	// Quote previews the version at δ.
	Quote(ctx context.Context, delta float64) (price, expectedError float64, err error)
	// BuyAtPoint purchases at δ; a non-empty key makes it idempotent.
	BuyAtPoint(ctx context.Context, delta float64, key string) (BuyResult, error)
	// BuyWithPriceBudget purchases the most accurate version within
	// budget; a non-empty key makes it idempotent.
	BuyWithPriceBudget(ctx context.Context, budget float64, key string) (BuyResult, error)
	// Ledger summarizes the transaction log for invariant checking.
	Ledger(ctx context.Context) (LedgerSummary, error)
}

// Outcome classifies an operation's result.
type Outcome int

const (
	// OK is a successful operation.
	OK Outcome = iota
	// NoSale is an economically declined purchase (budget too small /
	// error budget too tight) — expected behavior, not a failure.
	NoSale
	// Shed is admission-control load shedding (HTTP 503 + Retry-After).
	Shed
	// Failed is everything else.
	Failed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case NoSale:
		return "no-sale"
	case Shed:
		return "shed"
	default:
		return "error"
	}
}

// Classify maps a client error to an outcome (nil → OK).
func Classify(err error) Outcome {
	if err == nil {
		return OK
	}
	if errors.Is(err, market.ErrBudgetTooSmall) || errors.Is(err, market.ErrErrorBudgetTooTight) {
		return NoSale
	}
	var apiErr *httpapi.APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.Shed():
			return Shed
		case apiErr.NoSale():
			return NoSale
		}
	}
	return Failed
}

// BrokerClient drives a broker in-process.
type BrokerClient struct {
	// B is the broker under load.
	B *market.Broker
	// Model is the hypothesis space to trade (the menu entry).
	Model ml.Model
}

// Menu implements Client.
func (c *BrokerClient) Menu(ctx context.Context) ([]pricing.PriceError, error) {
	return c.B.PriceErrorCurve(c.Model, "")
}

// Quote implements Client.
func (c *BrokerClient) Quote(ctx context.Context, delta float64) (float64, float64, error) {
	return c.B.Quote(ctx, c.Model, delta)
}

// BuyAtPoint implements Client.
func (c *BrokerClient) BuyAtPoint(ctx context.Context, delta float64, key string) (BuyResult, error) {
	return c.buy(ctx, market.Spec{Kind: market.AtPoint, Value: delta, Key: key})
}

// BuyWithPriceBudget implements Client.
func (c *BrokerClient) BuyWithPriceBudget(ctx context.Context, budget float64, key string) (BuyResult, error) {
	return c.buy(ctx, market.Spec{Kind: market.PriceBudget, Value: budget, Key: key})
}

func (c *BrokerClient) buy(ctx context.Context, s market.Spec) (BuyResult, error) {
	p, replayed, err := c.B.Buy(ctx, c.Model, s)
	if err != nil {
		return BuyResult{}, err
	}
	return BuyResult{Seq: p.Seq, Price: p.Price, Replayed: replayed}, nil
}

// Ledger implements Client.
func (c *BrokerClient) Ledger(ctx context.Context) (LedgerSummary, error) {
	txs := c.B.Ledger()
	sum := LedgerSummary{Seqs: make([]int, len(txs))}
	for i, tx := range txs {
		sum.Seqs[i] = tx.Seq
		sum.Gross += tx.Price
	}
	rev := c.B.Revenue()
	sum.SellerShare, sum.BrokerShare, sum.Sellers = rev.SellerShare, rev.BrokerShare, rev.Sellers
	rep := c.B.AttributionTotals()
	sum.AttributionChecked = true
	sum.ExactViolations = rep.ExactViolations
	sum.ResumMismatches = rep.ResumMismatches
	return sum, nil
}

// HTTPClient drives a broker over its HTTP API.
type HTTPClient struct {
	c     *httpapi.Client
	model string
}

// NewHTTPClient returns a client for the broker API at base, trading
// the named model. A nil hc uses http.DefaultClient.
func NewHTTPClient(base, model string, hc *http.Client) *HTTPClient {
	return &HTTPClient{c: httpapi.NewClient(base, hc), model: model}
}

// Menu implements Client.
func (c *HTTPClient) Menu(ctx context.Context) ([]pricing.PriceError, error) {
	resp, err := c.c.Curve(ctx, c.model, "")
	if err != nil {
		return nil, err
	}
	return resp.Curve, nil
}

// Quote implements Client.
func (c *HTTPClient) Quote(ctx context.Context, delta float64) (float64, float64, error) {
	resp, err := c.c.Quote(ctx, c.model, delta)
	if err != nil {
		return 0, 0, err
	}
	return resp.Price, resp.ExpectedError, nil
}

// BuyAtPoint implements Client.
func (c *HTTPClient) BuyAtPoint(ctx context.Context, delta float64, key string) (BuyResult, error) {
	resp, replayed, err := c.c.Buy(ctx, httpapi.BuyRequest{Model: c.model, Delta: &delta}, key)
	if err != nil {
		return BuyResult{}, err
	}
	return BuyResult{Seq: resp.Seq, Price: resp.Price, Replayed: replayed}, nil
}

// BuyWithPriceBudget implements Client.
func (c *HTTPClient) BuyWithPriceBudget(ctx context.Context, budget float64, key string) (BuyResult, error) {
	resp, replayed, err := c.c.Buy(ctx, httpapi.BuyRequest{Model: c.model, PriceBudget: &budget}, key)
	if err != nil {
		return BuyResult{}, err
	}
	return BuyResult{Seq: resp.Seq, Price: resp.Price, Replayed: replayed}, nil
}

// Ledger implements Client.
func (c *HTTPClient) Ledger(ctx context.Context) (LedgerSummary, error) {
	resp, err := c.c.Ledger(ctx)
	if err != nil {
		return LedgerSummary{}, err
	}
	sum := LedgerSummary{
		Seqs:        make([]int, len(resp.Transactions)),
		SellerShare: resp.SellerShare,
		BrokerShare: resp.BrokerShare,
		Sellers:     resp.Sellers,
	}
	for i, tx := range resp.Transactions {
		sum.Seqs[i] = tx.Seq
		sum.Gross += tx.Price
	}
	sellers, err := c.c.Sellers(ctx)
	if err != nil {
		return LedgerSummary{}, err
	}
	sum.AttributionChecked = true
	sum.ExactViolations = sellers.ExactViolations
	sum.ResumMismatches = sellers.ResumMismatches
	return sum, nil
}
