// Package markettest provides cheap, deterministic broker fixtures for
// tests and benchmarks.
//
// The first fixture built in a process pays the full publish cost —
// dataset generation, training, the Monte-Carlo/analytic error
// transform, and the revenue DP. Its pricing artifacts are then cached
// as an offer snapshot, so every further fixture is a NewBroker plus a
// snapshot restore: fast enough to hand a fresh, isolated broker to
// each test or benchmark iteration. Because restored offers are
// bit-identical and purchases draw from seed-derived RNG streams,
// brokers constructed with the same seed are interchangeable replicas:
// same menu, same per-stream noise draws.
package markettest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/datamarket/mbp/internal/attr"
	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/dataset"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/pricing"
)

// Model is the hypothesis space every fixture offers.
const Model = ml.LinearRegression

// ModelName is Model's wire name, for HTTP-layer tests.
const ModelName = "linear-regression"

// GridPoints is the number of menu rows every fixture publishes.
const GridPoints = 20

// Commission is every fixture broker's cut of each sale.
const Commission = 0.1

var fixture struct {
	once   sync.Once
	seller *market.Seller // dataset + research, shared read-only
	offers []byte         // SaveOffers output of the canonical broker
	err    error
}

func build() {
	mp, err := core.New(core.Config{
		Dataset:    "CASP",
		Scale:      0.005,
		Seed:       1,
		MCSamples:  60,
		GridPoints: GridPoints,
		XMax:       50,
		Commission: Commission,
	})
	if err != nil {
		fixture.err = err
		return
	}
	var buf bytes.Buffer
	if err := mp.Broker.SaveOffers(&buf); err != nil {
		fixture.err = err
		return
	}
	fixture.seller, fixture.offers = mp.Seller, buf.Bytes()
}

// New returns a fresh broker with the canonical CASP linear-regression
// offer published. The dataset and market research are shared
// (read-only) across fixtures; the broker's ledger and RNG streams are
// its own, seeded with seed.
func New(seed uint64) (*market.Broker, error) {
	return NewWith(seed, noise.Gaussian{})
}

// NewWith is New with a caller-chosen noise mechanism. The restored
// pricing artifacts are the canonical (Gaussian-built) ones, so the
// menu is unchanged; only the per-sale noise draw goes through mech.
// Resilience tests use it to wrap the mechanism with fault hooks
// (e.g. canceling the request context mid-Perturb).
func NewWith(seed uint64, mech noise.Mechanism) (*market.Broker, error) {
	fixture.once.Do(build)
	if fixture.err != nil {
		return nil, fixture.err
	}
	seller := &market.Seller{
		Name:     "markettest",
		Data:     fixture.seller.Data,
		Research: fixture.seller.Research,
	}
	b, err := market.NewBroker(seller, mech, seed, Commission)
	if err != nil {
		return nil, err
	}
	if err := b.LoadOffers(bytes.NewReader(fixture.offers)); err != nil {
		return nil, err
	}
	return b, nil
}

// BrokerWith is NewWith for tests: it fails tb on error.
func BrokerWith(tb testing.TB, seed uint64, mech noise.Mechanism) *market.Broker {
	tb.Helper()
	b, err := NewWith(seed, mech)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// Broker is New for tests: it fails tb on error.
func Broker(tb testing.TB, seed uint64) *market.Broker {
	tb.Helper()
	b, err := New(seed)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// multiStakes caches the Shapley-derived stake tables per seller
// count: computing one means 2^n−1 trainings over the CASP subsets, so
// every test asking for the same n shares the result.
var multiStakes struct {
	mu  sync.Mutex
	byN map[int][]market.SellerStake
}

// MultiSellerStakes returns an n-seller attribution stake table derived
// from the canonical CASP fixture: the train split is dealt row-by-row
// into n per-seller subsets, each seller's coalition value is the
// held-out loss reduction its data buys (attr.LossReduction), and the
// stakes are the exact Shapley weights of that game. The table is
// deterministic and cached per n.
func MultiSellerStakes(n int) ([]market.SellerStake, error) {
	if n < 1 {
		return nil, fmt.Errorf("markettest: need at least one seller, got %d", n)
	}
	fixture.once.Do(build)
	if fixture.err != nil {
		return nil, fixture.err
	}
	multiStakes.mu.Lock()
	defer multiStakes.mu.Unlock()
	if st, ok := multiStakes.byN[n]; ok {
		return append([]market.SellerStake(nil), st...), nil
	}
	train := fixture.seller.Data.Train
	if train.N() < n {
		return nil, fmt.Errorf("markettest: %d sellers over %d training rows", n, train.N())
	}
	// Deal rows round-robin so every seller sees the same distribution:
	// near-symmetric sellers make the attribution's symmetry property
	// visible in tests without being exactly degenerate.
	rows := make([][]int, n)
	for r := 0; r < train.N(); r++ {
		rows[r%n] = append(rows[r%n], r)
	}
	subsets := make([]*dataset.Dataset, n)
	for i := range subsets {
		subsets[i] = train.Subset(rows[i])
	}
	vf, err := attr.LossReduction(Model, subsets, fixture.seller.Data.Test, ml.Options{})
	if err != nil {
		return nil, err
	}
	res, err := attr.Shapley(n, vf, attr.Options{Seed: 1})
	if err != nil {
		return nil, err
	}
	stakes := make([]market.SellerStake, n)
	for i := range stakes {
		stakes[i] = market.SellerStake{ID: fmt.Sprintf("seller-%d", i), Weight: res.Weights[i]}
	}
	if multiStakes.byN == nil {
		multiStakes.byN = make(map[int][]market.SellerStake)
	}
	multiStakes.byN[n] = stakes
	return append([]market.SellerStake(nil), stakes...), nil
}

// NewMultiSeller returns a fixture broker whose revenue splits across n
// sellers by cached Shapley-derived stakes (see MultiSellerStakes).
func NewMultiSeller(seed uint64, n int) (*market.Broker, error) {
	b, err := New(seed)
	if err != nil {
		return nil, err
	}
	stakes, err := MultiSellerStakes(n)
	if err != nil {
		return nil, err
	}
	if err := b.SetSellerStakes(stakes); err != nil {
		return nil, err
	}
	return b, nil
}

// MultiSellerBroker is NewMultiSeller for tests: it fails tb on error.
func MultiSellerBroker(tb testing.TB, seed uint64, n int) *market.Broker {
	tb.Helper()
	b, err := NewMultiSeller(seed, n)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// Menu returns the fixture's published price–error menu, failing tb on
// error. Rows are ordered cheapest (noisiest) first.
func Menu(tb testing.TB, b *market.Broker) []pricing.PriceError {
	tb.Helper()
	menu, err := b.PriceErrorCurve(Model, "")
	if err != nil {
		tb.Fatal(err)
	}
	return menu
}
