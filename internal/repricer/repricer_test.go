package repricer_test

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/arbitrage"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/repricer"
	"github.com/datamarket/mbp/internal/rng"
)

// newRepricer builds a repricer over a fresh fixture broker with an
// isolated metrics registry.
func newRepricer(t *testing.T, seed uint64, tamper func([]pricing.Point) []pricing.Point) (*market.Broker, *repricer.Repricer) {
	t.Helper()
	b := markettest.Broker(t, seed)
	rp := repricer.New(repricer.Config{
		Broker:   b,
		Model:    markettest.Model,
		Seed:     seed,
		Registry: obs.NewRegistry(),
		Tamper:   tamper,
	})
	return b, rp
}

// buyRows executes posted-price purchases at a seeded subset of menu
// rows, giving the next epoch a non-empty demand window.
func buyRows(t *testing.T, b *market.Broker, r *rng.RNG, n int) {
	t.Helper()
	curve, err := b.Curve(markettest.Model)
	if err != nil {
		t.Fatal(err)
	}
	pts := curve.Points()
	for i := 0; i < n; i++ {
		j := r.Intn(len(pts))
		if _, _, err := b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: 1 / pts[j].X}); err != nil {
			t.Fatalf("buy at row %d: %v", j, err)
		}
	}
}

// TestPublishedMenusAlwaysCertified is the publish loop's property
// test: across many randomized epochs — varying demand, exploration
// perturbations, DP re-solves — every menu the repricer actually
// publishes re-certifies arbitrage-free and survives an exact attack
// search at targets the repricer did not itself probe.
func TestPublishedMenusAlwaysCertified(t *testing.T) {
	b, rp := newRepricer(t, 11, nil)
	traffic := rng.Stream(99, 0)
	attackTargets := rng.Stream(99, 1)

	const epochs = 60
	published := 0
	for e := 0; e < epochs; e++ {
		buyRows(t, b, traffic, 3+traffic.Intn(6))
		rec := rp.Epoch(time.Now())
		if rec.Outcome != repricer.OutcomePublished {
			continue
		}
		published++
		curve, err := b.Curve(markettest.Model)
		if err != nil {
			t.Fatal(err)
		}
		if err := curve.Certify(); err != nil {
			t.Fatalf("epoch %d published an uncertifiable menu: %v", e, err)
		}
		pts := curve.Points()
		if len(rec.Prices) != len(pts) {
			t.Fatalf("epoch %d: record has %d prices, live menu %d rows", e, len(rec.Prices), len(pts))
		}
		for j := range pts {
			if pts[j].Price != rec.Prices[j] {
				t.Fatalf("epoch %d row %d: live price %v != record %v", e, j, pts[j].Price, rec.Prices[j])
			}
		}
		maxX := pts[len(pts)-1].X
		for i := 0; i < 8; i++ {
			target := attackTargets.Uniform(maxX/100, 2*maxX)
			if atk := arbitrage.FindAttack(curve, target, 3); atk != nil {
				t.Fatalf("epoch %d: published menu admits an attack at x=%v: %d purchases for %v vs direct %v",
					e, atk.TargetX, len(atk.Purchases), atk.Cost, atk.TargetPrice)
			}
		}
	}
	if published < 50 {
		t.Fatalf("only %d of %d epochs published — property needs ≥50 certified publishes", published, epochs)
	}
	sum := rp.Summary()
	if sum.Rejected != 0 {
		t.Fatalf("untampered epochs rejected %d candidates", sum.Rejected)
	}
}

// TestTamperedCandidateRejectedInvisibly corrupts every candidate menu
// between the DP solve and certification, and hammers the quote path
// from concurrent goroutines the whole time: the certification gate
// must reject each candidate, the published menu must stay the
// original, and no quote may ever observe a corrupted price.
func TestTamperedCandidateRejectedInvisibly(t *testing.T) {
	const poison = 1e9
	b, rp := newRepricer(t, 13, func(pts []pricing.Point) []pricing.Point {
		// Poison the cheapest row far above the top row: grossly
		// non-monotone, so certification must fail — and the sentinel
		// value is unmistakable if it ever leaks into a quote.
		out := append([]pricing.Point(nil), pts...)
		out[0].Price = poison
		return out
	})
	orig, err := b.Curve(markettest.Model)
	if err != nil {
		t.Fatal(err)
	}
	origPts := orig.Points()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	quoteErr := make(chan string, 1)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qr := rng.Stream(7, uint64(g))
			for {
				select {
				case <-stop:
					return
				default:
				}
				j := qr.Intn(len(origPts))
				price, _, err := b.Quote(context.Background(), markettest.Model, 1/origPts[j].X)
				if err != nil {
					select {
					case quoteErr <- "quote error: " + err.Error():
					default:
					}
					return
				}
				if price >= poison/2 {
					select {
					case quoteErr <- "quote observed a poisoned price":
					default:
					}
					return
				}
			}
		}(g)
	}

	traffic := rng.Stream(101, 0)
	const epochs = 20
	for e := 0; e < epochs; e++ {
		buyRows(t, b, traffic, 4)
		rec := rp.Epoch(time.Now())
		if rec.Outcome != repricer.OutcomeRejected {
			t.Fatalf("epoch %d: tampered candidate got outcome %q (reason %q), want rejected",
				e, rec.Outcome, rec.Reason)
		}
		if rec.Reason == "" {
			t.Fatalf("epoch %d: rejection carries no reason", e)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-quoteErr:
		t.Fatal(msg)
	default:
	}

	now, err := b.Curve(markettest.Model)
	if err != nil {
		t.Fatal(err)
	}
	nowPts := now.Points()
	for j := range origPts {
		if nowPts[j] != origPts[j] {
			t.Fatalf("row %d moved despite every candidate being rejected: %+v != %+v",
				j, nowPts[j], origPts[j])
		}
	}
	sum := rp.Summary()
	if sum.Rejected != epochs || sum.Published != 0 {
		t.Fatalf("summary = %+v, want %d rejections and 0 publishes", sum, epochs)
	}
	if _, _, ok := rp.LastPublished(); ok {
		t.Fatal("LastPublished reports a publish that never happened")
	}
}

// TestEpochEmptyWindowIsNoOp: an epoch with no window sales must skip —
// no DP solve, no publish, old menu untouched.
func TestEpochEmptyWindowIsNoOp(t *testing.T) {
	b, rp := newRepricer(t, 17, nil)
	orig, err := b.Curve(markettest.Model)
	if err != nil {
		t.Fatal(err)
	}
	origPts := orig.Points()

	rec := rp.Epoch(time.Now())
	if rec.Outcome != repricer.OutcomeSkipped {
		t.Fatalf("outcome = %q (reason %q), want skipped", rec.Outcome, rec.Reason)
	}
	if rec.Objective != 0 || rec.Samples != 0 || rec.Prices != nil {
		t.Fatalf("skipped epoch carries solve state: %+v", rec)
	}
	now, err := b.Curve(markettest.Model)
	if err != nil {
		t.Fatal(err)
	}
	nowPts := now.Points()
	for j := range origPts {
		if nowPts[j] != origPts[j] {
			t.Fatalf("row %d moved on a skipped epoch", j)
		}
	}
	if sum := rp.Summary(); sum.Skipped != 1 || sum.Epochs != 1 {
		t.Fatalf("summary = %+v, want 1 epoch, 1 skip", sum)
	}
}

func TestEstimate(t *testing.T) {
	grid := []float64{1, 2, 4}
	prior := []float64{10, 20, 40}
	const decay = 0.1

	cases := []struct {
		name    string
		samples []repricer.Sample
		wantV   []float64
		wantB   []float64
	}{
		{
			// Posted-price sales on every arm: v̂ is what was paid, b̂
			// the sale shares.
			name: "uniform-on-grid",
			samples: []repricer.Sample{
				{X: 1, Price: 10}, {X: 2, Price: 20}, {X: 2, Price: 20}, {X: 4, Price: 40},
			},
			wantV: []float64{10, 20, 40},
			wantB: []float64{0.25, 0.5, 0.25},
		},
		{
			// Only the extreme arms sell; the middle arm decays its
			// prior, and an accepted price above it pulls the monotone
			// repair up through it.
			name: "two-point",
			samples: []repricer.Sample{
				{X: 1, Price: 19}, {X: 4, Price: 40},
			},
			wantV: []float64{19, 19, 40}, // mid decays to 18, monotone repair lifts to 19
			wantB: []float64{0.5, 0, 0.5},
		},
		{
			// A budget buyer's off-grid purchase near the middle arm
			// pays more than that arm's posted price. It must count as
			// demand but not as valuation evidence: the arm is still
			// starved and decays.
			name: "off-grid-demand-only",
			samples: []repricer.Sample{
				{X: 1, Price: 10}, {X: 2.3, Price: 25},
			},
			wantV: []float64{10, 18, 36},
			wantB: []float64{0.5, 0.5, 0},
		},
		{
			// Top arm starved: decays, but never below the best arm
			// that did sell (monotone repair).
			name: "single-arm-starved",
			samples: []repricer.Sample{
				{X: 1, Price: 10}, {X: 2, Price: 38},
			},
			wantV: []float64{10, 38, 38}, // top: 40·0.9 = 36 < 38 → lifted
			wantB: []float64{0.5, 0.5, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := repricer.Estimate(grid, prior, tc.samples, decay)
			if err != nil {
				t.Fatal(err)
			}
			for j := range grid {
				if math.Abs(m.V[j]-tc.wantV[j]) > 1e-12 {
					t.Errorf("V[%d] = %v, want %v", j, m.V[j], tc.wantV[j])
				}
				if math.Abs(m.B[j]-tc.wantB[j]) > 1e-12 {
					t.Errorf("B[%d] = %v, want %v", j, m.B[j], tc.wantB[j])
				}
				if m.A[j] != grid[j] {
					t.Errorf("A[%d] = %v, want %v", j, m.A[j], grid[j])
				}
			}
		})
	}

	errCases := []struct {
		name    string
		grid    []float64
		prior   []float64
		samples []repricer.Sample
		decay   float64
		errSub  string
	}{
		{"empty-window", grid, prior, nil, decay, "no samples"},
		{"empty-grid", nil, nil, []repricer.Sample{{X: 1, Price: 1}}, decay, "empty grid"},
		{"prior-mismatch", grid, []float64{1, 2}, []repricer.Sample{{X: 1, Price: 1}}, decay, "prior"},
		{"decay-out-of-range", grid, prior, []repricer.Sample{{X: 1, Price: 1}}, 1.0, "decay"},
	}
	for _, tc := range errCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := repricer.Estimate(tc.grid, tc.prior, tc.samples, tc.decay); err == nil {
				t.Fatal("want error, got nil")
			} else if !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("error %q does not mention %q", err, tc.errSub)
			}
		})
	}
}
