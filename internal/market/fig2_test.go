package market

import (
	"context"
	"testing"

	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/synth"
)

// TestAddModelFromErrorResearch walks the paper's complete Figure 2
// pipeline at the broker level: error-domain research in, certified
// price–error menu out, purchases working.
func TestAddModelFromErrorResearch(t *testing.T) {
	sp, err := synth.Generate("CASP", 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(&Seller{Name: "fig2", Data: sp}, noise.Gaussian{}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The broker offers NCPs δ ∈ [0.01, 0.5]; the seller's research is
	// expressed over expected squared loss. The analytic transform for
	// CASP at this scale spans roughly [4.7, 5.1], so the research rows
	// use errors in that band (a real seller would read them off the
	// broker's published transform).
	deltaGrid := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5}
	optimal, err := ml.Train(ml.LinearRegression, sp.Train, ml.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pricing.AnalyticSquareTransform(optimal, sp.Test, deltaGrid)
	if err != nil {
		t.Fatal(err)
	}
	_, errs := tr.Grid()
	research := []pricing.ErrorResearchPoint{
		{Error: errs[len(errs)-1], Value: 10, Demand: 2}, // noisiest version
		{Error: errs[len(errs)/2], Value: 50, Demand: 5},
		{Error: errs[0], Value: 100, Demand: 3}, // most accurate version
	}

	if err := b.AddModelFromErrorResearch(ml.LinearRegression, AddModelOptions{}, research, deltaGrid); err != nil {
		t.Fatal(err)
	}
	// Published curve is certified and the menu spans the research grid.
	c, err := b.Curve(ml.LinearRegression)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Certify(); err != nil {
		t.Fatalf("Fig. 2 curve not arbitrage-free: %v", err)
	}
	menu, err := b.PriceErrorCurve(ml.LinearRegression, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(menu) != len(deltaGrid) {
		t.Fatalf("menu rows %d", len(menu))
	}
	// A buyer with the mid valuation can afford the mid version.
	p, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: ErrorBudget, Value: errs[len(errs)/2]})
	if err != nil {
		t.Fatal(err)
	}
	if p.Price > 50+1e-6 {
		t.Fatalf("mid version priced %v above its research valuation 50", p.Price)
	}
}

func TestAddModelFromErrorResearchValidation(t *testing.T) {
	sp, err := synth.Generate("CASP", 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(&Seller{Name: "fig2", Data: sp}, noise.Gaussian{}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := []pricing.ErrorResearchPoint{{Error: 10, Value: 1, Demand: 1}, {Error: 20, Value: 0.5, Demand: 1}}
	if err := b.AddModelFromErrorResearch(ml.LinearRegression, AddModelOptions{}, nil, []float64{0.1, 1}); err == nil {
		t.Fatal("empty research accepted")
	}
	if err := b.AddModelFromErrorResearch(ml.LinearRegression, AddModelOptions{}, good, []float64{1}); err == nil {
		t.Fatal("single-point grid accepted")
	}
	if err := b.AddModelFromErrorResearch(ml.Model(99), AddModelOptions{}, good, []float64{0.1, 1}); err == nil {
		t.Fatal("unknown model accepted")
	}
	// Research below the attainable error must be rejected by the
	// transform mapping.
	unattainable := []pricing.ErrorResearchPoint{{Error: 1e-12, Value: 1, Demand: 1}}
	if err := b.AddModelFromErrorResearch(ml.LinearRegression, AddModelOptions{}, unattainable, []float64{0.1, 1}); err == nil {
		t.Fatal("unattainable research accepted")
	}
}
