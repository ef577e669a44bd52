// Journalist: the paper's Example 1. Alice studies how demographics
// predict household income but cannot afford the full dataset. A
// model-based-pricing market lets her buy a linear regression instance
// whose accuracy matches her budget instead.
//
// The example walks the exact narrative of the paper: Alice first buys
// a cheap "learning the average" scalar model (the paper's Example 1
// hypothesis space H = R with uniform noise mechanisms K₁/K₂), then a
// full least-squares model under a price budget, and compares what each
// tier of spending buys her.
//
// Run with:
//
//	go run ./examples/journalist
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/dataset"
	"github.com/datamarket/mbp/internal/linalg"
	"github.com/datamarket/mbp/internal/loss"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/rng"
)

// incomeData synthesizes the (Age, Sex, Height, Education) → Income
// table of the example. Income depends on age and education with noise;
// sex and height carry almost no signal, which Alice will discover.
func incomeData(n int, seed uint64) *dataset.Split {
	r := rng.New(seed)
	rows := make([][]float64, n)
	ys := make([]float64, n)
	for i := range rows {
		age := r.Uniform(20, 65)
		sex := float64(r.Intn(2))
		height := r.Gaussian(170, 10)
		edu := r.Uniform(8, 20)
		income := 12000 + 650*age + 2100*edu + 40*sex + 3*height + r.Gaussian(0, 8000)
		rows[i] = []float64{age, sex, height, edu}
		ys[i] = income / 1000 // k$/year keeps the numbers readable
	}
	x := linalg.FromRows(rows)
	ds, err := dataset.New("census-income", dataset.Regression, x, ys)
	if err != nil {
		panic(err)
	}
	ds.FeatureNames = []string{"age", "sex", "height", "education"}
	sp, err := ds.SplitFraction(0.75, rng.New(seed+1))
	if err != nil {
		panic(err)
	}
	return &sp
}

func main() {
	split := incomeData(4000, 11)

	// --- Part 1: the scalar "average income" model (paper Example 1).
	// The hypothesis space is R; the optimal instance is the train mean;
	// the mechanisms K₁ (additive uniform) and K₂ (multiplicative
	// uniform) are both unbiased.
	mean := linalg.Mean(split.Train.Y)
	r := rng.New(3)
	fmt.Println("Part 1 — buying the average income (hypothesis space H = R):")
	for _, tier := range []struct {
		name  string
		delta float64
		price float64
	}{
		{"cheap", 25, 2},
		{"mid", 4, 10},
		{"premium", 0.25, 35},
	} {
		// K₁(h*, w) = h* + w, w ~ U[−a, a] with a chosen so Var = δ.
		a := tier.delta // uniform half-width ⇒ variance a²/3
		noisy := mean + r.Uniform(-a, a)
		fmt.Printf("  %-8s price %5.2f → average ≈ %7.2f k$ (true %7.2f, half-width ±%.3g)\n",
			tier.name, tier.price, noisy, mean, a)
	}

	// --- Part 2: the full regression model through the MBP market.
	mp, err := core.New(core.Config{
		Data:      split,
		Seed:      5,
		MCSamples: 300,
		MaxValue:  100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPart 2 — %v on %s via the broker:\n", mp.Model, split.Train.Name)
	menu, err := mp.Broker.PriceErrorCurve(mp.Model, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  menu spans error %.4g (price %.2f) … %.4g (price %.2f)\n",
		menu[0].ExpectedError, menu[0].Price,
		menu[len(menu)-1].ExpectedError, menu[len(menu)-1].Price)

	for _, budget := range []float64{25, 50, 90} {
		p, _, err := mp.Broker.Buy(context.Background(), mp.Model, market.Spec{Kind: market.PriceBudget, Value: budget})
		if err != nil {
			log.Fatal(err)
		}
		testErr := p.Instance.Eval(loss.Square{}, mp.Seller.Data.Test)
		fmt.Printf("  budget %5.0f → δ=%-9.4g quoted err %-10.5g realized test err %-10.5g\n",
			budget, p.Delta, p.ExpectedError, testErr)
		if budget == 90 {
			fmt.Println("\n  Alice's premium model coefficients (k$/unit):")
			for i, name := range split.Train.FeatureNames {
				fmt.Printf("    %-10s %+8.3f\n", name, p.Instance.W[i])
			}
			fmt.Println("  → age and education dominate; sex and height are negligible,")
			fmt.Println("    which is the story Alice was after — bought within budget,")
			fmt.Println("    without purchasing the raw dataset.")
		}
	}
}
