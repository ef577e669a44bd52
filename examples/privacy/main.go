// Privacy: the differential-privacy ledger of an MBP marketplace.
//
// The paper (Sections 2 and 7) points out that the Gaussian mechanism
// connects model-based pricing to differential privacy. This example
// makes the connection concrete: selling ĥ = h* + N(0, (δ/d)·I) is
// output perturbation, so with a bounded-sensitivity trainer every menu
// row carries an (ε, δ_DP) guarantee — and the arbitrage-free price
// curve doubles as a privacy price list: paying more buys less noise
// and *more* privacy loss.
//
// Run with:
//
//	go run ./examples/privacy
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/dataset"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/privacy"
)

func main() {
	// A classification market: logistic regression has the clean
	// Chaudhuri–Monteleoni sensitivity bound 2R/(nμ).
	const mu = 0.05
	mp, err := core.New(core.Config{
		Dataset:    "SUSY",
		Scale:      0.002,
		Model:      ml.LogisticRegression,
		ModelSet:   true,
		Mu:         mu,
		Seed:       13,
		MCSamples:  150,
		GridPoints: 12,
		XMax:       12,
	})
	if err != nil {
		log.Fatal(err)
	}
	train := mp.Seller.Data.Train

	// Bound the feature norm over the actual training data (a real
	// deployment clips rows at ingestion; here we measure the max).
	r := maxFeatureNorm(train)
	sens, err := privacy.LogisticSensitivity(privacy.SensitivityParams{
		N: train.N(), Mu: mu, R: r,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %s, n=%d, d=%d, ‖x‖ ≤ %.2f\n", train.Name, train.N(), train.D(), r)
	fmt.Printf("L2 sensitivity of the trained optimum: Δ₂ ≤ %.6f\n\n", sens)

	// Every menu row gets a privacy annotation.
	menu, err := mp.Broker.PriceErrorCurve(mp.Model, "")
	if err != nil {
		log.Fatal(err)
	}
	const deltaDP = 1e-6
	fmt.Printf("%-10s %-12s %-10s %-12s %s\n", "δ (NCP)", "exp. error", "price", "ε per sale", "note")
	for _, row := range menu {
		eps, err := privacy.EpsilonForNCP(row.Delta, train.D(), sens, deltaDP)
		note := ""
		if err != nil {
			note = "(ε>1: guarantee vacuous)"
		}
		fmt.Printf("%-10.4g %-12.5g %-10.2f %-12.4g %s\n", row.Delta, row.ExpectedError, row.Price, eps, note)
	}

	// A repeat buyer composes privacy loss like an arbitrage buyer
	// composes inverse variances.
	eps1, err := privacy.EpsilonForNCP(menu[0].Delta, train.D(), sens, deltaDP)
	if err != nil {
		log.Fatal(err)
	}
	epsK, deltaK, err := privacy.Compose(eps1, deltaDP, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n10 repeat purchases of the cheapest version compose to (ε=%.4g, δ=%.1g)\n", epsK, deltaK)
	fmt.Println("— exactly the Theorem 5 story: inverse variances (and privacy budgets) add,")
	fmt.Println("  which is why subadditive pricing is what prevents both arbitrage and")
	fmt.Println("  cut-price privacy erosion.")
}

func maxFeatureNorm(d *dataset.Dataset) float64 {
	var m float64
	for i := 0; i < d.N(); i++ {
		row, _ := d.Row(i)
		var s float64
		for _, v := range row {
			s += v * v
		}
		if s > m {
			m = s
		}
	}
	return math.Sqrt(m)
}
