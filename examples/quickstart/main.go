// Quickstart: the complete model-based-pricing loop in one page.
//
// A seller lists a dataset, the broker trains the optimal linear model
// once and publishes an arbitrage-free price–error menu, and a buyer
// purchases a noisy model instance through each of the three options of
// the paper's Section 3.2.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/synth"
)

func main() {
	ctx := context.Background()
	// 1. The seller's dataset: a scaled-down CASP (protein RMSD
	//    regression, Table 3). Any CSV works too — see cmd/mbpcli.
	mp, err := core.New(core.Config{
		Dataset:   "CASP",
		Scale:     0.01,
		Seed:      42,
		MCSamples: 200,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("marketplace ready: selling %v on %s (%d train rows, %d features)\n\n",
		mp.Model, mp.Seller.Data.Train.Name, mp.Seller.Data.Train.N(), mp.Seller.Data.Train.D())

	// 2. The broker's published price–error curve (Fig. 1C, step 2).
	menu, err := mp.Broker.PriceErrorCurve(mp.Model, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("price–error menu (cheapest version first):")
	for _, row := range menu {
		fmt.Printf("  δ=%-9.4g expected error %-12.5g price %6.2f\n",
			row.Delta, row.ExpectedError, row.Price)
	}

	// 3a. Option 1 — buy a specific point on the curve.
	p1, _, err := mp.Broker.Buy(ctx, mp.Model, market.Spec{Kind: market.AtPoint, Value: menu[len(menu)/2].Delta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noption 1 (point on curve):   δ=%.4g  err=%.5g  price=%.2f\n",
		p1.Delta, p1.ExpectedError, p1.Price)

	// 3b. Option 2 — error budget: "at most this error, as cheap as
	//     possible".
	budgetErr := (menu[0].ExpectedError + menu[len(menu)-1].ExpectedError) / 2
	p2, _, err := mp.Broker.Buy(ctx, mp.Model, market.Spec{Kind: market.ErrorBudget, Value: budgetErr})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("option 2 (error budget %.4g): δ=%.4g  err=%.5g  price=%.2f\n",
		budgetErr, p2.Delta, p2.ExpectedError, p2.Price)

	// 3c. Option 3 — price budget: "most accurate model under this
	//     price".
	p3, _, err := mp.Broker.Buy(ctx, mp.Model, market.Spec{Kind: market.PriceBudget, Value: 40})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("option 3 (price budget 40):  δ=%.4g  err=%.5g  price=%.2f\n",
		p3.Delta, p3.ExpectedError, p3.Price)

	// 4. Use the purchased instance: predict on fresh data.
	fresh, err := synth.Generate("CASP", 0.001, 7)
	if err != nil {
		log.Fatal(err)
	}
	x, y := fresh.Test.Row(0)
	fmt.Printf("\nprediction with the budget-bought model: ŷ=%.3f (true y=%.3f)\n",
		p3.Instance.Predict(x), y)
	te, err := ml.Evaluate(p3.Instance, fresh.Test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out square loss of the purchased instance: %.5g\n", te.Surrogate)

	// 5. Market accounting.
	rev := mp.Broker.Revenue()
	fmt.Printf("\nledger: %d sales — seller earns %.2f, broker commission %.2f\n",
		len(mp.Broker.Ledger()), rev.SellerShare, rev.BrokerShare)
}
