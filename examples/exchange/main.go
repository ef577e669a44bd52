// Exchange: a marketplace hosting many sellers, the BDEX/Qlik-style
// setting of the paper's introduction. Two sellers list different
// datasets; the exchange routes buyers to either broker and aggregates
// the revenue flows, with each listing keeping its own arbitrage-free
// menu, ledger, and SLA.
//
// Run with:
//
//	go run ./examples/exchange
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/market"
)

func main() {
	ctx := context.Background()
	ex := market.NewExchange()

	// Seller 1: protein-structure regression with concave demand for
	// accuracy.
	mp1, err := core.New(core.Config{
		Dataset:    "CASP",
		Scale:      0.01,
		Seed:       2,
		MCSamples:  150,
		Commission: 0.05,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := ex.List("protein-rmsd", mp1.Broker); err != nil {
		log.Fatal(err)
	}

	// Seller 2: particle-physics classification whose buyers cluster at
	// the extremes (hobbyists and labs).
	mp2, err := core.New(core.Config{
		Dataset:     "SUSY",
		Scale:       0.001,
		Mu:          1e-3,
		Seed:        3,
		MCSamples:   150,
		ValueShape:  curves.Sigmoid,
		DemandShape: curves.BimodalExtremes,
		Commission:  0.1,
		GridPoints:  12,
		XMax:        12,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := ex.List("susy-signal", mp2.Broker); err != nil {
		log.Fatal(err)
	}

	fmt.Println("marketplace listings:")
	for _, name := range ex.Listings() {
		b, err := ex.Broker(ctx, name)
		if err != nil {
			log.Fatal(err)
		}
		models := b.Models()
		menu, err := b.PriceErrorCurve(models[0], "")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %v, %d versions, prices %.2f…%.2f\n",
			name, models[0], len(menu), menu[0].Price, menu[len(menu)-1].Price)
	}

	// Buyers shop across listings.
	fmt.Println("\nbuyers:")
	b1, err := ex.Broker(ctx, "protein-rmsd")
	if err != nil {
		log.Fatal(err)
	}
	p, _, err := b1.Buy(ctx, mp1.Model, market.Spec{Kind: market.PriceBudget, Value: 45})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  biotech startup buys %v from protein-rmsd: δ=%.4g err=%.5g price=%.2f\n",
		p.Model, p.Delta, p.ExpectedError, p.Price)

	b2, err := ex.Broker(ctx, "susy-signal")
	if err != nil {
		log.Fatal(err)
	}
	menu2, err := b2.PriceErrorCurve(mp2.Model, "")
	if err != nil {
		log.Fatal(err)
	}
	p, _, err = b2.Buy(ctx, mp2.Model, market.Spec{Kind: market.ErrorBudget, Value: menu2[len(menu2)/2].ExpectedError})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  physics lab buys %v from susy-signal:   δ=%.4g err=%.5g price=%.2f\n",
		p.Model, p.Delta, p.ExpectedError, p.Price)

	// Aggregated accounting across the exchange.
	rev := ex.Revenue()
	fmt.Printf("\nexchange totals: sellers earn %.2f, platform commissions %.2f\n",
		rev.SellerShare, rev.BrokerShare)
	fmt.Println("(serve the same thing over HTTP with cmd/mbpmarket, or many listings")
	fmt.Println(" via httpapi.NewExchange — endpoints /listings and /l/{listing}/...)")
}
