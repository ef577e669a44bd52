package market

import (
	"context"
	"fmt"

	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/rng"
)

// SimulationSummary aggregates a simulated buyer population's activity.
type SimulationSummary struct {
	// Buyers is the number of simulated buyers.
	Buyers int
	// Sales is how many of them could afford their desired version.
	Sales int
	// Revenue is the total price collected.
	Revenue float64
	// Affordability is Sales/Buyers.
	Affordability float64
}

// SimulateBuyers draws nBuyers from the seller's demand curve — buyer i
// wants the version at grid point aⱼ with probability bⱼ and holds
// valuation vⱼ — and lets each buy through the point-on-curve option
// when the published price is within their valuation. It reports
// realized revenue and affordability, the two quantities Figures 7–8
// compare across pricing schemes.
func (b *Broker) SimulateBuyers(m ml.Model, nBuyers int, seed uint64) (SimulationSummary, error) {
	if nBuyers <= 0 {
		return SimulationSummary{}, fmt.Errorf("market: non-positive buyer count %d", nBuyers)
	}
	off, ok := b.lookup(m)
	research := b.seller.Research
	if !ok {
		return SimulationSummary{}, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	if research == nil {
		return SimulationSummary{}, fmt.Errorf("market: no market research to sample buyers from")
	}

	r := rng.New(seed)
	sum := SimulationSummary{Buyers: nBuyers}
	// Cumulative demand for inverse-CDF sampling.
	cum := make([]float64, len(research.B))
	var acc float64
	for i, v := range research.B {
		acc += v
		cum[i] = acc
	}
	for i := 0; i < nBuyers; i++ {
		u := r.Float64() * acc
		j := 0
		for j < len(cum)-1 && cum[j] < u {
			j++
		}
		price := off.curve.Price(research.A[j])
		if price <= research.V[j]+1e-9 {
			// The buyer purchases the version at δ = 1/aⱼ.
			if _, _, err := b.Buy(context.TODO(), m, Spec{Kind: AtPoint, Value: 1 / research.A[j]}); err != nil {
				return SimulationSummary{}, err
			}
			sum.Sales++
			sum.Revenue += price
		}
	}
	sum.Affordability = float64(sum.Sales) / float64(nBuyers)
	return sum, nil
}
