// Package buyer models heterogeneous buyer populations and purchase
// strategies on top of the broker API — the direction the paper's
// Section 7 flags as future work ("more complicated buyer models").
//
// A Profile describes what a buyer wants (a target error or accuracy
// level), what it is worth to them (valuation), and what they can spend
// (budget). Strategies turn a profile plus a published price–error
// menu into a purchase decision:
//
//   - ErrorFirst: meet the error target as cheaply as possible, walk
//     away if that exceeds the budget (the paper's option 2 buyer).
//   - BudgetFirst: spend up to the budget on the most accurate version
//     (the paper's option 3 buyer).
//   - Surplus: buy the menu row maximizing consumer surplus
//     (value(row) − price), the classical rational buyer.
//
// Populations sample profiles from the seller's research curves so
// market simulations agree with the revenue optimizer's inputs.
package buyer

import (
	"context"
	"errors"
	"fmt"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/rng"
)

// Profile is one buyer's preferences.
type Profile struct {
	// Name labels the buyer in reports.
	Name string
	// TargetError is the expected error the buyer wants to reach
	// (used by ErrorFirst; 0 means "as accurate as affordable").
	TargetError float64
	// Valuation is the buyer's worth for their desired version.
	Valuation float64
	// Budget caps spending (often equal to Valuation; smaller models
	// a cash-constrained buyer).
	Budget float64
}

// Decision is the outcome of a strategy for one buyer.
type Decision struct {
	// Bought reports whether a purchase happened.
	Bought bool
	// Purchase is the executed transaction when Bought.
	Purchase *market.Purchase
	// Reason explains a walk-away.
	Reason string
	// Surplus is Valuation − Price for completed purchases.
	Surplus float64
}

// Strategy turns a profile into a purchase against a broker.
type Strategy interface {
	// Name identifies the strategy.
	Name() string
	// Decide executes (or declines) a purchase for the profile.
	Decide(b *market.Broker, m ml.Model, p Profile) (Decision, error)
}

// ErrorFirst implements the paper's option-2 buyer: cheapest version
// meeting TargetError, subject to the budget.
type ErrorFirst struct{}

// Name implements Strategy.
func (ErrorFirst) Name() string { return "error-first" }

// Decide implements Strategy.
func (ErrorFirst) Decide(b *market.Broker, m ml.Model, p Profile) (Decision, error) {
	menu, err := b.PriceErrorCurve(m, "")
	if err != nil {
		return Decision{}, err
	}
	// Find the cheapest row meeting the target (menu is cheapest-first).
	for _, row := range menu {
		if row.ExpectedError <= p.TargetError {
			if row.Price > p.Budget {
				return Decision{Reason: fmt.Sprintf("meeting error %g costs %g > budget %g", p.TargetError, row.Price, p.Budget)}, nil
			}
			pur, _, err := b.Buy(context.TODO(), m, market.Spec{Kind: market.ErrorBudget, Value: p.TargetError})
			if err != nil {
				return Decision{}, err
			}
			return Decision{Bought: true, Purchase: pur, Surplus: p.Valuation - pur.Price}, nil
		}
	}
	return Decision{Reason: fmt.Sprintf("no offered version reaches error %g", p.TargetError)}, nil
}

// BudgetFirst implements the paper's option-3 buyer: best accuracy the
// budget buys.
type BudgetFirst struct{}

// Name implements Strategy.
func (BudgetFirst) Name() string { return "budget-first" }

// Decide implements Strategy.
func (BudgetFirst) Decide(b *market.Broker, m ml.Model, p Profile) (Decision, error) {
	pur, _, err := b.Buy(context.TODO(), m, market.Spec{Kind: market.PriceBudget, Value: p.Budget})
	if errors.Is(err, market.ErrBudgetTooSmall) {
		return Decision{Reason: "budget below the cheapest version"}, nil
	}
	if err != nil {
		return Decision{}, err
	}
	return Decision{Bought: true, Purchase: pur, Surplus: p.Valuation - pur.Price}, nil
}

// Surplus implements the rational buyer: scan the menu for the row with
// the largest positive consumer surplus under a linear value-per-error
// model anchored at (TargetError, Valuation): rows at the target error
// are worth Valuation; more error is worth proportionally less.
type Surplus struct{}

// Name implements Strategy.
func (Surplus) Name() string { return "surplus" }

// value prices a row for the profile: full valuation at or below the
// target error, linearly discounted above it (twice the target error is
// worth nothing).
func (Surplus) value(p Profile, expectedError float64) float64 {
	if p.TargetError <= 0 || expectedError <= p.TargetError {
		return p.Valuation
	}
	f := 2 - expectedError/p.TargetError
	if f < 0 {
		f = 0
	}
	return p.Valuation * f
}

// Decide implements Strategy.
func (s Surplus) Decide(b *market.Broker, m ml.Model, p Profile) (Decision, error) {
	menu, err := b.PriceErrorCurve(m, "")
	if err != nil {
		return Decision{}, err
	}
	bestIdx, bestSurplus := -1, 0.0
	for i, row := range menu {
		if row.Price > p.Budget {
			continue
		}
		if sur := s.value(p, row.ExpectedError) - row.Price; sur > bestSurplus {
			bestIdx, bestSurplus = i, sur
		}
	}
	if bestIdx < 0 {
		return Decision{Reason: "no row offers positive surplus within budget"}, nil
	}
	pur, _, err := b.Buy(context.TODO(), m, market.Spec{Kind: market.AtPoint, Value: menu[bestIdx].Delta})
	if err != nil {
		return Decision{}, err
	}
	return Decision{Bought: true, Purchase: pur, Surplus: bestSurplus}, nil
}

// Population samples buyer profiles from a market-research instance:
// buyer i wants the version at grid point aⱼ with probability bⱼ and
// values it at vⱼ; budgets equal valuations scaled by budgetFactor.
type Population struct {
	research     *curves.Market
	menuErrors   []float64 // expected error per research grid point
	budgetFactor float64
}

// NewPopulation builds a population. menuErrors[j] must be the expected
// error of the version at research grid point aⱼ (largest a = most
// accurate); pass nil to leave TargetError at the valuation row's
// error unset and use budget-driven strategies only. budgetFactor
// scales budgets relative to valuations (1 = spend up to valuation).
func NewPopulation(research *curves.Market, menuErrors []float64, budgetFactor float64) (*Population, error) {
	if research == nil {
		return nil, errors.New("buyer: nil research")
	}
	if err := research.Validate(); err != nil {
		return nil, err
	}
	if menuErrors != nil && len(menuErrors) != len(research.A) {
		return nil, fmt.Errorf("buyer: %d menu errors for %d grid points", len(menuErrors), len(research.A))
	}
	if budgetFactor <= 0 {
		return nil, fmt.Errorf("buyer: non-positive budget factor %v", budgetFactor)
	}
	return &Population{research: research, menuErrors: menuErrors, budgetFactor: budgetFactor}, nil
}

// Sample draws n profiles.
func (p *Population) Sample(n int, r *rng.RNG) []Profile {
	cum := make([]float64, len(p.research.B))
	var acc float64
	for i, b := range p.research.B {
		acc += b
		cum[i] = acc
	}
	out := make([]Profile, n)
	for i := range out {
		u := r.Float64() * acc
		j := 0
		for j < len(cum)-1 && cum[j] < u {
			j++
		}
		out[i] = Profile{
			Name:      fmt.Sprintf("buyer-%d", i),
			Valuation: p.research.V[j],
			Budget:    p.research.V[j] * p.budgetFactor,
		}
		if p.menuErrors != nil {
			out[i].TargetError = p.menuErrors[j]
		}
	}
	return out
}

// RunSummary aggregates a simulated population run.
type RunSummary struct {
	Buyers, Sales  int
	Revenue        float64
	TotalSurplus   float64
	Affordability  float64
	WalkawayCounts map[string]int
}

// Run executes strategy s for every sampled profile and aggregates.
func Run(b *market.Broker, m ml.Model, s Strategy, profiles []Profile) (RunSummary, error) {
	sum := RunSummary{Buyers: len(profiles), WalkawayCounts: map[string]int{}}
	for _, p := range profiles {
		d, err := s.Decide(b, m, p)
		if err != nil {
			return RunSummary{}, fmt.Errorf("buyer %s: %w", p.Name, err)
		}
		if d.Bought {
			sum.Sales++
			sum.Revenue += d.Purchase.Price
			sum.TotalSurplus += d.Surplus
		} else {
			sum.WalkawayCounts[d.Reason]++
		}
	}
	if sum.Buyers > 0 {
		sum.Affordability = float64(sum.Sales) / float64(sum.Buyers)
	}
	return sum, nil
}
