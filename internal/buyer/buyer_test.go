package buyer

import (
	"strings"
	"testing"

	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/rng"
)

func testMarketplace(t testing.TB) *core.Marketplace {
	t.Helper()
	mp, err := core.New(core.Config{
		Dataset: "CASP", Scale: 0.005, Seed: 5,
		MCSamples: 60, GridPoints: 12, XMax: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func menuBounds(t testing.TB, mp *core.Marketplace) (cheapPrice, topPrice, worstErr, bestErr float64) {
	t.Helper()
	menu, err := mp.Broker.PriceErrorCurve(mp.Model, "")
	if err != nil {
		t.Fatal(err)
	}
	first, last := menu[0], menu[len(menu)-1]
	return first.Price, last.Price, first.ExpectedError, last.ExpectedError
}

func TestErrorFirstBuysWhenAffordable(t *testing.T) {
	mp := testMarketplace(t)
	_, topPrice, worstErr, bestErr := menuBounds(t, mp)
	target := (worstErr + bestErr) / 2
	d, err := ErrorFirst{}.Decide(mp.Broker, mp.Model, Profile{
		TargetError: target, Valuation: topPrice, Budget: topPrice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Bought {
		t.Fatalf("walked away: %s", d.Reason)
	}
	if d.Purchase.ExpectedError > target+1e-9 {
		t.Fatalf("error target missed: %v > %v", d.Purchase.ExpectedError, target)
	}
	if d.Surplus != topPrice-d.Purchase.Price {
		t.Fatalf("surplus %v", d.Surplus)
	}
}

func TestErrorFirstWalksAwayOverBudget(t *testing.T) {
	mp := testMarketplace(t)
	_, _, _, bestErr := menuBounds(t, mp)
	d, err := ErrorFirst{}.Decide(mp.Broker, mp.Model, Profile{
		TargetError: bestErr * 1.0001, Valuation: 1, Budget: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bought {
		t.Fatal("bought despite budget")
	}
	if !strings.Contains(d.Reason, "budget") {
		t.Fatalf("reason %q", d.Reason)
	}
}

func TestErrorFirstWalksAwayUnreachable(t *testing.T) {
	mp := testMarketplace(t)
	_, _, _, bestErr := menuBounds(t, mp)
	d, err := ErrorFirst{}.Decide(mp.Broker, mp.Model, Profile{
		TargetError: bestErr / 2, Valuation: 1000, Budget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bought {
		t.Fatal("bought an unreachable error target")
	}
}

func TestBudgetFirst(t *testing.T) {
	mp := testMarketplace(t)
	cheapPrice, topPrice, _, _ := menuBounds(t, mp)
	d, err := BudgetFirst{}.Decide(mp.Broker, mp.Model, Profile{Valuation: topPrice, Budget: (cheapPrice + topPrice) / 2})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Bought || d.Purchase.Price > (cheapPrice+topPrice)/2+1e-9 {
		t.Fatalf("decision %+v", d)
	}
	// Hopeless budget.
	d, err = BudgetFirst{}.Decide(mp.Broker, mp.Model, Profile{Budget: cheapPrice / 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bought {
		t.Fatal("bought with hopeless budget")
	}
}

func TestSurplusPicksBestRow(t *testing.T) {
	mp := testMarketplace(t)
	_, topPrice, worstErr, bestErr := menuBounds(t, mp)
	p := Profile{TargetError: (worstErr + bestErr) / 2, Valuation: topPrice * 1.5, Budget: topPrice * 2}
	d, err := Surplus{}.Decide(mp.Broker, mp.Model, p)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Bought || d.Surplus <= 0 {
		t.Fatalf("decision %+v", d)
	}
	// Verify no menu row within budget offers more surplus.
	menu, _ := mp.Broker.PriceErrorCurve(mp.Model, "")
	s := Surplus{}
	for _, row := range menu {
		if row.Price <= p.Budget {
			if sur := s.value(p, row.ExpectedError) - row.Price; sur > d.Surplus+1e-9 {
				t.Fatalf("row %+v beats chosen surplus %v", row, d.Surplus)
			}
		}
	}
}

func TestSurplusWalksAwayWhenWorthless(t *testing.T) {
	mp := testMarketplace(t)
	d, err := Surplus{}.Decide(mp.Broker, mp.Model, Profile{TargetError: 1e-9, Valuation: 0.001, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bought {
		t.Fatalf("bought with near-zero valuation: %+v", d)
	}
}

func TestSurplusValueModel(t *testing.T) {
	s := Surplus{}
	p := Profile{TargetError: 2, Valuation: 100}
	if v := s.value(p, 1); v != 100 {
		t.Fatalf("below-target value %v", v)
	}
	if v := s.value(p, 3); v != 50 {
		t.Fatalf("mid value %v", v)
	}
	if v := s.value(p, 4); v != 0 {
		t.Fatalf("double-target value %v", v)
	}
	if v := s.value(p, 40); v != 0 {
		t.Fatalf("far value %v", v)
	}
	if v := s.value(Profile{Valuation: 7}, 123); v != 7 {
		t.Fatalf("no-target value %v", v)
	}
}

func TestStrategyNames(t *testing.T) {
	if (ErrorFirst{}).Name() != "error-first" || (BudgetFirst{}).Name() != "budget-first" || (Surplus{}).Name() != "surplus" {
		t.Fatal("strategy names wrong")
	}
}

func TestPopulationSampling(t *testing.T) {
	research, err := curves.Build(curves.Concave, curves.UnimodalMid, 10, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	menuErrs := make([]float64, 10)
	for i := range menuErrs {
		menuErrs[i] = float64(10 - i) // more accurate at larger a
	}
	pop, err := NewPopulation(research, menuErrs, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	profiles := pop.Sample(500, rng.New(3))
	if len(profiles) != 500 {
		t.Fatalf("%d profiles", len(profiles))
	}
	for _, p := range profiles {
		if p.Budget != p.Valuation*0.8 {
			t.Fatalf("budget factor not applied: %+v", p)
		}
		if p.TargetError < 1 || p.TargetError > 10 {
			t.Fatalf("target error %v outside menu", p.TargetError)
		}
	}
}

func TestPopulationValidation(t *testing.T) {
	research, _ := curves.Build(curves.Linear, curves.Uniform, 5, 10, 10)
	if _, err := NewPopulation(nil, nil, 1); err == nil {
		t.Fatal("nil research accepted")
	}
	if _, err := NewPopulation(research, []float64{1}, 1); err == nil {
		t.Fatal("mismatched menu errors accepted")
	}
	if _, err := NewPopulation(research, nil, 0); err == nil {
		t.Fatal("zero budget factor accepted")
	}
	bad, _ := curves.Build(curves.Linear, curves.Uniform, 5, 10, 10)
	bad.B[0] += 1
	if _, err := NewPopulation(bad, nil, 1); err == nil {
		t.Fatal("invalid research accepted")
	}
}

func TestRunAggregates(t *testing.T) {
	mp := testMarketplace(t)
	research := mp.Seller.Research
	pop, err := NewPopulation(research, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := pop.Sample(200, rng.New(9))
	sum, err := Run(mp.Broker, mp.Model, BudgetFirst{}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Buyers != 200 || sum.Sales < 0 || sum.Sales > 200 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Affordability != float64(sum.Sales)/200 {
		t.Fatal("affordability inconsistent")
	}
	if sum.Sales > 0 && sum.Revenue <= 0 {
		t.Fatal("revenue missing")
	}
	walks := 0
	for _, c := range sum.WalkawayCounts {
		walks += c
	}
	if walks != sum.Buyers-sum.Sales {
		t.Fatalf("walkaways %d + sales %d != buyers", walks, sum.Sales)
	}
}

func TestRunSurplusNonNegative(t *testing.T) {
	mp := testMarketplace(t)
	pop, err := NewPopulation(mp.Seller.Research, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := pop.Sample(100, rng.New(4))
	sum, err := Run(mp.Broker, mp.Model, Surplus{}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalSurplus < 0 {
		t.Fatalf("negative total surplus %v under the surplus strategy", sum.TotalSurplus)
	}
}

var _ = market.ErrUnknownModel
var _ = ml.LinearRegression
