package market

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/synth"
)

// testSeller builds a small regression seller with concave value and
// unimodal demand research.
func testSeller(t testing.TB) *Seller {
	t.Helper()
	sp, err := synth.Generate("CASP", 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	research, err := curves.Build(curves.Concave, curves.UnimodalMid, 20, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	return &Seller{Name: "uci-surrogate", Data: sp, Research: research}
}

func testBroker(t testing.TB) *Broker {
	t.Helper()
	b, err := NewBroker(testSeller(t), noise.Gaussian{}, 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddModel(ml.LinearRegression, AddModelOptions{MCSamples: 60}); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBrokerValidation(t *testing.T) {
	s := testSeller(t)
	if _, err := NewBroker(nil, noise.Gaussian{}, 1, 0); err == nil {
		t.Fatal("nil seller accepted")
	}
	if _, err := NewBroker(&Seller{}, noise.Gaussian{}, 1, 0); err == nil {
		t.Fatal("seller without data accepted")
	}
	if _, err := NewBroker(s, nil, 1, 0); err == nil {
		t.Fatal("nil mechanism accepted")
	}
	if _, err := NewBroker(s, noise.Gaussian{}, 1, 1); err == nil {
		t.Fatal("commission 1 accepted")
	}
	if _, err := NewBroker(s, noise.Gaussian{}, 1, -0.1); err == nil {
		t.Fatal("negative commission accepted")
	}
	bad := testSeller(t)
	bad.Research.B[0] += 1 // de-normalize
	if _, err := NewBroker(bad, noise.Gaussian{}, 1, 0); err == nil {
		t.Fatal("invalid research accepted")
	}
}

func TestAddModelAndMenu(t *testing.T) {
	b := testBroker(t)
	models := b.Models()
	if len(models) != 1 || models[0] != ml.LinearRegression {
		t.Fatalf("menu = %v", models)
	}
	if err := b.AddModel(ml.LinearRegression, AddModelOptions{}); err == nil {
		t.Fatal("duplicate model accepted")
	}
	if err := b.AddModel(ml.Model(99), AddModelOptions{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestAddModelTaskMismatch(t *testing.T) {
	b, err := NewBroker(testSeller(t), noise.Gaussian{}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddModel(ml.LogisticRegression, AddModelOptions{}); err == nil {
		t.Fatal("classification model on regression data accepted")
	}
}

func TestPriceErrorCurveShape(t *testing.T) {
	b := testBroker(t)
	menu, err := b.PriceErrorCurve(ml.LinearRegression, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(menu) != 20 {
		t.Fatalf("menu rows %d, want 20", len(menu))
	}
	for i := 1; i < len(menu); i++ {
		// Accuracy improves down the menu: error non-increasing, price
		// non-decreasing.
		if menu[i].ExpectedError > menu[i-1].ExpectedError+1e-9 {
			t.Fatalf("menu error not monotone at %d", i)
		}
		if menu[i].Price < menu[i-1].Price-1e-9 {
			t.Fatalf("menu price not monotone at %d", i)
		}
	}
	if _, err := b.PriceErrorCurve(ml.LinearSVM, ""); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublishedCurveIsArbitrageFree(t *testing.T) {
	b := testBroker(t)
	c, err := b.Curve(ml.LinearRegression)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Certify(); err != nil {
		t.Fatalf("published curve not certified: %v", err)
	}
}

func TestBuyAtPoint(t *testing.T) {
	b := testBroker(t)
	p, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: 1.0 / 25})
	if err != nil {
		t.Fatal(err)
	}
	if p.Instance == nil || p.Instance.Optimal {
		t.Fatal("buyer received the raw optimal instance")
	}
	if p.Price < 0 || p.ExpectedError < 0 {
		t.Fatalf("bad purchase %+v", p)
	}
	// Out-of-range deltas rejected.
	if _, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: 1e6}); err == nil {
		t.Fatal("huge delta accepted")
	}
	if _, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: 1e-9}); err == nil {
		t.Fatal("tiny delta accepted")
	}
	if _, _, err := b.Buy(context.Background(), ml.LinearSVM, Spec{Kind: AtPoint, Value: 1}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err = %v", err)
	}
}

func TestBuyerNeverGetsOptimalWeights(t *testing.T) {
	b := testBroker(t)
	opt, err := b.Optimal(ml.LinearRegression)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range p.Instance.W {
		if p.Instance.W[i] != opt.W[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("sold instance identical to the optimum despite δ>0")
	}
}

func TestBuyWithErrorBudget(t *testing.T) {
	b := testBroker(t)
	menu, _ := b.PriceErrorCurve(ml.LinearRegression, "")
	// Pick a budget between the menu's extremes.
	budget := (menu[0].ExpectedError + menu[len(menu)-1].ExpectedError) / 2
	p, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: ErrorBudget, Value: budget})
	if err != nil {
		t.Fatal(err)
	}
	if p.ExpectedError > budget+1e-9 {
		t.Fatalf("expected error %v exceeds budget %v", p.ExpectedError, budget)
	}
	// Any strictly cheaper offered row must violate the budget.
	for _, row := range menu {
		if row.Price < p.Price-1e-9 && row.ExpectedError <= budget+1e-9 {
			t.Fatalf("cheaper row %+v also meets the budget", row)
		}
	}
	// Impossible budget.
	if _, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: ErrorBudget, Value: menu[len(menu)-1].ExpectedError / 2}); !errors.Is(err, ErrErrorBudgetTooTight) {
		t.Fatalf("err = %v", err)
	}
}

func TestBuyWithPriceBudget(t *testing.T) {
	b := testBroker(t)
	menu, _ := b.PriceErrorCurve(ml.LinearRegression, "")
	maxPrice := menu[len(menu)-1].Price
	p, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: PriceBudget, Value: maxPrice / 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Price > maxPrice/2+1e-9 {
		t.Fatalf("price %v exceeds budget %v", p.Price, maxPrice/2)
	}
	// Any offered row within budget must not beat the purchase's error.
	for _, row := range menu {
		if row.Price <= maxPrice/2+1e-9 && row.ExpectedError < p.ExpectedError-1e-6 {
			t.Fatalf("row %+v within budget beats purchase %+v", row, p)
		}
	}
	// A budget at/above the maximum buys the most accurate version.
	p, _, err = b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: PriceBudget, Value: maxPrice * 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.ExpectedError-menu[len(menu)-1].ExpectedError) > 1e-6 {
		t.Fatalf("rich buyer got error %v, want best %v", p.ExpectedError, menu[len(menu)-1].ExpectedError)
	}
	// A budget below the cheapest version errors.
	cheapest := menu[0].Price
	if cheapest > 0 {
		if _, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: PriceBudget, Value: cheapest / 1e6}); !errors.Is(err, ErrBudgetTooSmall) {
			t.Fatalf("err = %v", err)
		}
	}
}

func TestLedgerAndRevenueSplit(t *testing.T) {
	b := testBroker(t)
	var total float64
	for i := 0; i < 5; i++ {
		p, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: 1.0 / (float64(i)*10 + 2.5)})
		if err != nil {
			t.Fatal(err)
		}
		total += p.Price
	}
	ledger := b.Ledger()
	if len(ledger) != 5 {
		t.Fatalf("ledger has %d rows", len(ledger))
	}
	for i, tx := range ledger {
		if tx.Seq != i+1 {
			t.Fatalf("seq %d at row %d", tx.Seq, i)
		}
	}
	rev := b.Revenue()
	seller, broker := rev.SellerShare, rev.BrokerShare
	if math.Abs(seller+broker-total) > 1e-9 {
		t.Fatalf("split %v+%v != %v", seller, broker, total)
	}
	if math.Abs(broker-0.1*total) > 1e-9 {
		t.Fatalf("broker share %v, want 10%% of %v", broker, total)
	}
}

func TestSimulateBuyers(t *testing.T) {
	b := testBroker(t)
	sum, err := b.SimulateBuyers(ml.LinearRegression, 500, 99)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Buyers != 500 {
		t.Fatalf("buyers %d", sum.Buyers)
	}
	if sum.Sales < 0 || sum.Sales > 500 {
		t.Fatalf("sales %d", sum.Sales)
	}
	if math.Abs(sum.Affordability-float64(sum.Sales)/500) > 1e-12 {
		t.Fatalf("affordability inconsistent: %+v", sum)
	}
	// The DP sells to a substantial fraction under concave value +
	// unimodal demand.
	if sum.Affordability < 0.3 {
		t.Fatalf("affordability %v suspiciously low", sum.Affordability)
	}
	if len(b.Ledger()) != sum.Sales {
		t.Fatalf("ledger %d rows, want %d", len(b.Ledger()), sum.Sales)
	}
	if _, err := b.SimulateBuyers(ml.LinearRegression, 0, 1); err == nil {
		t.Fatal("zero buyers accepted")
	}
	if _, err := b.SimulateBuyers(ml.LinearSVM, 10, 1); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentPurchases(t *testing.T) {
	b := testBroker(t)
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: 0.1}); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(b.Ledger()) != 40 {
		t.Fatalf("ledger %d rows, want 40", len(b.Ledger()))
	}
}

func TestClassificationMarket(t *testing.T) {
	sp, err := synth.Generate("SUSY", 0.0005, 2)
	if err != nil {
		t.Fatal(err)
	}
	research, err := curves.Build(curves.Sigmoid, curves.Uniform, 10, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(&Seller{Name: "susy", Data: sp, Research: research}, noise.Gaussian{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddModel(ml.LogisticRegression, AddModelOptions{
		Train:     ml.Options{Mu: 1e-3},
		MCSamples: 40,
	}); err != nil {
		t.Fatal(err)
	}
	p, _, err := b.Buy(context.Background(), ml.LogisticRegression, Spec{Kind: PriceBudget, Value: 25})
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != ml.LogisticRegression {
		t.Fatalf("model %v", p.Model)
	}
}

func BenchmarkBuyAtPoint(b *testing.B) {
	br := testBroker(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := br.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = noise.SquaredError

func TestAnalyticTransformMatchesEmpiricalMenu(t *testing.T) {
	s := testSeller(t)
	fast, err := NewBroker(s, noise.Gaussian{}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.AddModel(ml.LinearRegression, AddModelOptions{}); err != nil {
		t.Fatal(err)
	}
	slow, err := NewBroker(s, noise.Gaussian{}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.AddModel(ml.LinearRegression, AddModelOptions{ForceEmpirical: true, MCSamples: 3000}); err != nil {
		t.Fatal(err)
	}
	mf, _ := fast.PriceErrorCurve(ml.LinearRegression, "")
	ms, _ := slow.PriceErrorCurve(ml.LinearRegression, "")
	for i := range mf {
		rel := math.Abs(mf[i].ExpectedError-ms[i].ExpectedError) / (1 + mf[i].ExpectedError)
		if rel > 0.02 {
			t.Fatalf("row %d: analytic %v vs empirical %v", i, mf[i].ExpectedError, ms[i].ExpectedError)
		}
	}
}

func TestQuoteMatchesSale(t *testing.T) {
	b := testBroker(t)
	price, expErr, err := b.Quote(context.Background(), ml.LinearRegression, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	before := len(b.Ledger())
	p, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Price != price || p.ExpectedError != expErr {
		t.Fatalf("quote (%v,%v) vs sale (%v,%v)", price, expErr, p.Price, p.ExpectedError)
	}
	if len(b.Ledger()) != before+1 {
		t.Fatal("sale not recorded")
	}
	// Quoting never touches the ledger.
	if _, _, err := b.Quote(context.Background(), ml.LinearRegression, 0.1); err != nil {
		t.Fatal(err)
	}
	if len(b.Ledger()) != before+1 {
		t.Fatal("quote recorded a transaction")
	}
	if _, _, err := b.Quote(context.Background(), ml.LinearRegression, 1e6); err == nil {
		t.Fatal("out-of-range quote accepted")
	}
	if _, _, err := b.Quote(context.Background(), ml.LinearSVM, 0.1); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err = %v", err)
	}
}
