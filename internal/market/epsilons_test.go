package market

import (
	"context"
	"errors"
	"testing"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/loss"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/synth"
)

// multiEpsBroker offers logistic regression with both the logistic loss
// (default) and the 0/1 rate as buyer-selectable ϵ — the classification
// row of Table 2.
func multiEpsBroker(t testing.TB) *Broker {
	t.Helper()
	sp, err := synth.Generate("SUSY", 0.0005, 2)
	if err != nil {
		t.Fatal(err)
	}
	research, err := curves.Build(curves.Concave, curves.Uniform, 10, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(&Seller{Name: "susy", Data: sp, Research: research}, noise.Gaussian{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddModel(ml.LogisticRegression, AddModelOptions{
		Train:         ml.Options{Mu: 1e-3},
		MCSamples:     80,
		ExtraEpsilons: []loss.Loss{loss.ZeroOne{}},
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEpsilonsListing(t *testing.T) {
	b := multiEpsBroker(t)
	names, err := b.Epsilons(ml.LogisticRegression)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "logistic" || names[1] != "zero-one" {
		t.Fatalf("epsilons = %v", names)
	}
	if _, err := b.Epsilons(ml.LinearSVM); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err = %v", err)
	}
}

func TestPriceErrorCurveFor(t *testing.T) {
	b := multiEpsBroker(t)
	logisticMenu, err := b.PriceErrorCurve(ml.LogisticRegression, "logistic")
	if err != nil {
		t.Fatal(err)
	}
	zeroOneMenu, err := b.PriceErrorCurve(ml.LogisticRegression, "zero-one")
	if err != nil {
		t.Fatal(err)
	}
	if len(logisticMenu) != len(zeroOneMenu) {
		t.Fatalf("menu sizes differ: %d vs %d", len(logisticMenu), len(zeroOneMenu))
	}
	for i := range logisticMenu {
		// Same version (δ), same price — different error scale.
		if logisticMenu[i].Delta != zeroOneMenu[i].Delta || logisticMenu[i].Price != zeroOneMenu[i].Price {
			t.Fatalf("row %d: versions/prices differ across ϵ", i)
		}
		// 0/1 error is a rate in [0, 1]; logistic loss generally is not
		// equal to it.
		if zeroOneMenu[i].ExpectedError < 0 || zeroOneMenu[i].ExpectedError > 1 {
			t.Fatalf("0/1 error %v outside [0,1]", zeroOneMenu[i].ExpectedError)
		}
	}
	// Default (empty) name resolves to the default ϵ.
	def, err := b.PriceErrorCurve(ml.LogisticRegression, "")
	if err != nil {
		t.Fatal(err)
	}
	if def[0].ExpectedError != logisticMenu[0].ExpectedError {
		t.Fatal("empty name did not resolve to default")
	}
	if _, err := b.PriceErrorCurve(ml.LogisticRegression, "nope"); !errors.Is(err, ErrUnknownEpsilon) {
		t.Fatalf("err = %v", err)
	}
}

func TestBuyWithErrorBudgetFor(t *testing.T) {
	b := multiEpsBroker(t)
	menu, err := b.PriceErrorCurve(ml.LogisticRegression, "zero-one")
	if err != nil {
		t.Fatal(err)
	}
	// A budget halfway down the 0/1 scale.
	budget := (menu[0].ExpectedError + menu[len(menu)-1].ExpectedError) / 2
	p, _, err := b.Buy(context.Background(), ml.LogisticRegression, Spec{Kind: ErrorBudget, Value: budget, Epsilon: "zero-one"})
	if err != nil {
		t.Fatal(err)
	}
	// The purchase must satisfy the budget on the zero-one scale: find
	// its quoted 0/1 error via the menu (same δ grid).
	for _, row := range menu {
		if row.Delta <= p.Delta+1e-12 && row.Delta >= p.Delta-1e-12 {
			if row.ExpectedError > budget+1e-9 {
				t.Fatalf("0/1 budget violated: %v > %v", row.ExpectedError, budget)
			}
		}
	}
	// Unknown ϵ and impossible budget.
	if _, _, err := b.Buy(context.Background(), ml.LogisticRegression, Spec{Kind: ErrorBudget, Value: 0.5, Epsilon: "nope"}); !errors.Is(err, ErrUnknownEpsilon) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := b.Buy(context.Background(), ml.LogisticRegression, Spec{Kind: ErrorBudget, Value: menu[len(menu)-1].ExpectedError / 10, Epsilon: "zero-one"}); !errors.Is(err, ErrErrorBudgetTooTight) {
		t.Fatalf("err = %v", err)
	}
}

func TestAddModelRejectsBadExtras(t *testing.T) {
	sp, err := synth.Generate("SUSY", 0.0005, 2)
	if err != nil {
		t.Fatal(err)
	}
	research, err := curves.Build(curves.Concave, curves.Uniform, 6, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(&Seller{Name: "susy", Data: sp, Research: research}, noise.Gaussian{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddModel(ml.LogisticRegression, AddModelOptions{
		Train:         ml.Options{Mu: 1e-3},
		MCSamples:     20,
		ExtraEpsilons: []loss.Loss{nil},
	}); err == nil {
		t.Fatal("nil extra accepted")
	}
	if err := b.AddModel(ml.LogisticRegression, AddModelOptions{
		Train:         ml.Options{Mu: 1e-3},
		MCSamples:     20,
		ExtraEpsilons: []loss.Loss{loss.ZeroOne{}, loss.ZeroOne{}},
	}); err == nil {
		t.Fatal("duplicate extras accepted")
	}
	// An extra that duplicates the default is silently skipped.
	if err := b.AddModel(ml.LogisticRegression, AddModelOptions{
		Train:         ml.Options{Mu: 1e-3},
		MCSamples:     20,
		ExtraEpsilons: []loss.Loss{loss.Logistic{}},
	}); err != nil {
		t.Fatal(err)
	}
	names, err := b.Epsilons(ml.LogisticRegression)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("epsilons = %v", names)
	}
}

func TestMultiEpsilonSnapshotRoundTrip(t *testing.T) {
	b := multiEpsBroker(t)
	snap, err := b.SnapshotOffer(ml.LogisticRegression)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Extras) != 1 {
		t.Fatalf("snapshot extras %v", snap.Extras)
	}
	b2, err := NewBroker(b.seller, noise.Gaussian{}, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.RestoreOffer(snap); err != nil {
		t.Fatal(err)
	}
	names, err := b2.Epsilons(ml.LogisticRegression)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[1] != "zero-one" {
		t.Fatalf("restored epsilons %v", names)
	}
	m1, _ := b.PriceErrorCurve(ml.LogisticRegression, "zero-one")
	m2, _ := b2.PriceErrorCurve(ml.LogisticRegression, "zero-one")
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("restored 0/1 menu differs at %d", i)
		}
	}
}

func TestRestoreRejectsBadExtras(t *testing.T) {
	b := multiEpsBroker(t)
	snap, err := b.SnapshotOffer(ml.LogisticRegression)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBroker(b.seller, noise.Gaussian{}, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := *snap
	bad.Extras = map[string]*pricing.Transform{"nope": snap.Transform}
	if err := b2.RestoreOffer(&bad); err == nil {
		t.Fatal("unknown extra loss accepted")
	}
	bad = *snap
	bad.Extras = map[string]*pricing.Transform{"zero-one": nil}
	if err := b2.RestoreOffer(&bad); err == nil {
		t.Fatal("nil extra transform accepted")
	}
}
