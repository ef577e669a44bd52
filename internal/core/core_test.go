package core

import (
	"context"
	"testing"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/loss"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/synth"
)

func TestNewRegressionDefaults(t *testing.T) {
	mp, err := New(Config{Dataset: "CASP", Scale: 0.005, MCSamples: 40})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Model != ml.LinearRegression {
		t.Fatalf("model %v, want linear regression for regression data", mp.Model)
	}
	menu, err := mp.Broker.PriceErrorCurve(mp.Model, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(menu) != 20 {
		t.Fatalf("menu rows %d", len(menu))
	}
	c, err := mp.Broker.Curve(mp.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Certify(); err != nil {
		t.Fatalf("curve not arbitrage-free: %v", err)
	}
}

func TestNewClassificationDefaults(t *testing.T) {
	mp, err := New(Config{Dataset: "SUSY", Scale: 0.0005, Mu: 1e-3, MCSamples: 30, GridPoints: 8, XMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Model != ml.LogisticRegression {
		t.Fatalf("model %v, want logistic regression for classification data", mp.Model)
	}
	if _, _, err := mp.Broker.Buy(context.Background(), mp.Model, market.Spec{Kind: market.PriceBudget, Value: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitModel(t *testing.T) {
	mp, err := New(Config{
		Dataset: "SUSY", Scale: 0.0005, Mu: 1e-3,
		Model: ml.LinearSVM, ModelSet: true,
		MCSamples: 30, GridPoints: 8, XMax: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Model != ml.LinearSVM {
		t.Fatalf("model %v", mp.Model)
	}
}

func TestExplicitData(t *testing.T) {
	sp, err := synth.Generate("CASP", 0.005, 3)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := New(Config{Data: &sp, MCSamples: 30, GridPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Seller.Data.Train.Name != "CASP" {
		t.Fatalf("seller data %q", mp.Seller.Data.Train.Name)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Dataset: "nope"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	sp, _ := synth.Generate("CASP", 0.005, 3)
	if _, err := New(Config{Dataset: "CASP", Data: &sp}); err == nil {
		t.Fatal("both Dataset and Data accepted")
	}
	if _, err := New(Config{Dataset: "CASP", Scale: 0.005, ValueShape: curves.BimodalExtremes, DemandShape: curves.Uniform}); err == nil {
		t.Fatal("non-monotone value shape accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.002 || c.GridPoints != 20 || c.XMax != 100 || c.MaxValue != 100 ||
		c.MCSamples != 200 || c.Commission != 0.05 || c.Seed != 1 || c.Mechanism == nil {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.ValueShape != curves.Concave || c.DemandShape != curves.UnimodalMid {
		t.Fatalf("default shapes: %v/%v", c.ValueShape, c.DemandShape)
	}
}

func TestNewUntrainedHasNoOffers(t *testing.T) {
	mp, err := NewUntrained(Config{Dataset: "CASP", Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Broker.Models()) != 0 {
		t.Fatalf("untrained marketplace has offers: %v", mp.Broker.Models())
	}
}

func TestExplicitResearch(t *testing.T) {
	research, err := curves.Build(curves.Linear, curves.Uniform, 6, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := New(Config{Dataset: "CASP", Scale: 0.005, Research: research, MCSamples: 30})
	if err != nil {
		t.Fatal(err)
	}
	menu, err := mp.Broker.PriceErrorCurve(mp.Model, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(menu) != 6 {
		t.Fatalf("menu rows %d, want the supplied research's 6", len(menu))
	}
	// Invalid research rejected.
	research.B[0] += 1
	if _, err := New(Config{Dataset: "CASP", Scale: 0.005, Research: research}); err == nil {
		t.Fatal("invalid research accepted")
	}
}

func TestExtraEpsilonsPassthrough(t *testing.T) {
	mp, err := New(Config{
		Dataset: "SUSY", Scale: 0.0005, Mu: 1e-3,
		Model: ml.LogisticRegression, ModelSet: true,
		MCSamples: 30, GridPoints: 6, XMax: 12,
		ExtraEpsilons: []loss.Loss{loss.ZeroOne{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	names, err := mp.Broker.Epsilons(mp.Model)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[1] != "zero-one" {
		t.Fatalf("epsilons %v", names)
	}
}
