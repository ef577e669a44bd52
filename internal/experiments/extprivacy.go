package experiments

import (
	"fmt"
	"math"

	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/plot"
	"github.com/datamarket/mbp/internal/privacy"
)

// ExtPrivacy is an extension experiment for the paper's Section 2/7
// observation that Gaussian noise injection connects pricing to
// differential privacy: it annotates a live marketplace's menu with
// per-sale (ε, δ_DP) guarantees derived from the trained model's
// sensitivity bound, demonstrating that the arbitrage-free price curve
// is simultaneously a monotone privacy price list.
func ExtPrivacy(cfg Config) error {
	cfg = cfg.withDefaults()
	section(cfg.Out, "Extension: differential-privacy price list")

	const mu = 0.05
	mp, err := core.New(core.Config{
		Dataset:    "SUSY",
		Scale:      cfg.Scale,
		Model:      ml.LogisticRegression,
		ModelSet:   true,
		Mu:         mu,
		Seed:       cfg.Seed,
		MCSamples:  cfg.Samples / 4,
		GridPoints: 12,
		XMax:       12,
	})
	if err != nil {
		return err
	}
	train := mp.Seller.Data.Train

	var r2 float64
	for i := 0; i < train.N(); i++ {
		row, _ := train.Row(i)
		var s float64
		for _, v := range row {
			s += v * v
		}
		if s > r2 {
			r2 = s
		}
	}
	sens, err := privacy.LogisticSensitivity(privacy.SensitivityParams{N: train.N(), Mu: mu, R: math.Sqrt(r2)})
	if err != nil {
		return err
	}

	menu, err := mp.Broker.PriceErrorCurve(mp.Model, "")
	if err != nil {
		return err
	}
	const deltaDP = 1e-6
	header := []string{"ncp", "expected-error", "price", "epsilon", "weak"}
	t := &table{header: header}
	var csvRows [][]string
	prevEps := -1.0
	for _, row := range menu {
		curve, err := privacy.PrivacyCurve([]float64{row.Delta}, train.D(), sens, deltaDP)
		if err != nil {
			return err
		}
		eps := curve[0].Epsilon
		r := []string{
			fmt.Sprintf("%.4g", row.Delta),
			fmt.Sprintf("%.5g", row.ExpectedError),
			fmt.Sprintf("%.2f", row.Price),
			fmt.Sprintf("%.4g", eps),
			fmt.Sprintf("%v", curve[0].Weak),
		}
		t.add(r...)
		csvRows = append(csvRows, r)
		if eps < prevEps {
			return fmt.Errorf("experiments: ε not monotone along the menu")
		}
		prevEps = eps
	}
	if err := t.write(cfg.Out); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nsensitivity Δ₂ ≤ %.6g at n=%d, μ=%g, δ_DP=%.0e; ε grows with price — paying more buys more privacy loss.\n",
		sens, train.N(), mu, deltaDP)

	if cfg.SVGDir != "" {
		serie := plot.Series{Name: "ε per sale"}
		for _, row := range menu {
			curve, err := privacy.PrivacyCurve([]float64{row.Delta}, train.D(), sens, deltaDP)
			if err != nil {
				return err
			}
			serie.X = append(serie.X, row.Price)
			serie.Y = append(serie.Y, curve[0].Epsilon)
		}
		svg, err := plot.Line([]plot.Series{serie}, plot.Options{
			Title: "privacy price list — ε vs price", XLabel: "price", YLabel: "ε",
		})
		if err != nil {
			return err
		}
		if err := writeSVG(cfg, "ext_privacy_epsilon", svg); err != nil {
			return err
		}
	}
	return writeCSV(cfg, "ext_privacy", header, csvRows)
}
