package experiments

import (
	"fmt"

	"github.com/datamarket/mbp/internal/buyer"
	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/rng"
)

// ExtBuyers is an extension experiment beyond the paper's evaluation:
// it simulates heterogeneous buyer populations with the three purchase
// strategies of internal/buyer against a live marketplace, sweeping how
// cash-constrained the buyers are (budget = factor × valuation). The
// paper's Section 7 lists richer buyer models as future work; this
// experiment quantifies how robust the MBP menu's revenue and
// affordability are when buyers deviate from the idealized
// "buy iff price ≤ valuation" rule the optimizer assumes.
func ExtBuyers(cfg Config) error {
	cfg = cfg.withDefaults()
	section(cfg.Out, "Extension: buyer strategy and budget sweep")

	mp, err := core.New(core.Config{
		Dataset:    "CASP",
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		MCSamples:  cfg.Samples / 4,
		GridPoints: 20,
		XMax:       100,
	})
	if err != nil {
		return err
	}
	menu, err := mp.Broker.PriceErrorCurve(mp.Model, "")
	if err != nil {
		return err
	}
	// Expected error per research grid point (menu is cheapest-first =
	// smallest a first, matching research order reversed).
	n := len(mp.Seller.Research.A)
	menuErrs := make([]float64, n)
	for i := 0; i < n; i++ {
		menuErrs[i] = menu[i].ExpectedError
	}

	strategies := []buyer.Strategy{buyer.BudgetFirst{}, buyer.ErrorFirst{}, buyer.Surplus{}}
	header := []string{"strategy", "budget-factor", "sales", "revenue", "affordability", "avg-surplus"}
	t := &table{header: header}
	var csvRows [][]string
	for _, factor := range []float64{0.5, 0.8, 1.0, 1.5} {
		pop, err := buyer.NewPopulation(mp.Seller.Research, menuErrs, factor)
		if err != nil {
			return err
		}
		profiles := pop.Sample(cfg.Buyers, rng.New(cfg.Seed+uint64(factor*100)))
		for _, s := range strategies {
			sum, err := buyer.Run(mp.Broker, mp.Model, s, profiles)
			if err != nil {
				return err
			}
			avgSurplus := 0.0
			if sum.Sales > 0 {
				avgSurplus = sum.TotalSurplus / float64(sum.Sales)
			}
			row := []string{
				s.Name(), fmt.Sprintf("%.1f", factor),
				fmt.Sprintf("%d/%d", sum.Sales, sum.Buyers),
				fmt.Sprintf("%.4g", sum.Revenue),
				fmt.Sprintf("%.3f", sum.Affordability),
				fmt.Sprintf("%.4g", avgSurplus),
			}
			t.add(row...)
			csvRows = append(csvRows, row)
		}
	}
	if err := t.write(cfg.Out); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\n(budget factor scales each buyer's budget relative to their valuation;")
	fmt.Fprintln(cfg.Out, " the MBP menu keeps selling broadly even to cash-constrained populations)")
	return writeCSV(cfg, "ext_buyers", header, csvRows)
}
