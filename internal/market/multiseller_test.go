package market_test

// Multi-seller attribution, end to end: exact conservation under
// 64-goroutine chaos load, mid-run seller churn, durable recovery with
// bit-identical attribution tables, and the exchange-level revenue
// reconciliation. These are the acceptance properties of the v2
// attribution upgrade — every tolerance here is zero unless the figure
// being compared is itself an order-dependent float sum.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/store"
)

// conserves re-derives Σ shares + brokerShare for one ledger row.
func conserves(tx *market.Transaction) bool {
	if tx.Shares == nil && tx.BrokerShare == 0 {
		return true
	}
	sum := tx.BrokerShare
	for i := range tx.Shares {
		sum += tx.Shares[i].Amount
	}
	return sum == tx.Price
}

// TestMultiSellerChaosConservation is the acceptance property: under a
// 64-goroutine storm of concurrent purchases against a 4-seller broker
// — with a seller withdrawing mid-storm — every recorded sale satisfies
// Σ attribution + brokerShare == price EXACTLY (bitwise, zero
// tolerance), and the auditor's independent re-sum agrees with the
// running totals.
func TestMultiSellerChaosConservation(t *testing.T) {
	const sellers = 4
	b := markettest.MultiSellerBroker(t, 1, sellers)
	menu := markettest.Menu(t, b)
	cheap, best := menu[len(menu)-1], menu[0]

	const workers = 64
	const perWorker = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == workers/2 && i == perWorker/2 {
					// One seller churns out mid-storm while buys are in
					// flight; renormalization must not break exactness.
					if err := b.WithdrawSeller(fmt.Sprintf("seller-%d", sellers-1)); err != nil {
						errs <- err
						continue
					}
				}
				var err error
				if (w+i)%2 == 0 {
					_, _, err = b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: cheap.Delta})
				} else {
					_, _, err = b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.PriceBudget, Value: best.Price})
				}
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ledger := b.Ledger()
	preChurn, postChurn := 0, 0
	for i := range ledger {
		tx := &ledger[i]
		if !conserves(tx) {
			t.Fatalf("row %d does not conserve exactly: %+v", tx.Seq, tx)
		}
		switch len(tx.Shares) {
		case sellers:
			preChurn++
		case sellers - 1:
			postChurn++
		default:
			t.Fatalf("row %d has %d shares, want %d or %d", tx.Seq, len(tx.Shares), sellers, sellers-1)
		}
	}
	if preChurn == 0 || postChurn == 0 {
		t.Fatalf("churn did not land mid-run: %d pre, %d post rows", preChurn, postChurn)
	}

	rep := b.AttributionTotals()
	if rep.ExactViolations != 0 {
		t.Fatalf("%d exact conservation violations", rep.ExactViolations)
	}
	if rep.ResumMismatches != 0 {
		t.Fatalf("%d running-total vs re-sum mismatches", rep.ResumMismatches)
	}
	if rep.Rows != len(ledger) || rep.AttributedRows != len(ledger) || rep.Legacy != 0 {
		t.Fatalf("report %+v over %d fully attributed rows", rep, len(ledger))
	}
	var attributed float64
	for _, amt := range rep.Sellers {
		attributed += amt
	}
	if diff := math.Abs(attributed + rep.Broker - rep.Gross); diff > 1e-9*(1+rep.Gross) {
		t.Fatalf("aggregate drift %g: sellers %v + broker %v vs gross %v",
			diff, attributed, rep.Broker, rep.Gross)
	}

	// The revenue totals must agree with the audit's per-seller view.
	rev := b.Revenue()
	if math.Abs(rev.SellerShare-attributed) > 1e-9*(1+attributed) {
		t.Fatalf("Revenue seller share %v vs attributed %v", rev.SellerShare, attributed)
	}
	if math.Abs(rev.BrokerShare-rep.Broker) > 1e-9*(1+rep.Broker) {
		t.Fatalf("Revenue broker share %v vs report %v", rev.BrokerShare, rep.Broker)
	}
	// The withdrawn seller keeps its pre-churn accrual.
	if rep.Sellers[fmt.Sprintf("seller-%d", sellers-1)] <= 0 {
		t.Fatalf("withdrawn seller lost its accrued revenue: %v", rep.Sellers)
	}
}

func TestWithdrawSellerRenormalizes(t *testing.T) {
	b := markettest.MultiSellerBroker(t, 1, 3)
	if err := b.WithdrawSeller("nobody"); !errors.Is(err, market.ErrUnknownSeller) {
		t.Fatalf("unknown seller: %v", err)
	}
	if err := b.WithdrawSeller("seller-1"); err != nil {
		t.Fatal(err)
	}
	stakes := b.SellerStakes()
	if len(stakes) != 2 {
		t.Fatalf("stakes after withdrawal: %v", stakes)
	}
	var total float64
	for _, s := range stakes {
		if s.ID == "seller-1" {
			t.Fatalf("withdrawn seller still staked: %v", stakes)
		}
		total += s.Weight
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("stakes sum to %v after renormalization", total)
	}
	if err := b.WithdrawSeller("seller-0"); err != nil {
		t.Fatal(err)
	}
	if err := b.WithdrawSeller("seller-2"); !errors.Is(err, market.ErrLastSeller) {
		t.Fatalf("last seller withdrawal: %v", err)
	}
}

// TestMultiSellerDurableRecovery journals attributed sales (and a
// mid-run stake change) and proves recovery reproduces the attribution
// state bit for bit: same per-row tables, same per-seller totals, same
// stakes for future sales.
func TestMultiSellerDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	b := markettest.Broker(t, 1)
	d, rs, err := market.OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b.AttachDurableLedger(d, rs)
	stakes, err := markettest.MultiSellerStakes(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetSellerStakes(stakes); err != nil {
		t.Fatal(err)
	}
	menu := markettest.Menu(t, b)
	for i := 0; i < 4; i++ {
		if _, _, err := b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: menu[i%len(menu)].Delta}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.WithdrawSeller("seller-2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: menu[i%len(menu)].Delta}); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Ledger()
	wantSplits := b.Revenue().Sellers
	wantStakes := b.SellerStakes()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	b2 := markettest.Broker(t, 1)
	d2, rs2, err := market.OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if len(rs2.Stakes) != 2 {
		t.Fatalf("recovered stakes %v, want the post-withdrawal table", rs2.Stakes)
	}
	b2.AttachDurableLedger(d2, rs2)

	got := b2.Ledger()
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if g.Seq != w.Seq || math.Float64bits(g.Price) != math.Float64bits(w.Price) ||
			math.Float64bits(g.BrokerShare) != math.Float64bits(w.BrokerShare) ||
			len(g.Shares) != len(w.Shares) {
			t.Fatalf("row %d recovered as %+v, want %+v", w.Seq, g, w)
		}
		for j := range w.Shares {
			if g.Shares[j] != w.Shares[j] {
				t.Fatalf("row %d share %d recovered as %+v, want %+v", w.Seq, j, g.Shares[j], w.Shares[j])
			}
		}
		if !conserves(g) {
			t.Fatalf("recovered row %d does not conserve", g.Seq)
		}
	}

	gotSplits := b2.Revenue().Sellers
	if len(gotSplits) != len(wantSplits) {
		t.Fatalf("recovered splits %v, want %v", gotSplits, wantSplits)
	}
	for id, amt := range wantSplits {
		// Bit-identical: recovery refiles rows in journal order, the
		// same order the running totals accumulated in.
		if math.Float64bits(gotSplits[id]) != math.Float64bits(amt) {
			t.Fatalf("seller %s recovered %v, want %v", id, gotSplits[id], amt)
		}
	}
	gotStakes := b2.SellerStakes()
	if len(gotStakes) != len(wantStakes) {
		t.Fatalf("recovered stakes %v, want %v", gotStakes, wantStakes)
	}
	for i := range wantStakes {
		if gotStakes[i] != wantStakes[i] {
			t.Fatalf("stake %d recovered as %+v, want %+v", i, gotStakes[i], wantStakes[i])
		}
	}
	rep := b2.AttributionTotals()
	if rep.ExactViolations != 0 || rep.ResumMismatches != 0 {
		t.Fatalf("recovered attribution report %+v", rep)
	}

	// The recovered broker keeps selling under the recovered stakes.
	if _, _, err := b2.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: menu[0].Delta}); err != nil {
		t.Fatal(err)
	}
	last := b2.Ledger()
	if n := len(last[len(last)-1].Shares); n != 2 {
		t.Fatalf("post-recovery sale has %d shares, want 2", n)
	}
}

// TestExchangeRevenueBySellerConservation is the exchange-level
// regression: Exchange.Revenue's seller share must be the sum of its
// per-seller map, and seller plus broker share must reconcile with the
// listings' ledgers — with concurrent buys hitting both a multi-seller
// and a legacy single-seller listing.
func TestExchangeRevenueBySellerConservation(t *testing.T) {
	e := market.NewExchange()
	multi := markettest.MultiSellerBroker(t, 1, 3)
	single := markettest.Broker(t, 2)
	if err := e.List("multi", multi); err != nil {
		t.Fatal(err)
	}
	if err := e.List("single", single); err != nil {
		t.Fatal(err)
	}
	menu := markettest.Menu(t, multi)
	delta := menu[len(menu)-1].Delta

	const workers = 16
	const perWorker = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := "multi"
				if (w+i)%2 == 0 {
					name = "single"
				}
				b, err := e.Broker(context.Background(), name)
				if err == nil {
					_, _, err = b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta})
				}
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	rev := e.Revenue()
	bySeller := rev.Sellers
	var attributed float64
	for _, amt := range bySeller {
		attributed += amt
	}
	if diff := math.Abs(attributed - rev.SellerShare); diff > 1e-9*(1+rev.SellerShare) {
		t.Fatalf("Σ per-seller %v != seller share %v (diff %g, map %v)",
			attributed, rev.SellerShare, diff, bySeller)
	}
	// Every staked seller traded. The single-seller listing's stake
	// table rides in the fixture's offer snapshot (SaveOffers persists
	// it), naming the canonical CASP seller.
	for _, id := range []string{"seller-0", "seller-1", "seller-2", "CASP"} {
		if bySeller[id] <= 0 {
			t.Fatalf("seller %s earned nothing: %v", id, bySeller)
		}
	}
	gross := multiGross(multi) + multiGross(single)
	if diff := math.Abs(rev.SellerShare + rev.BrokerShare - gross); diff > 1e-9*(1+gross) {
		t.Fatalf("split %v+%v vs gross %v (diff %g)", rev.SellerShare, rev.BrokerShare, gross, diff)
	}
}

func multiGross(b *market.Broker) float64 {
	var gross float64
	for _, tx := range b.Ledger() {
		gross += tx.Price
	}
	return gross
}
