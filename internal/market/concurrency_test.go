package market

import (
	"context"
	"sync"
	"testing"

	"github.com/datamarket/mbp/internal/ml"
)

// TestBrokerConcurrentBuysAndQuotes hammers one broker from parallel
// goroutines mixing all three buy options with quotes, then checks the
// ledger stayed consistent: every sale recorded, sequence numbers
// dense and unique, revenue split equal to the ledger total. Run under
// -race (the CI race job does) this also exercises the Broker mutex
// and the atomic metrics underneath.
func TestBrokerConcurrentBuysAndQuotes(t *testing.T) {
	b := testBroker(t)
	menu, err := b.PriceErrorCurve(ml.LinearRegression, "")
	if err != nil {
		t.Fatal(err)
	}
	cheap, best := menu[len(menu)-1], menu[0]

	const workers = 8
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var err error
				switch (w + i) % 3 {
				case 0:
					_, _, err = b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: cheap.Delta})
				case 1:
					_, _, err = b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: ErrorBudget, Value: cheap.ExpectedError})
				default:
					_, _, err = b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: PriceBudget, Value: best.Price})
				}
				if err != nil {
					errs <- err
					continue
				}
				if _, _, err := b.Quote(context.Background(), ml.LinearRegression, best.Delta); err != nil {
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
	if len(ledger) != workers*perWorker {
		t.Fatalf("ledger rows %d, want %d", len(ledger), workers*perWorker)
	}
	seen := make(map[int]bool, len(ledger))
	var total float64
	for _, tx := range ledger {
		if tx.Seq < 1 || tx.Seq > len(ledger) || seen[tx.Seq] {
			t.Fatalf("bad sequence number %d", tx.Seq)
		}
		seen[tx.Seq] = true
		if tx.Price <= 0 {
			t.Fatalf("non-positive price in %+v", tx)
		}
		total += tx.Price
	}
	rev := b.Revenue()
	seller, broker := rev.SellerShare, rev.BrokerShare
	if diff := total - seller - broker; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("revenue split %v+%v does not match ledger total %v", seller, broker, total)
	}
}

// TestExchangeConcurrentLookups races listing resolution against
// purchases across two listings.
func TestExchangeConcurrentLookups(t *testing.T) {
	ex := NewExchange()
	if err := ex.List("a", testBroker(t)); err != nil {
		t.Fatal(err)
	}
	if err := ex.List("b", testBroker(t)); err != nil {
		t.Fatal(err)
	}
	menu, err := mustBrokerOf(t, ex, "a").PriceErrorCurve(ml.LinearRegression, "")
	if err != nil {
		t.Fatal(err)
	}
	delta := menu[len(menu)-1].Delta

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := "a"
			if w%2 == 1 {
				name = "b"
			}
			for i := 0; i < 10; i++ {
				b, err := ex.Broker(context.Background(), name)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: delta}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	na := len(mustBrokerOf(t, ex, "a").Ledger())
	nb := len(mustBrokerOf(t, ex, "b").Ledger())
	if na != 40 || nb != 40 {
		t.Fatalf("ledgers %d/%d, want 40/40", na, nb)
	}
}

func mustBrokerOf(t *testing.T, ex *Exchange, name string) *Broker {
	t.Helper()
	b, err := ex.Broker(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
