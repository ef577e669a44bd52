package market_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/rng"
)

// midDelta returns a δ from the middle of the fixture's offered range.
func midDelta(t *testing.T, b *market.Broker) float64 {
	t.Helper()
	menu := markettest.Menu(t, b)
	return menu[len(menu)/2].Delta
}

func TestBuyIdempotentReplaysOriginalPurchase(t *testing.T) {
	b := markettest.Broker(t, 1)
	delta := midDelta(t, b)
	ctx := context.Background()
	buy := func(key string) (*market.Purchase, bool, error) {
		return b.Buy(ctx, markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta, Key: key})
	}

	first, replayed, err := buy("key-1")
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("first buy reported replayed")
	}
	second, replayed, err := buy("key-1")
	if err != nil {
		t.Fatal(err)
	}
	if !replayed {
		t.Fatal("second buy with the same key was not replayed")
	}
	if second.Seq != first.Seq || second.Price != first.Price || second.Delta != first.Delta {
		t.Fatalf("replayed purchase differs: %+v vs %+v", second, first)
	}
	for i, w := range first.Instance.W {
		if second.Instance.W[i] != w {
			t.Fatalf("replayed weights differ at %d", i)
		}
	}
	if txs := b.Ledger(); len(txs) != 1 {
		t.Fatalf("ledger has %d rows, want 1 (no double charge)", len(txs))
	}

	// A different key is a genuinely new purchase.
	third, replayed, err := buy("key-2")
	if err != nil {
		t.Fatal(err)
	}
	if replayed || third.Seq == first.Seq {
		t.Fatalf("distinct key replayed (replayed=%v, seq %d vs %d)", replayed, third.Seq, first.Seq)
	}
	// And an empty key opts out of idempotency entirely.
	fourth, replayed, err := buy("")
	if err != nil {
		t.Fatal(err)
	}
	if replayed || fourth.Seq == third.Seq {
		t.Fatal("empty key must always execute a fresh sale")
	}
	if txs := b.Ledger(); len(txs) != 3 {
		t.Fatalf("ledger has %d rows, want 3", len(txs))
	}
}

func TestBuyIdempotentCoalescesConcurrentRetries(t *testing.T) {
	b := markettest.Broker(t, 1)
	delta := midDelta(t, b)
	const goroutines = 16

	seqs := make([]int, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := b.Buy(context.Background(), markettest.Model,
				market.Spec{Kind: market.AtPoint, Value: delta, Key: "contended-key"})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			seqs[i] = p.Seq
		}(i)
	}
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if seqs[i] != seqs[0] {
			t.Fatalf("goroutine %d got seq %d, goroutine 0 got %d", i, seqs[i], seqs[0])
		}
	}
	if txs := b.Ledger(); len(txs) != 1 {
		t.Fatalf("ledger has %d rows after %d concurrent same-key buys, want 1", len(txs), goroutines)
	}
}

func TestBuyIdempotentDoesNotReplayFailures(t *testing.T) {
	b := markettest.Broker(t, 1)
	spec := market.Spec{Kind: market.AtPoint, Value: midDelta(t, b), Key: "k"}
	// The first attempt fails transiently: its caller already hung up.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Buy(canceled, markettest.Model, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want %v", err, context.Canceled)
	}
	p, replayed, err := b.Buy(context.Background(), markettest.Model, spec)
	if err != nil || replayed || p == nil {
		t.Fatalf("retry after failure = (%v, %v, %v), want fresh success", p, replayed, err)
	}
}

func TestBuyCanceledBeforeStartLeavesNoTrace(t *testing.T) {
	b := markettest.Broker(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Buy(ctx, markettest.Model, market.Spec{Kind: market.AtPoint, Value: midDelta(t, b)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, err := b.Quote(ctx, markettest.Model, midDelta(t, b)); !errors.Is(err, context.Canceled) {
		t.Fatalf("quote err = %v, want context.Canceled", err)
	}
	if txs := b.Ledger(); len(txs) != 0 {
		t.Fatalf("ledger has %d rows after canceled buy, want 0", len(txs))
	}
	if rev := b.Revenue(); rev.SellerShare != 0 || rev.BrokerShare != 0 {
		t.Fatalf("revenue = (%v, %v) after canceled buy, want (0, 0)", rev.SellerShare, rev.BrokerShare)
	}
}

// cancelingMechanism cancels the purchase's context from inside the
// noise draw — the "client hung up mid-Perturb" failure mode. It then
// delegates to the real mechanism, so the test exercises the broker's
// post-draw cancellation check, not a mechanism failure.
type cancelingMechanism struct {
	inner  noise.Mechanism
	cancel func()
}

func (c *cancelingMechanism) Name() string { return c.inner.Name() }
func (c *cancelingMechanism) Perturb(optimal *ml.Instance, delta float64, r *rng.RNG) *ml.Instance {
	c.cancel()
	return c.inner.Perturb(optimal, delta, r)
}
func (c *cancelingMechanism) TotalVariance(delta float64, d int) float64 {
	return c.inner.TotalVariance(delta, d)
}

func TestBuyCanceledMidPerturbLeavesLedgerUntouched(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	mech := &cancelingMechanism{inner: noise.Gaussian{}, cancel: cancel}
	b := markettest.BrokerWith(t, 1, mech)
	delta := midDelta(t, b)

	if _, _, err := b.Buy(ctx, markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if txs := b.Ledger(); len(txs) != 0 {
		t.Fatalf("ledger has %d rows after mid-Perturb cancel, want 0 (no partial charge)", len(txs))
	}
	if rev := b.Revenue(); rev.SellerShare != 0 || rev.BrokerShare != 0 {
		t.Fatalf("revenue = (%v, %v), want (0, 0)", rev.SellerShare, rev.BrokerShare)
	}

	// The abandoned sale's sequence number was released: the next
	// successful purchase starts the ledger at seq 1, keeping it
	// contiguous.
	mech.cancel = func() {}
	p, _, err := b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta})
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 1 {
		t.Fatalf("first successful sale has seq %d, want 1 (canceled sale's seq released)", p.Seq)
	}
	txs := b.Ledger()
	if len(txs) != 1 || txs[0].Seq != 1 {
		t.Fatalf("ledger = %+v, want exactly seq 1", txs)
	}
}

func TestLedgerSeqsContiguousAfterInterleavedCancellations(t *testing.T) {
	ctx := context.Background()
	canceled := context.Background()
	{
		c, cancel := context.WithCancel(context.Background())
		cancel()
		canceled = c
	}
	b := markettest.Broker(t, 1)
	delta := midDelta(t, b)
	bought := 0
	for i := 0; i < 10; i++ {
		use := ctx
		if i%3 == 0 {
			use = canceled
		}
		p, _, err := b.Buy(use, markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta})
		if use == canceled {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("buy %d: err = %v, want Canceled", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("buy %d: %v", i, err)
		}
		bought++
		if p.Seq != bought {
			t.Fatalf("buy %d: seq %d, want %d (contiguous despite cancellations)", i, p.Seq, bought)
		}
	}
	txs := b.Ledger()
	if len(txs) != bought {
		t.Fatalf("ledger has %d rows, want %d", len(txs), bought)
	}
	for i, tx := range txs {
		if tx.Seq != i+1 {
			t.Fatalf("ledger row %d has seq %d, want %d", i, tx.Seq, i+1)
		}
	}
}

func TestReplayCacheConstants(t *testing.T) {
	// The replay window must comfortably outlast a client retry
	// schedule (seconds) without being unbounded.
	if market.ReplayCapacity < 1024 || market.ReplayTTL < time.Minute {
		t.Fatalf("replay bounds too tight: capacity=%d ttl=%v", market.ReplayCapacity, market.ReplayTTL)
	}
}

// TestBuyRejectsNonFiniteSpec: a NaN or infinite Spec.Value names no
// version under any option. Buy must refuse it with ErrInvalidSpec —
// not sell at some δ, and not pass it off as an economic no-sale —
// and charge nothing.
func TestBuyRejectsNonFiniteSpec(t *testing.T) {
	b := markettest.Broker(t, 1)
	for _, kind := range []market.Kind{market.AtPoint, market.ErrorBudget, market.PriceBudget} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, key := range []string{"", "k"} {
				spec := market.Spec{Kind: kind, Value: v, Key: key}
				p, _, err := b.Buy(context.Background(), markettest.Model, spec)
				if !errors.Is(err, market.ErrInvalidSpec) || p != nil {
					t.Errorf("Buy(%+v) = (%v, %v), want ErrInvalidSpec", spec, p, err)
				}
			}
		}
	}
	if _, _, err := b.Buy(context.Background(), markettest.Model, market.Spec{Kind: -1, Value: 0.1}); !errors.Is(err, market.ErrInvalidSpec) {
		t.Errorf("unknown kind: err = %v, want ErrInvalidSpec", err)
	}
	if txs := b.Ledger(); len(txs) != 0 {
		t.Fatalf("ledger has %d rows after invalid specs, want 0", len(txs))
	}
}

// TestBuyWaitsOnAckBarrier pins the quorum-ack contract at the market
// level: under a failing acknowledgement barrier both keyless and keyed
// buys report ErrReplicationLag while their sales stay on the ledger,
// and once the barrier heals a keyed retry replays the original Seq
// instead of charging again.
func TestBuyWaitsOnAckBarrier(t *testing.T) {
	b := markettest.Broker(t, 1)
	ctx := context.Background()
	var healed atomic.Bool
	b.SetAckBarrier(func(context.Context) error {
		if healed.Load() {
			return nil
		}
		return errors.New("partitioned")
	})

	spec := market.Spec{Kind: market.AtPoint, Value: midDelta(t, b)}
	if _, _, err := b.Buy(ctx, markettest.Model, spec); !errors.Is(err, market.ErrReplicationLag) {
		t.Fatalf("keyless buy: err = %v, want ErrReplicationLag", err)
	}
	spec.Key = "lagging"
	if _, _, err := b.Buy(ctx, markettest.Model, spec); !errors.Is(err, market.ErrReplicationLag) {
		t.Fatalf("keyed buy: err = %v, want ErrReplicationLag", err)
	}
	txs := b.Ledger()
	if len(txs) != 2 {
		t.Fatalf("ledger has %d rows, want 2: a lagging quorum does not roll sales back", len(txs))
	}

	healed.Store(true)
	p, replayed, err := b.Buy(ctx, markettest.Model, spec)
	if err != nil || !replayed {
		t.Fatalf("retry after heal = (replayed %v, %v), want a replay", replayed, err)
	}
	if p.Seq != txs[1].Seq {
		t.Fatalf("retry got seq %d, want the original %d", p.Seq, txs[1].Seq)
	}
	if n := len(b.Ledger()); n != 2 {
		t.Fatalf("ledger has %d rows after the retry, want 2", n)
	}
}
