package market

import (
	"cmp"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/ml"
)

// TestLedgerViewCached: repeated reads between recordings reuse the
// cached Seq-ordered snapshot (no re-merge, no re-sort); a new row
// invalidates it.
func TestLedgerViewCached(t *testing.T) {
	var l shardedLedger
	for i := 1; i <= 3; i++ {
		seq := l.nextSeq()
		l.file(Transaction{Seq: int(seq), Price: float64(i)})
	}
	v1 := l.view()
	v2 := l.view()
	if v1 != v2 {
		t.Fatal("unchanged ledger rebuilt its snapshot")
	}
	if len(v1.txs) != 3 || viewGross(v1) != 6 {
		t.Fatalf("snapshot %+v, want 3 rows gross 6", v1)
	}
	seq := l.nextSeq()
	l.file(Transaction{Seq: int(seq), Price: 10})
	v3 := l.view()
	if v3 == v1 {
		t.Fatal("stale snapshot served after a new recording")
	}
	if len(v3.txs) != 4 || viewGross(v3) != 16 || v3.txs[3].Seq != 4 {
		t.Fatalf("rebuilt snapshot %+v, want 4 rows gross 16", v3)
	}
}

// viewGross re-sums a snapshot's prices.
func viewGross(v *ledgerView) float64 {
	var gross float64
	for i := range v.txs {
		gross += v.txs[i].Price
	}
	return gross
}

// sortedStripes is the from-scratch reference for view(): every row in
// every stripe, sorted by Seq.
func sortedStripes(l *shardedLedger) []Transaction {
	var all []Transaction
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		all = append(all, sh.txs...)
		sh.mu.Unlock()
	}
	slices.SortFunc(all, func(a, b Transaction) int { return cmp.Compare(a.Seq, b.Seq) })
	return all
}

// TestLedgerViewIncrementalMatchesFullSort: random interleavings of
// filing and reading — rows arriving in Seq order, in bursts out of
// order, and below the current maximum the way a follower diff-files
// a snapshot — must always read back exactly the from-scratch sort.
func TestLedgerViewIncrementalMatchesFullSort(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		n := 1 + r.Intn(400)
		seqs := make([]int, n)
		for i := range seqs {
			seqs[i] = i + 1
		}
		// Mostly ascending, with stretches shuffled so some rows land
		// below rows already merged into an earlier view.
		for i := 0; i < n/4; i++ {
			a, b := r.Intn(n), r.Intn(n)
			seqs[a], seqs[b] = seqs[b], seqs[a]
		}
		var l shardedLedger
		for i, seq := range seqs {
			l.file(Transaction{Seq: seq, Price: float64(seq) / 7})
			if r.Intn(5) == 0 || i == n-1 {
				v := l.view()
				want := sortedStripes(&l)
				if !reflect.DeepEqual(v.txs, want) {
					t.Fatalf("trial %d after %d rows: incremental view diverges from full sort", trial, i+1)
				}
				if v.version != uint64(i+1) {
					t.Fatalf("trial %d: view version %d, want %d", trial, v.version, i+1)
				}
			}
		}
	}
}

// TestLedgerViewConcurrentWritersReaders: readers merging while
// writers file out-of-order rows always get a Seq-ordered, duplicate-
// free snapshot holding at least the rows its version counts, and the
// final view is exactly the full sort. Run under -race in CI.
func TestLedgerViewConcurrentWritersReaders(t *testing.T) {
	const writers, perWriter = 4, 500
	var l shardedLedger
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for _, i := range r.Perm(perWriter) {
				l.file(Transaction{Seq: 1 + w + writers*i, Price: 1})
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v := l.view()
				if len(v.txs) < int(v.version) {
					t.Errorf("view at version %d holds %d rows", v.version, len(v.txs))
					return
				}
				for i := 1; i < len(v.txs); i++ {
					if v.txs[i].Seq <= v.txs[i-1].Seq {
						t.Errorf("view out of order or duplicated at %d: %d after %d", i, v.txs[i].Seq, v.txs[i-1].Seq)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	v := l.view()
	if len(v.txs) != writers*perWriter || !reflect.DeepEqual(v.txs, sortedStripes(&l)) {
		t.Fatalf("final view has %d rows or diverges from the full sort, want %d", len(v.txs), writers*perWriter)
	}
}

// TestLedgerFromMatchesLedgerSuffix: LedgerFrom(k) is Ledger()[k:]
// plus the total, clamped past the end, and returns a copy.
func TestLedgerFromMatchesLedgerSuffix(t *testing.T) {
	b := testBroker(t)
	menu, err := b.PriceErrorCurve(ml.LinearRegression, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: menu[i%len(menu)].Delta}); err != nil {
			t.Fatal(err)
		}
	}
	full := b.Ledger()
	for _, k := range []int{0, len(full) / 2, len(full), len(full) + 3} {
		rows, total := b.LedgerFrom(k)
		if total != len(full) {
			t.Fatalf("LedgerFrom(%d) total %d, want %d", k, total, len(full))
		}
		want := full[min(k, len(full)):]
		if len(rows) != len(want) || (len(rows) > 0 && !reflect.DeepEqual(rows, want)) {
			t.Fatalf("LedgerFrom(%d) = %d rows, want Ledger()[%d:] (%d rows)", k, len(rows), k, len(want))
		}
	}
	rows, _ := b.LedgerFrom(0)
	rows[0].Price = -1
	if b.Ledger()[0].Price == -1 {
		t.Fatal("LedgerFrom returned the shared snapshot, not a copy")
	}
}

// BenchmarkLedgerViewGrowing: the repricer's read pattern — a batch of
// new sales, then a view — against a ledger growing from 50k rows. The
// ledger is rebuilt every 256 batches so ns/op does not depend on b.N.
func BenchmarkLedgerViewGrowing(b *testing.B) {
	const history, batch, refill = 50000, 64, 256
	fileBatch := func(l *shardedLedger, n int) {
		for i := 0; i < n; i++ {
			l.file(Transaction{Seq: int(l.nextSeq()), Price: 1})
		}
	}
	var l *shardedLedger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%refill == 0 {
			b.StopTimer()
			l = new(shardedLedger)
			fileBatch(l, history)
			l.view()
			b.StartTimer()
		}
		fileBatch(l, batch)
		l.view()
	}
}

// TestLedgerViewOrdersAcrossStripes: rows filed out of stripe order
// still come back in Seq order.
func TestLedgerViewOrdersAcrossStripes(t *testing.T) {
	var l shardedLedger
	for _, seq := range []int{17, 2, 33, 1, 16} {
		l.file(Transaction{Seq: seq})
	}
	v := l.view()
	want := []int{1, 2, 16, 17, 33}
	for i, tx := range v.txs {
		if tx.Seq != want[i] {
			t.Fatalf("position %d has seq %d, want %d", i, tx.Seq, want[i])
		}
	}
}

// TestStampMonotonicLogicalClock: each recorded sale carries the next
// logical clock value, and the wall half comes from the injected
// clock.
func TestStampMonotonicLogicalClock(t *testing.T) {
	b := testBroker(t)
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	b.SetClock(func() time.Time { return fixed })
	menu, err := b.PriceErrorCurve(ml.LinearRegression, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: menu[0].Delta}); err != nil {
			t.Fatal(err)
		}
	}
	txs := b.Ledger()
	for i, tx := range txs {
		if tx.Stamp.Logical != uint64(i+1) {
			t.Fatalf("row %d has logical stamp %d, want %d", i, tx.Stamp.Logical, i+1)
		}
		if !tx.Stamp.Wall.Equal(fixed) {
			t.Fatalf("row %d wall stamp %v, want injected %v", i, tx.Stamp.Wall, fixed)
		}
	}
}
