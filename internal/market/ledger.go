package market

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stamp orders a ledger row in time two ways: Logical is the broker's
// monotonic logical clock (total order over recorded sales, gap-free
// even when wall clocks jump), and Wall is the wall-clock instant the
// sale was recorded, for correlating WAL rows with /debug/traces and
// the access log. Determinism tests compare Seq/price/weights and
// ignore Wall; the clock behind it is injectable via Broker.SetClock.
type Stamp struct {
	// Logical is the broker-local logical clock value, 1-based.
	Logical uint64 `json:"logical"`
	// Wall is the recording wall-clock time.
	Wall time.Time `json:"wall"`
}

// Ledger is the broker's transaction log. Two implementations exist:
// the in-memory shardedLedger (the default, state dies with the
// process) and the write-through DurableLedger, which journals every
// transaction — and every permanently skipped sequence number — to a
// store.Store WAL before acknowledging the sale.
//
// The methods are unexported on purpose: the interface shapes the
// broker's internals and is not a public extension point.
type Ledger interface {
	// nextSeq allocates the next 1-based sequence number.
	nextSeq() uint64
	// releaseSeq hands back an allocated sequence number whose sale
	// was abandoned before recording. It reports whether the number
	// was reclaimed; a durable implementation journals the skip when
	// reclaim fails, so recovery can tell a canceled sale from a lost
	// row.
	releaseSeq(seq uint64) bool
	// record files tx. A durable implementation journals it (and rep,
	// the idempotency entry that must live or die with it) before the
	// in-memory ledger sees it, and an error means the sale must not
	// be acknowledged.
	record(ctx context.Context, tx Transaction, rep *pendingReplay) error
	// view returns the current Seq-ordered snapshot. The returned
	// value is shared and immutable — callers must not mutate it.
	view() *ledgerView
	// totals reports the row count and two gross figures maintained by
	// independent code paths: a re-sum over the stored rows themselves
	// vs. the running per-stripe totals accumulated at append time.
	// Comparing them is the conservation audit. Both figures for a
	// stripe are read under that stripe's lock, so the pair stays
	// comparable even while sales land mid-call — and the call must stay
	// cheap (no snapshot build) because the auditor issues it on a tight
	// cadence against the live broker.
	totals() (rows int, gross, stripeGross float64)
	// grossRevenue returns the running stripe-accumulated gross — O(1)
	// per stripe, no row walk. This is the figure the revenue-split
	// readers and the /metrics snapshot poll; totals() re-derives it
	// from the rows so the auditor can cross-check the accumulation.
	grossRevenue() float64
	// splitTotals returns the running attribution totals accumulated at
	// append time: cumulative attributed revenue per seller, the
	// broker's cumulative commission, and the gross of legacy rows that
	// carry no attribution table (recorded before the v2 upgrade).
	// Like grossRevenue it is O(sellers) per stripe, no row walk.
	splitTotals() (bySeller map[string]float64, broker, legacy float64)
	// attributionTotals re-derives the per-seller totals from the rows
	// themselves and cross-checks them against the running figures —
	// the attribution half of the conservation audit (see
	// AttributionReport). Each stripe is scanned in place under its
	// lock, no snapshot build.
	attributionTotals() AttributionReport
}

// pendingReplay carries the idempotency entry recorded atomically with
// its transaction: journaling key and purchase in the same WAL frame
// means a crash can never persist the charge but forget the key (a
// double-charge on retry) or vice versa.
type pendingReplay struct {
	key string
	p   *Purchase
}

// ledgerView is an immutable ledger snapshot: the transactions in Seq
// order, tagged with the record count it was built at so repeated
// readers can reuse it, and with how many rows of each stripe it holds
// so the next build merges in only the rows filed since.
type ledgerView struct {
	version uint64
	txs     []Transaction
	marks   [ledgerShardCount]int
}

// ledgerShardCount is the number of independent ledger stripes. Sales
// contend only on the stripe their sequence number hashes to, so up to
// this many appends proceed in parallel; a power of two keeps the
// modulo a mask.
const ledgerShardCount = 16

// shardedLedger records transactions with one atomic sequence counter
// and per-shard mutexes. Allocating a sequence number is a single
// atomic add; filing the row locks only its stripe. Readers merge the
// stripes back into Seq order on demand — the write-heavy purchase path
// pays O(1), and view() sorts only the rows recorded since the cached
// snapshot and merges them in, so a reader pays for new rows, not for
// history. The cache is keyed by the recorded-row count: repeated
// /metrics or Ledger() polls between sales are O(1) pointer loads.
type shardedLedger struct {
	seq atomic.Uint64
	// recorded counts fully filed rows; it is the cache version, bumped
	// only after the row is visible in its stripe.
	recorded atomic.Uint64
	cache    atomic.Pointer[ledgerView]
	shards   [ledgerShardCount]ledgerShard
}

// ledgerShard is one stripe, padded out to its own cache line so the
// stripe locks do not false-share.
type ledgerShard struct {
	mu    sync.Mutex
	txs   []Transaction
	total float64
	// Attribution running totals, accumulated at append time in row
	// order (the same order attributionTotals re-sums in, so the audit
	// comparison is bitwise, not tolerance-based): attributed revenue
	// per seller, the broker's commission, and the gross of legacy rows
	// with no attribution table.
	bySeller map[string]float64
	broker   float64
	legacy   float64
	_        [24]byte
}

// nextSeq allocates the next 1-based sequence number. The number is
// both the row's ledger position and the id of the RNG stream that
// draws the sale's noise (see Broker.sell).
func (l *shardedLedger) nextSeq() uint64 {
	return l.seq.Add(1)
}

// releaseSeq hands back an allocated sequence number whose sale was
// abandoned before recording (e.g. the buyer's context expired during
// the noise draw). It succeeds only while seq is still the newest
// allocation — a single CAS — so a canceled sale in a quiet moment
// leaves no gap, and under concurrent traffic the number is simply
// skipped (reported false) rather than ever reused for a second sale.
func (l *shardedLedger) releaseSeq(seq uint64) bool {
	return l.seq.CompareAndSwap(seq, seq-1)
}

// record implements Ledger: purely in-memory, it cannot fail.
func (l *shardedLedger) record(_ context.Context, tx Transaction, _ *pendingReplay) error {
	l.file(tx)
	return nil
}

// file places a transaction under its sequence number's stripe and
// bumps the cache version once the row is visible there.
func (l *shardedLedger) file(tx Transaction) {
	sh := &l.shards[uint64(tx.Seq)%ledgerShardCount]
	sh.mu.Lock()
	sh.txs = append(sh.txs, tx)
	sh.total += tx.Price
	sh.fileSplitLocked(&tx)
	sh.mu.Unlock()
	l.recorded.Add(1)
}

// fileSplitLocked folds one row's attribution table into the stripe's
// running totals. Callers hold the stripe lock.
func (sh *ledgerShard) fileSplitLocked(tx *Transaction) {
	if tx.Shares == nil && tx.BrokerShare == 0 {
		sh.legacy += tx.Price
		return
	}
	if sh.bySeller == nil {
		sh.bySeller = make(map[string]float64)
	}
	for i := range tx.Shares {
		sh.bySeller[tx.Shares[i].SellerID] += tx.Shares[i].Amount
	}
	sh.broker += tx.BrokerShare
}

// view returns the Seq-ordered snapshot, rebuilding it only when rows
// were recorded since the cached one. A rebuild never re-reads history:
// it takes each stripe's rows past the cached view's mark, sorts just
// those by Seq, and merges them into the cached rows. Stripes are
// append-only, so rows filed out of Seq order (concurrent sales, a
// follower diff-filing a snapshot) land in their place without being
// duplicated or dropped. The version is read before the stripes, so a
// concurrent writer can at worst make the snapshot carry a few extra
// fully-filed rows under a stale version — the next read notices the
// version moved and merges on; readers never see a missing row for a
// version they observed.
func (l *shardedLedger) view() *ledgerView {
	version := l.recorded.Load()
	prev := l.cache.Load()
	if prev != nil && prev.version == version {
		return prev
	}
	next := &ledgerView{version: version}
	var old []Transaction
	if prev != nil {
		old, next.marks = prev.txs, prev.marks
	}
	fresh := make([]Transaction, 0, max(int(version)-len(old), 0))
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		fresh = append(fresh, sh.txs[next.marks[i]:]...)
		next.marks[i] = len(sh.txs)
		sh.mu.Unlock()
	}
	slices.SortFunc(fresh, func(a, b Transaction) int { return cmp.Compare(a.Seq, b.Seq) })
	next.txs = mergeSeq(old, fresh)
	// A losing racer built from the same prev; its view is just as
	// valid, so it is returned but not cached over the winner's.
	l.cache.CompareAndSwap(prev, next)
	return next
}

// mergeSeq merges two Seq-ordered row sets into a new exact-sized
// slice. old is shared with an immutable view and is only read; when
// fresh is empty it is returned as is.
func mergeSeq(old, fresh []Transaction) []Transaction {
	if len(fresh) == 0 {
		return old
	}
	out := make([]Transaction, 0, len(old)+len(fresh))
	// New rows almost always follow every old one: copy the old rows
	// that precede the first new one in bulk, then merge the rest.
	i := sort.Search(len(old), func(k int) bool { return old[k].Seq > fresh[0].Seq })
	out = append(out, old[:i]...)
	old = old[i:]
	for len(old) > 0 && len(fresh) > 0 {
		if fresh[0].Seq < old[0].Seq {
			out, fresh = append(out, fresh[0]), fresh[1:]
		} else {
			out, old = append(out, old[0]), old[1:]
		}
	}
	out = append(out, old...)
	return append(out, fresh...)
}

// count returns the number of recorded transactions.
func (l *shardedLedger) count() int {
	return int(l.recorded.Load())
}

// totals implements Ledger. It deliberately bypasses view(): every
// rebuild allocates a fresh n-row snapshot, and the cache never helps a
// live market (every recorded sale bumps the version), so an auditor
// polling totals through view() would copy the world every sweep.
// Instead each stripe is scanned in place under its lock — the gross
// re-sum walks the raw rows in append order, the stripe figure reads
// the running total, and because both come from the same locked read
// they can only disagree if the append-time accounting itself is
// broken.
func (l *shardedLedger) totals() (int, float64, float64) {
	var rows int
	var gross, stripeGross float64
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		rows += len(sh.txs)
		for j := range sh.txs {
			gross += sh.txs[j].Price
		}
		stripeGross += sh.total
		sh.mu.Unlock()
	}
	return rows, gross, stripeGross
}

// grossRevenue returns the sum of recorded prices across stripes.
func (l *shardedLedger) grossRevenue() float64 {
	var total float64
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		total += sh.total
		sh.mu.Unlock()
	}
	return total
}

// splitTotals implements Ledger: the running attribution totals, read
// per stripe under its lock — no row walk.
func (l *shardedLedger) splitTotals() (map[string]float64, float64, float64) {
	bySeller := make(map[string]float64)
	var broker, legacy float64
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for id, amt := range sh.bySeller {
			bySeller[id] += amt
		}
		broker += sh.broker
		legacy += sh.legacy
		sh.mu.Unlock()
	}
	return bySeller, broker, legacy
}

// attributionTotals implements Ledger. Like totals() it bypasses the
// view cache and scans each stripe in place under its lock: the rows
// are re-summed in append order — the exact order the running totals
// accumulated in — so a healthy ledger's running and re-summed figures
// agree bitwise, and any difference at all is an accounting bug, not
// float noise. Per-row conservation (Σ shares + broker == price) is
// checked with zero tolerance; the quantized split guarantees it
// exactly.
func (l *shardedLedger) attributionTotals() AttributionReport {
	rep := AttributionReport{Sellers: make(map[string]float64)}
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		resum := make(map[string]float64, len(sh.bySeller))
		var resumBroker, resumLegacy float64
		for j := range sh.txs {
			tx := &sh.txs[j]
			rep.Rows++
			rep.Gross += tx.Price
			if !conservesExactly(tx) {
				rep.ExactViolations++
			}
			if tx.Shares == nil && tx.BrokerShare == 0 {
				resumLegacy += tx.Price
				continue
			}
			rep.AttributedRows++
			for k := range tx.Shares {
				resum[tx.Shares[k].SellerID] += tx.Shares[k].Amount
			}
			resumBroker += tx.BrokerShare
		}
		if resumBroker != sh.broker {
			rep.ResumMismatches++
		}
		if resumLegacy != sh.legacy {
			rep.ResumMismatches++
		}
		if len(resum) != len(sh.bySeller) {
			rep.ResumMismatches++
		} else {
			for id, amt := range resum {
				if running, ok := sh.bySeller[id]; !ok || running != amt {
					rep.ResumMismatches++
				}
			}
		}
		for id, amt := range sh.bySeller {
			rep.Sellers[id] += amt
		}
		rep.Broker += sh.broker
		rep.Legacy += sh.legacy
		sh.mu.Unlock()
	}
	return rep
}
