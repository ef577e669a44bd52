package market

// Multi-seller revenue attribution. A broker's model instances may be
// trained on data contributed by several sellers; every sale's price is
// then divided into per-seller amounts (by the published attribution
// stakes — typically Shapley weights from internal/attr) plus the
// broker's commission, and the resulting table travels inside the same
// WAL frame as the transaction (see durable.go's v2 record envelope).
//
// The split is exact by construction, not approximately: amounts are
// quantized onto the price's own ulp grid, so for every sale
//
//	Σᵢ Shares[i].Amount + BrokerShare == Price
//
// holds under IEEE-754 float64 addition in any order — the property the
// auditor and the workload harness assert per row, with zero tolerance.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/datamarket/mbp/internal/obs"
)

// SellerShare is one row of a sale's attribution table: the seller, the
// attribution weight in force at sale time, and the exact slice of the
// price the seller earned.
type SellerShare struct {
	// SellerID names the seller.
	SellerID string `json:"sellerId"`
	// Weight is the attribution weight the split used (the seller's
	// stake at sale time, renormalized over the then-active sellers).
	Weight float64 `json:"weight"`
	// Amount is the seller's exact slice of the sale price.
	Amount float64 `json:"amount"`
}

// SellerStake is a published attribution stake: the weight future sales
// split revenue by. Stakes are normalized to sum to 1 when set.
type SellerStake struct {
	// ID names the seller.
	ID string `json:"id"`
	// Weight is the seller's attribution weight, ≥ 0.
	Weight float64 `json:"weight"`
}

// stakeTable is the immutable published stake set, behind an atomic
// pointer so the sell path reads it lock-free.
type stakeTable struct {
	stakes []SellerStake
	// gauges[i] is stakes[i]'s revenue gauge. They are resolved on the
	// table's first sale, not at publish, so /metrics lists a seller
	// from the first sale that credits them, as it always has.
	gaugesOnce sync.Once
	gauges     []*obs.Gauge
}

// revenueGauges returns the per-stake revenue gauges, looking them up
// in the registry only on the first call.
func (t *stakeTable) revenueGauges() []*obs.Gauge {
	t.gaugesOnce.Do(func() {
		t.gauges = make([]*obs.Gauge, len(t.stakes))
		for i, s := range t.stakes {
			t.gauges[i] = metSellerRevenue(s.ID)
		}
	})
	return t.gauges
}

// metSellerRevenue tracks cumulative attributed revenue per seller; the
// label keeps one gauge per seller id on /metrics (a gauge, like
// market.revenue_total, because revenue is a float sum).
func metSellerRevenue(sellerID string) *obs.Gauge {
	return obs.Default.Gauge(obs.Name("market.seller_revenue_total", "seller", sellerID))
}

// splitPrice divides price into the broker's commission cut plus one
// exact amount per stake, quantized so the shares reconstruct the price
// under float64 addition with zero drift.
//
// The construction: write price = N·q with q the power of two placing N
// just below 2^53 (the price's own ulp grid — every float64 is such a
// multiple). The broker's units are round(commission·N); the remaining
// units are apportioned across sellers by largest remainder over their
// weights (ties to the earlier stake). Every amount is units·q — exactly
// representable — and every partial sum is ≤ N units on the same grid,
// so each addition is exact and Σ amounts + brokerShare == price holds
// bit-for-bit in any summation order.
func splitPrice(price, commission float64, stakes []SellerStake) (brokerShare float64, shares []SellerShare) {
	shares = make([]SellerShare, len(stakes))
	for i, s := range stakes {
		shares[i] = SellerShare{SellerID: s.ID, Weight: s.Weight}
	}
	if price == 0 || len(stakes) == 0 || math.IsNaN(price) || math.IsInf(price, 0) || price < 0 {
		// Degenerate prices cannot be quantized: hand the whole figure
		// to the broker so conservation (Σ 0 + price == price) still
		// holds exactly, and let the auditor flag the price itself.
		return price, shares
	}
	f, e := math.Frexp(price) // price = f·2^e, f ∈ [0.5, 1)
	n := int64(f * (1 << 53)) // ∈ [2^52, 2^53), exact: f has ≤53 significand bits
	exp := e - 53
	if exp < -1074 {
		// Subnormal territory: the ulp grid floors at 2^-1074, of which
		// every float64 is an exact integer multiple.
		exp = -1074
		n = int64(math.Ldexp(price, 1074))
	}
	q := math.Ldexp(1, exp)

	nb := int64(math.Round(commission * float64(n)))
	if nb < 0 {
		nb = 0
	}
	if nb > n {
		nb = n
	}
	rem := n - nb

	// Largest-remainder apportionment of rem units over the weights.
	units := make([]int64, len(stakes))
	fracs := make([]float64, len(stakes))
	var used int64
	for i, s := range stakes {
		ideal := s.Weight * float64(rem)
		u := int64(ideal)
		if u < 0 {
			u = 0
		}
		if u > rem {
			u = rem
		}
		units[i] = u
		fracs[i] = ideal - float64(u)
		used += u
	}
	order := make([]int, len(stakes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for at := 0; used < rem; at = (at + 1) % len(order) {
		units[order[at]]++
		used++
	}
	// Normalized weights can sum a few ulps over 1, overshooting by a
	// unit or two; strip from the smallest remainders.
	for at := len(order) - 1; used > rem; at = (at - 1 + len(order)) % len(order) {
		if units[order[at]] > 0 {
			units[order[at]]--
			used--
		}
	}

	for i := range shares {
		shares[i].Amount = float64(units[i]) * q
	}
	return float64(nb) * q, shares
}

// shareTableVersion guards the binary attribution-table encoding below.
const shareTableVersion = 1

// encodeShareTable serializes a sale's attribution table for the v2 WAL
// record envelope:
//
//	[1B version][8B LE brokerShare bits][4B LE count]
//	count × ([2B LE id length][id][8B LE weight bits][8B LE amount bits])
//
// Floats travel as raw IEEE-754 bits so the recovered table is
// bit-identical to the recorded one — the exact-conservation property
// survives the round trip by construction.
func encodeShareTable(brokerShare float64, shares []SellerShare) []byte {
	size := 1 + 8 + 4
	for i := range shares {
		size += 2 + len(shares[i].SellerID) + 16
	}
	out := make([]byte, 0, size)
	out = append(out, shareTableVersion)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(brokerShare))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(shares)))
	for i := range shares {
		s := &shares[i]
		out = binary.LittleEndian.AppendUint16(out, uint16(len(s.SellerID)))
		out = append(out, s.SellerID...)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Weight))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Amount))
	}
	return out
}

// errShareTable reports a structurally invalid attribution table.
var errShareTable = errors.New("market: malformed attribution table")

// decodeShareTable parses an encodeShareTable payload.
func decodeShareTable(b []byte) (brokerShare float64, shares []SellerShare, err error) {
	if len(b) < 13 {
		return 0, nil, fmt.Errorf("%w: %d bytes", errShareTable, len(b))
	}
	if b[0] != shareTableVersion {
		return 0, nil, fmt.Errorf("%w: unknown version %d", errShareTable, b[0])
	}
	brokerShare = math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))
	count := int(binary.LittleEndian.Uint32(b[9:13]))
	b = b[13:]
	if count > maxSellers {
		return 0, nil, fmt.Errorf("%w: %d shares", errShareTable, count)
	}
	shares = make([]SellerShare, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 2 {
			return 0, nil, fmt.Errorf("%w: truncated share %d", errShareTable, i)
		}
		idLen := int(binary.LittleEndian.Uint16(b[0:2]))
		if len(b) < 2+idLen+16 {
			return 0, nil, fmt.Errorf("%w: truncated share %d", errShareTable, i)
		}
		shares = append(shares, SellerShare{
			SellerID: string(b[2 : 2+idLen]),
			Weight:   math.Float64frombits(binary.LittleEndian.Uint64(b[2+idLen : 10+idLen])),
			Amount:   math.Float64frombits(binary.LittleEndian.Uint64(b[10+idLen : 18+idLen])),
		})
		b = b[18+idLen:]
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", errShareTable, len(b))
	}
	return brokerShare, shares, nil
}

// maxSellers bounds a single broker's stake table (and, transitively, a
// decoded attribution table). Exact Shapley enumeration caps out around
// attr.ExactLimit sellers anyway; the bound mainly keeps a corrupt
// count field from allocating gigabytes.
const maxSellers = 4096

// ErrUnknownSeller is returned when a seller id is not in the current
// stake table.
var ErrUnknownSeller = errors.New("market: unknown seller")

// ErrLastSeller is returned when a withdrawal would leave the market
// with no sellers at all.
var ErrLastSeller = errors.New("market: cannot withdraw the last seller")

// validStakes validates and normalizes a stake set: unique non-empty
// ids, finite non-negative weights. Weights are renormalized to sum to
// 1; an all-zero set becomes uniform.
func validStakes(stakes []SellerStake) ([]SellerStake, error) {
	if len(stakes) == 0 {
		return nil, errors.New("market: empty stake table")
	}
	if len(stakes) > maxSellers {
		return nil, fmt.Errorf("market: %d sellers exceeds the %d cap", len(stakes), maxSellers)
	}
	out := make([]SellerStake, len(stakes))
	seen := make(map[string]bool, len(stakes))
	total := 0.0
	for i, s := range stakes {
		if s.ID == "" {
			return nil, fmt.Errorf("market: stake %d has an empty seller id", i)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("market: duplicate seller %q", s.ID)
		}
		seen[s.ID] = true
		if math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) || s.Weight < 0 {
			return nil, fmt.Errorf("market: seller %q has invalid weight %v", s.ID, s.Weight)
		}
		out[i] = s
		total += s.Weight
	}
	if total <= 0 {
		u := 1 / float64(len(out))
		for i := range out {
			out[i].Weight = u
		}
		return out, nil
	}
	for i := range out {
		out[i].Weight /= total
	}
	return out, nil
}

// SellerStakes returns the published attribution stakes (a copy), in
// the order future sales will list them.
func (b *Broker) SellerStakes() []SellerStake {
	t := b.stakes.Load()
	if t == nil {
		return nil
	}
	return append([]SellerStake(nil), t.stakes...)
}

// SetSellerStakes publishes a new attribution stake table: every
// subsequent sale splits its price across these sellers by weight
// (weights are normalized to sum to 1). On a durable broker the change
// is journaled, so recovery and replicating followers resume with the
// same stakes. Already-recorded rows keep the table they were sold
// under — attribution is a fact about the sale, not the present.
func (b *Broker) SetSellerStakes(stakes []SellerStake) error {
	return b.applyStakes(stakes, true)
}

// WithdrawSeller removes a seller from the stake table mid-market (the
// seller-churn scenario): subsequent sales renormalize over the
// remaining sellers, and conservation stays exact throughout. Recorded
// history is untouched.
func (b *Broker) WithdrawSeller(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.stakes.Load()
	if cur == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSeller, id)
	}
	next := make([]SellerStake, 0, len(cur.stakes))
	found := false
	for _, s := range cur.stakes {
		if s.ID == id {
			found = true
			continue
		}
		next = append(next, s)
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrUnknownSeller, id)
	}
	if len(next) == 0 {
		return ErrLastSeller
	}
	return b.applyStakesLocked(next, true)
}

// applyStakes validates, normalizes, and publishes stakes. journal
// controls whether the change is written to a durable ledger; the
// recovery and follower apply paths — whose input IS the journal — pass
// false.
func (b *Broker) applyStakes(stakes []SellerStake, journal bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.applyStakesLocked(stakes, journal)
}

func (b *Broker) applyStakesLocked(stakes []SellerStake, journal bool) error {
	norm, err := validStakes(stakes)
	if err != nil {
		return err
	}
	if journal {
		if d, ok := b.ledger.(*DurableLedger); ok {
			if err := d.journalStakes(norm); err != nil {
				return err
			}
		}
	}
	b.stakes.Store(&stakeTable{stakes: norm})
	return nil
}

// founderID names the broker's original (founding) seller for
// attribution purposes; legacy pre-attribution rows are booked to it.
func (b *Broker) founderID() string {
	if b.seller.Name != "" {
		return b.seller.Name
	}
	return "seller"
}

// RevenueTotals is the cumulative revenue split of a broker or an
// exchange: what every seller was attributed, their sum, and the
// broker's commission. Together SellerShare + BrokerShare equals the
// ledger's gross up to float rounding.
type RevenueTotals struct {
	// Sellers is each seller's cumulative attributed revenue.
	Sellers map[string]float64
	// SellerShare is Σ Sellers, summed in sorted seller-id order so map
	// iteration order never leaks into the figure (the workload rig
	// compares economic totals bit-for-bit across runs).
	SellerShare float64
	// BrokerShare is the cumulative commission.
	BrokerShare float64
}

// newRevenueTotals fills in SellerShare from the per-seller totals.
func newRevenueTotals(bySeller map[string]float64, broker float64) RevenueTotals {
	ids := make([]string, 0, len(bySeller))
	for id := range bySeller {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sum float64
	for _, id := range ids {
		sum += bySeller[id]
	}
	return RevenueTotals{Sellers: bySeller, SellerShare: sum, BrokerShare: broker}
}

// Revenue reports the cumulative revenue split, read from the running
// stripe totals the sale path accumulates — O(sellers) per stripe, no
// snapshot build — so /metrics and listing polls stay cheap under live
// traffic; the background auditor cross-checks it against the rows
// continuously. Rows recorded before attribution existed (a v1 WAL)
// carry no table; their gross is booked to the broker's founding
// seller at the commission split, so totals remain comparable across
// an upgrade.
func (b *Broker) Revenue() RevenueTotals {
	bySeller, broker, legacy := b.ledger.splitTotals()
	if legacy != 0 {
		bySeller[b.founderID()] += legacy * (1 - b.commission)
		broker += legacy * b.commission
	}
	return newRevenueTotals(bySeller, broker)
}

// AttributionReport is the auditor's view of the attribution ledger: the
// running per-seller totals plus the two exactness checks the sweep
// asserts — per-row conservation (exact, tolerance zero) and the
// bitwise agreement between each stripe's running totals and an
// independent append-order re-sum of its rows.
type AttributionReport struct {
	// Rows is the number of ledger rows scanned.
	Rows int
	// AttributedRows counts rows carrying an attribution table.
	AttributedRows int
	// Gross is the re-summed price total across all rows.
	Gross float64
	// Sellers holds cumulative attributed revenue per seller (running
	// stripe totals).
	Sellers map[string]float64
	// Broker is the cumulative broker commission (running total).
	Broker float64
	// Legacy is the gross of rows recorded with no attribution table
	// (pre-upgrade v1 rows).
	Legacy float64
	// ExactViolations counts rows where Σ shares + broker ≠ price under
	// exact float64 comparison. Must be zero.
	ExactViolations int
	// ResumMismatches counts stripe×figure pairs where the running
	// total and the append-order re-sum disagree bitwise. Must be zero.
	ResumMismatches int
}

// AttributionTotals scans the ledger stripes in place (no snapshot
// build) and reports the attribution totals plus the exactness checks.
// Like LedgerTotals it is safe to poll on a tight cadence; each stripe
// is visited once under its lock.
func (b *Broker) AttributionTotals() AttributionReport {
	return b.ledger.attributionTotals()
}

// conservesExactly reports whether the row's attribution table
// reconstructs its price exactly under float64 addition. Rows without a
// table conserve trivially.
func conservesExactly(tx *Transaction) bool {
	if tx.Shares == nil && tx.BrokerShare == 0 {
		return true
	}
	sum := tx.BrokerShare
	for i := range tx.Shares {
		sum += tx.Shares[i].Amount
	}
	return sum == tx.Price
}
