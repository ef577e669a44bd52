package market

// Replication stances for the Broker, plus the follower-side frame
// applier. A broker is either the leader (sells, journals, ships
// frames) or a follower (read-only warm standby applying the leader's
// frames through the same write-through path recovery uses). Promotion
// flips a follower to leader in place — the applied state is already
// the ledger, so there is nothing to rebuild.
//
// The acknowledgement barrier is how quorum mode attaches to the sale
// path without the broker knowing anything about replication: the
// replica layer installs a wait function, and Buy blocks on
// it after the journal accepted the sale. On a barrier timeout the
// sale stands — journaled, shipping, replay-cached — and the buyer
// gets a retryable error whose retry replays the original Seq.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/datamarket/mbp/internal/pricing"
)

// ErrFollower is returned by the buy path while the broker is a
// follower: writes must go to the leader. httpapi maps it to 503 with
// an X-Leader hint.
var ErrFollower = errors.New("market: broker is a follower; writes go to the leader")

// ErrReplicationLag is returned (wrapped) when a quorum-mode sale was
// journaled locally but the replica quorum did not confirm within the
// acknowledgement timeout. The sale is NOT rolled back — it is durable
// and shipping — and a retry under the same Idempotency-Key replays it
// rather than charging twice.
var ErrReplicationLag = errors.New("market: replica quorum not reached before timeout")

// ackBarrier wraps the replication acknowledgement wait so it can live
// behind an atomic pointer.
type ackBarrier struct {
	wait func(ctx context.Context) error
}

// SetFollower puts the broker in the follower stance: sells are
// refused with ErrFollower and hint (the leader's address, may be
// empty) is surfaced to clients. Quotes, menus, and ledger reads keep
// serving from the replicated state.
func (b *Broker) SetFollower(hint string) {
	b.leaderHint.Store(&hint)
	b.follower.Store(true)
}

// Promote flips a follower to leader in place. The applied state is
// already the ledger, so the broker starts selling immediately where
// the stream left off.
func (b *Broker) Promote() {
	b.follower.Store(false)
}

// IsFollower reports whether the broker is currently refusing writes.
func (b *Broker) IsFollower() bool { return b.follower.Load() }

// LeaderHint returns the advertised leader address, if any.
func (b *Broker) LeaderHint() string {
	if h := b.leaderHint.Load(); h != nil {
		return *h
	}
	return ""
}

// SetAckBarrier installs (or, with nil, removes) the replication
// acknowledgement barrier the buy path blocks on after journaling a
// sale. The replica layer installs one in quorum mode.
func (b *Broker) SetAckBarrier(wait func(ctx context.Context) error) {
	if wait == nil {
		b.barrier.Store(nil)
		return
	}
	b.barrier.Store(&ackBarrier{wait: wait})
}

// waitAck blocks on the installed acknowledgement barrier, if any.
func (b *Broker) waitAck(ctx context.Context) error {
	bar := b.barrier.Load()
	if bar == nil {
		return nil
	}
	if err := bar.wait(ctx); err != nil {
		return fmt.Errorf("%w: %v", ErrReplicationLag, err)
	}
	return nil
}

// FollowerApplier applies replicated WAL frames to a follower broker:
// each record is journaled to the follower's own store first (so its
// logical frame cursor and stream digest advance in lockstep with the
// leader's) and then applied in memory through the same write-through
// shapes recovery uses — ledger rows, skip gaps, replay-cache entries,
// and repriced curves all land warm.
type FollowerApplier struct {
	b *Broker
	d *DurableLedger
}

// NewFollowerApplier wires a follower broker to its durable ledger.
// The broker must already have the ledger attached.
func NewFollowerApplier(b *Broker, d *DurableLedger) *FollowerApplier {
	return &FollowerApplier{b: b, d: d}
}

// Frames reports the follower's logical frame cursor — how much of the
// leader's stream it has durably applied.
func (fa *FollowerApplier) Frames() uint64 { return fa.d.st.Frames() }

// ApplyRecord journals one replicated record and applies it in memory.
// Callers (the replica layer) serialize ApplyRecord calls and deliver
// records in stream order.
func (fa *FollowerApplier) ApplyRecord(rec []byte) error {
	// Decode (and validate) before journaling so a malformed record
	// never advances the frame cursor; the RAW bytes are what get
	// appended, v2 envelope intact, so the follower's chained stream
	// digest matches the leader's byte for byte.
	wr, isV2, err := decodeWALRecord(rec)
	if err != nil {
		return fmt.Errorf("market: replicated record: %w", err)
	}
	if wr.Kind == walKindTx {
		// Epoch fence: once this follower has applied an attributed
		// (v2) sale, a bare v1 sale in the stream means the leader
		// downgraded to the pre-attribution encoding — refuse it rather
		// than silently filing sellers' revenue as legacy gross.
		if err := fa.d.noteTxEpoch(isV2); err != nil {
			return err
		}
	}
	if err := fa.d.st.Append(rec); err != nil {
		return err
	}
	switch wr.Kind {
	case walKindTx:
		tx := wr.Tx.Transaction
		fa.d.mem.file(tx)
		advanceMax(&fa.d.mem.seq, uint64(tx.Seq))
		advanceMax(&fa.b.logical, tx.Stamp.Logical)
		if rp := wr.Tx.Replay; rp != nil {
			fa.d.mu.Lock()
			fa.d.replays[rp.Key] = *rp
			fa.d.mu.Unlock()
			fa.b.replay.Seed(rp.Key, purchaseFromReplay(tx, *rp), rp.At)
		}
	case walKindSkip:
		fa.d.mu.Lock()
		fa.d.skips = append(fa.d.skips, wr.Seq)
		fa.d.mu.Unlock()
		advanceMax(&fa.d.mem.seq, wr.Seq)
	case walKindCurve:
		fa.d.mu.Lock()
		fa.d.curves[wr.Curve.Model] = wr.Curve.Points
		fa.d.mu.Unlock()
		// Best effort, exactly as recovery: a curve for a model this
		// follower does not offer is retained in the journal but not
		// published.
		if c, err := pricing.NewCurve(wr.Curve.Points); err == nil {
			fa.b.republishCurve(wr.Curve.Model, c, false)
		}
	case walKindStakes:
		fa.d.mu.Lock()
		fa.d.stakes = append([]SellerStake(nil), wr.Stakes...)
		fa.d.mu.Unlock()
		// Publish without re-journaling (the raw record was just
		// appended above), same shape as recovery.
		_ = fa.b.applyStakes(wr.Stakes, false)
	}
	return nil
}

// ApplySnapshot installs a leader snapshot a lagging follower was
// bootstrapped with: the raw payload becomes the follower's own newest
// snapshot (cursor jumps to framesBefore) and the in-memory state is
// brought up by diff. The diff is sound because a follower's applied
// state is always a prefix of the leader's stream: everything the
// follower holds is in the snapshot, so only the missing rows need
// filing.
func (fa *FollowerApplier) ApplySnapshot(framesBefore uint64, digest uint32, payload []byte) error {
	var snap ledgerState
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("market: decoding replicated snapshot: %w", err)
	}
	if err := fa.d.st.InstallSnapshot(framesBefore, digest, bytes.NewReader(payload)); err != nil {
		return err
	}
	have := make(map[int]bool)
	for _, tx := range fa.d.mem.view().txs {
		have[tx.Seq] = true
	}
	sawV2 := false
	for _, tx := range snap.Txs {
		if !have[tx.Seq] {
			fa.d.mem.file(tx)
		}
		advanceMax(&fa.d.mem.seq, uint64(tx.Seq))
		advanceMax(&fa.b.logical, tx.Stamp.Logical)
		if tx.Shares != nil || tx.BrokerShare != 0 {
			sawV2 = true
		}
	}
	fa.d.mu.Lock()
	if sawV2 {
		// Attributed snapshot rows put this follower in the v2 epoch:
		// bare v1 sales arriving later are a downgrade and are refused.
		fa.d.sawV2 = true
	}
	if snap.Stakes != nil {
		fa.d.stakes = append([]SellerStake(nil), snap.Stakes...)
	}
	haveSkip := make(map[uint64]bool, len(fa.d.skips))
	for _, sk := range fa.d.skips {
		haveSkip[sk] = true
	}
	for _, sk := range snap.Skips {
		if !haveSkip[sk] {
			fa.d.skips = append(fa.d.skips, sk)
		}
	}
	for _, cv := range snap.Curves {
		fa.d.curves[cv.Model] = cv.Points
	}
	fa.d.mu.Unlock()
	for _, sk := range snap.Skips {
		advanceMax(&fa.d.mem.seq, sk)
	}
	advanceMax(&fa.d.mem.seq, snap.MaxSeq)
	advanceMax(&fa.b.logical, snap.Logical)
	byKey := fa.d.view()
	for _, rp := range snap.Replays {
		fa.d.mu.Lock()
		fa.d.replays[rp.Key] = rp
		fa.d.mu.Unlock()
		i := searchSeq(byKey.txs, rp.Seq)
		if i >= 0 {
			fa.b.replay.Seed(rp.Key, purchaseFromReplay(byKey.txs[i], rp), rp.At)
		}
	}
	for _, cv := range snap.Curves {
		if c, err := pricing.NewCurve(cv.Points); err == nil {
			fa.b.republishCurve(cv.Model, c, false)
		}
	}
	if len(snap.Stakes) > 0 {
		_ = fa.b.applyStakes(snap.Stakes, false)
	}
	return nil
}

// searchSeq finds the index of seq in the Seq-ordered rows, or -1.
func searchSeq(txs []Transaction, seq int) int {
	lo, hi := 0, len(txs)
	for lo < hi {
		mid := (lo + hi) / 2
		if txs[mid].Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(txs) && txs[lo].Seq == seq {
		return lo
	}
	return -1
}

// advanceMax CAS-advances a to at least v.
func advanceMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
