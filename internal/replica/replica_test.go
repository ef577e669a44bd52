package replica_test

// Cluster tests run real leader/follower topologies in-process: every
// node has its own broker, durable ledger, and store directory, and
// followers serve the replica wire protocol over httptest. The quorum
// test is the acceptance property: with chaos partitioning the
// shipping hop, quorum acknowledgement stalls — it never loses or
// double-charges a sale — and once the link heals every key replays to
// exactly one ledger row.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/replica"
	"github.com/datamarket/mbp/internal/resilience"
	"github.com/datamarket/mbp/internal/store"
)

// clusterNode is one in-process replica: broker, durable ledger, and
// the replication endpoint.
type clusterNode struct {
	b    *market.Broker
	d    *market.DurableLedger
	node *replica.Node
	url  string
}

// newFollower builds a follower serving the replica wire protocol.
func newFollower(t *testing.T, o store.Options) *clusterNode {
	t.Helper()
	b := markettest.Broker(t, 1)
	d, rs, err := market.OpenDurableLedger(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	b.AttachDurableLedger(d, rs)
	b.SetFollower("")
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	n, err := replica.New(replica.Config{
		Store:   d.Store(),
		Applier: market.NewFollowerApplier(b, d),
		Broker:  b,
		Self:    srv.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	mux.HandleFunc("/replica/frames", n.HandleFrames)
	mux.HandleFunc("/replica/snapshot", n.HandleSnapshot)
	mux.HandleFunc("/replica/status", n.HandleStatus)
	mux.HandleFunc("/admin/promote", n.HandlePromote)
	return &clusterNode{b: b, d: d, node: n, url: srv.URL}
}

// newLeader builds a leader shipping to targets. cfg supplies the
// replication knobs; Store/Broker/Targets are wired here.
func newLeader(t *testing.T, targets []string, o store.Options, cfg replica.Config) *clusterNode {
	t.Helper()
	b := markettest.Broker(t, 1)
	d, rs, err := market.OpenDurableLedger(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	b.AttachDurableLedger(d, rs)
	cfg.Store = d.Store()
	cfg.Broker = b
	cfg.Targets = targets
	n, err := replica.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return &clusterNode{b: b, d: d, node: n}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// converged reports whether follower f holds the leader's full stream.
func converged(ld, f *clusterNode) bool {
	return f.d.Store().Frames() == ld.d.Store().Frames() &&
		f.d.Store().StreamDigest() == ld.d.Store().StreamDigest()
}

// sameLedgers compares two brokers' ledgers row by row.
func sameLedgers(t *testing.T, name string, a, b []market.Transaction) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Model != b[i].Model || a[i].Delta != b[i].Delta ||
			a[i].Price != b[i].Price || a[i].Stamp.Logical != b[i].Stamp.Logical {
			t.Fatalf("%s: row %d differs: %+v vs %+v", name, i, a[i], b[i])
		}
	}
}

func buyKeyed(t *testing.T, n *clusterNode, key string, delta float64) (*market.Purchase, bool, error) {
	t.Helper()
	return n.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta, Key: key})
}

// TestQuorumPartitionStallsThenConverges is the quorum-ack property
// test: under a full partition every keyed buy stalls with
// ErrReplicationLag (the sale is journaled, never acknowledged); under
// a flaky link buys race the chaos either way; and after the link
// heals every key — acked or stalled — replays to exactly one ledger
// row on the leader and both followers converge byte-for-byte.
func TestQuorumPartitionStallsThenConverges(t *testing.T) {
	f1 := newFollower(t, store.Options{})
	f2 := newFollower(t, store.Options{})
	chaos := resilience.NewChaos(11, resilience.ChaosConfig{PartitionProb: 1})
	ld := newLeader(t, []string{f1.url, f2.url}, store.Options{}, replica.Config{
		Ack:        replica.AckQuorum,
		AckTimeout: 250 * time.Millisecond,
		Chaos:      chaos,
		Retry:      resilience.Retry{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Breaker:    resilience.BreakerConfig{FailureThreshold: 1 << 20},
	})
	ld.node.StartLeading()
	delta := markettest.Menu(t, ld.b)[0].Delta

	// Phase 1: total partition. Quorum mode must stall, not lose: the
	// buy errors retryably, the ledger row stands, nothing reaches the
	// followers, and nothing is invented as acknowledged.
	keys := []string{"stall-0", "stall-1", "stall-2"}
	for _, key := range keys {
		p, _, err := buyKeyed(t, ld, key, delta)
		if !errors.Is(err, market.ErrReplicationLag) {
			t.Fatalf("buy %s under partition: p=%v err=%v, want ErrReplicationLag", key, p, err)
		}
	}
	if rows := len(ld.b.Ledger()); rows != len(keys) {
		t.Fatalf("leader journaled %d rows under partition, want %d (stall must not roll back)", rows, len(keys))
	}
	if f1.d.Store().Frames() != 0 || f2.d.Store().Frames() != 0 {
		t.Fatalf("frames leaked through a total partition: f1=%d f2=%d",
			f1.d.Store().Frames(), f2.d.Store().Frames())
	}

	// Phase 2: flaky link. Each buy either clears the quorum in time or
	// stalls; both are legal, losing data is not.
	acked := map[string]int{}
	chaos.Update(resilience.ChaosConfig{PartitionProb: 0.7, LatencyProb: 0.3, Latency: 2 * time.Millisecond})
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("flaky-%d", i)
		keys = append(keys, key)
		p, _, err := buyKeyed(t, ld, key, delta)
		switch {
		case err == nil:
			acked[key] = p.Seq
		case errors.Is(err, market.ErrReplicationLag):
		default:
			t.Fatalf("buy %s on flaky link: %v", key, err)
		}
	}

	// Heal, then reconcile: every key replays (no re-charge), acked
	// buys keep their Seq, and the cluster converges.
	chaos.Update(resilience.ChaosConfig{})
	seen := map[int]string{}
	for _, key := range keys {
		p, replayed, err := buyKeyed(t, ld, key, delta)
		if err != nil || !replayed {
			t.Fatalf("retry of %s after heal: replayed=%v err=%v", key, replayed, err)
		}
		if want, ok := acked[key]; ok && p.Seq != want {
			t.Fatalf("retry of %s returned seq %d, want the originally acked %d", key, p.Seq, want)
		}
		if prev, dup := seen[p.Seq]; dup {
			t.Fatalf("keys %s and %s share seq %d", prev, key, p.Seq)
		}
		seen[p.Seq] = key
	}
	if rows := len(ld.b.Ledger()); rows != len(keys) {
		t.Fatalf("leader holds %d rows, want %d — exactly one per key", rows, len(keys))
	}
	waitFor(t, 15*time.Second, "followers to converge", func() bool {
		return converged(ld, f1) && converged(ld, f2)
	})
	sameLedgers(t, "leader vs f1", ld.b.Ledger(), f1.b.Ledger())
	sameLedgers(t, "leader vs f2", ld.b.Ledger(), f2.b.Ledger())
}

// TestCompactionMidTailFallsBackToSnapshot covers satellite 3: the
// follower's cursor lands in a segment the leader compacted away, so
// the shipper bootstraps it from the newest snapshot and resumes the
// tail — no gap, no duplicate. Tiny segments force WAL rotation along
// the way, and a promoted follower replays a pre-compaction
// idempotency key to prove the replay cache crossed the snapshot.
func TestCompactionMidTailFallsBackToSnapshot(t *testing.T) {
	// Tiny segments: every few appends rotate the leader's WAL.
	o := store.Options{SegmentBytes: 512}
	f := newFollower(t, store.Options{})
	ld := newLeader(t, []string{f.url}, o, replica.Config{})
	delta := markettest.Menu(t, ld.b)[0].Delta

	// Traffic before the follower hears anything, including a keyed buy
	// whose replay entry must survive the snapshot hop.
	if _, _, err := buyKeyed(t, ld, "pre-compact-key", delta); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := ld.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.d.Compact(); err != nil {
		t.Fatal(err)
	}
	// Precondition: frame 0 is gone from the leader's log.
	if _, _, err := ld.d.Store().ReadFrom(0, 1<<20); !errors.Is(err, store.ErrCompacted) {
		t.Fatalf("ReadFrom(0) after compaction: %v, want ErrCompacted", err)
	}
	// More traffic after the boundary: the tail the bootstrap resumes.
	for i := 0; i < 3; i++ {
		if _, _, err := ld.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); err != nil {
			t.Fatal(err)
		}
	}

	ld.node.StartLeading()
	waitFor(t, 15*time.Second, "snapshot bootstrap + tail", func() bool { return converged(ld, f) })
	sameLedgers(t, "post-bootstrap", ld.b.Ledger(), f.b.Ledger())

	// The live tail keeps flowing after the bootstrap.
	for i := 0; i < 2; i++ {
		if _, _, err := ld.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "live tail after bootstrap", func() bool { return converged(ld, f) })
	sameLedgers(t, "post-tail", ld.b.Ledger(), f.b.Ledger())
	rows := f.b.Ledger()
	for i := 1; i < len(rows); i++ {
		if rows[i].Seq != rows[i-1].Seq+1 {
			t.Fatalf("follower ledger has a gap or duplicate: seq %d follows %d", rows[i].Seq, rows[i-1].Seq)
		}
	}

	// Promote the follower: the replicated replay cache answers the
	// pre-compaction key with the original sale, not a second charge.
	ld.node.Stop()
	if _, err := f.node.Promote(); err != nil {
		t.Fatal(err)
	}
	orig := ld.b.Ledger()[0]
	p, replayed, err := buyKeyed(t, f, "pre-compact-key", delta)
	if err != nil || !replayed || p.Seq != orig.Seq {
		t.Fatalf("replay after promote: p=%+v replayed=%v err=%v, want seq %d", p, replayed, err, orig.Seq)
	}
	if rows, want := len(f.b.Ledger()), len(ld.b.Ledger()); rows != want {
		t.Fatalf("promote replay grew the ledger to %d rows, want %d", rows, want)
	}
}

// TestFencingDeposesStaleLeader: promoting a follower bumps its
// durable epoch, so the old leader's next shipment is refused with the
// new leader's address, and the old leader steps down to a read-only
// follower instead of splitting the brain.
func TestFencingDeposesStaleLeader(t *testing.T) {
	f := newFollower(t, store.Options{})
	ld := newLeader(t, []string{f.url}, store.Options{}, replica.Config{})
	ld.node.StartLeading()
	delta := markettest.Menu(t, ld.b)[0].Delta
	if _, _, err := ld.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "follower to catch up", func() bool { return converged(ld, f) })

	// Promote over the wire — the runbook path.
	resp, err := http.Post(f.url+"/admin/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: HTTP %d", resp.StatusCode)
	}
	if got := f.d.Store().Epoch(); got != 1 {
		t.Fatalf("promoted epoch = %d, want 1", got)
	}
	if f.b.IsFollower() {
		t.Fatal("promoted broker still refuses writes")
	}
	if _, _, err := f.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); err != nil {
		t.Fatalf("sale on promoted node: %v", err)
	}

	// The deposed leader does not know yet; its next shipment is fenced
	// and it steps down.
	if _, _, err := ld.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "stale leader to step down", func() bool { return !ld.node.IsLeading() })
	if !ld.b.IsFollower() {
		t.Fatal("deposed broker still accepts writes")
	}
	if hint := ld.b.LeaderHint(); hint != f.url {
		t.Fatalf("leader hint = %q, want the new leader %q", hint, f.url)
	}
	if _, _, err := ld.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); !errors.Is(err, market.ErrFollower) {
		t.Fatalf("sale on deposed leader: %v, want ErrFollower", err)
	}
}

// TestAsyncFollowerServesReplicatedReads: in async mode acks never
// gate the sale path, the follower converges in the background, and
// its read surfaces (ledger, curve) serve the replicated state while
// writes are refused with the leader hint.
func TestAsyncFollowerServesReplicatedReads(t *testing.T) {
	f := newFollower(t, store.Options{})
	ld := newLeader(t, []string{f.url}, store.Options{}, replica.Config{Ack: replica.AckAsync})
	ld.node.StartLeading()
	delta := markettest.Menu(t, ld.b)[0].Delta
	for i := 0; i < 4; i++ {
		if _, _, err := ld.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); err != nil {
			t.Fatal(err)
		}
	}
	// Reprice mid-stream: the curve record replicates and the follower
	// republishes the same menu.
	c, err := ld.b.Curve(markettest.Model)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]pricing.Point, len(c.Points()))
	for i, pt := range c.Points() {
		scaled[i] = pricing.Point{X: pt.X, Price: pt.Price * 1.5}
	}
	c2, err := pricing.NewCurve(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.b.RepublishCurve(markettest.Model, c2); err != nil {
		t.Fatal(err)
	}
	// The follower journals each frame before applying it in memory, so
	// its frame cursor can match the leader's a moment before the
	// republished curve is served: wait for the curve too.
	var fc *pricing.Curve
	waitFor(t, 10*time.Second, "async follower to converge", func() bool {
		fc, err = f.b.Curve(markettest.Model)
		return converged(ld, f) && err == nil && fc.Points()[0] == c2.Points()[0]
	})
	sameLedgers(t, "async", ld.b.Ledger(), f.b.Ledger())
	lp, fp := c2.Points(), fc.Points()
	if len(lp) != len(fp) {
		t.Fatalf("follower curve has %d points, leader %d", len(fp), len(lp))
	}
	for i := range lp {
		if lp[i] != fp[i] {
			t.Fatalf("curve point %d: follower %+v, leader %+v", i, fp[i], lp[i])
		}
	}
	if _, _, err := f.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); !errors.Is(err, market.ErrFollower) {
		t.Fatalf("follower sale: %v, want ErrFollower", err)
	}
}

// TestStopDropsTargetSeries: every leader registers labeled shipping
// series per target, so a process that starts and stops leaders
// against ever-new follower addresses must not grow the registry.
func TestStopDropsTargetSeries(t *testing.T) {
	cycle := func() {
		f := newFollower(t, store.Options{})
		ld := newLeader(t, []string{f.url}, store.Options{}, replica.Config{})
		ld.node.StartLeading()
		if _, _, err := ld.b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: markettest.Menu(t, ld.b)[0].Delta}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "follower to catch up", func() bool { return converged(ld, f) })
		if got := ld.node.Status().Targets; len(got) != 1 || got[0].Target != f.url {
			t.Fatalf("leader status targets = %+v, want %s", got, f.url)
		}
		ld.node.Stop()
	}
	cycle() // registers the process-wide series once
	before := len(obs.Default.MetricNames())
	for i := 0; i < 3; i++ {
		cycle()
	}
	if after := len(obs.Default.MetricNames()); after != before {
		t.Fatalf("registry grew from %d to %d series over 3 leader lifetimes", before, after)
	}
}
