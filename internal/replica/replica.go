// Package replica is the leader/follower replication layer: it ships
// the durable ledger's WAL frames over HTTP from the leader to N
// follower brokers, which apply them through the same write-through
// path recovery uses, so a follower is a warm standby — ledger rows,
// replay-cache entries, and repriced menus all live — that a manual
// promote turns into the leader with zero acknowledged sales lost.
//
// The wire protocol is three endpoints on every node:
//
//	GET  /replica/status    → {role, epoch, frames, digest}
//	POST /replica/frames    ← CRC32C-framed records from a frame cursor
//	POST /replica/snapshot  ← snapshot bootstrap for a compacted cursor
//
// plus POST /admin/promote for failover. Replication is positional:
// the cursor is the logical frame index (identical across replicas,
// because every replica appends the identical record sequence), so a
// re-shipped chunk deduplicates by position — the follower skips the
// prefix it already holds and 412s a cursor ahead of it so the
// shipper rewinds. Leader fencing is by epoch: every shipment carries
// the sender's durably persisted epoch, a receiver rejects anything
// below its own with 409, and a deposed leader that sees the 409
// steps down to a read-only follower instead of accepting writes its
// cluster will never hear about.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/resilience"
	"github.com/datamarket/mbp/internal/store"
)

// Acknowledgement modes.
const (
	// AckAsync acknowledges a sale as soon as the leader's own journal
	// holds it; followers catch up in the background.
	AckAsync = "async"
	// AckQuorum acknowledges only after a majority of the cluster
	// (leader included, ⌈(N+1)/2⌉ of N+1 nodes) durably appended the
	// frame.
	AckQuorum = "quorum"
)

// Wire headers.
const (
	headerEpoch        = "X-Replica-Epoch"
	headerLeader       = "X-Replica-Leader"
	headerCursor       = "X-Replica-Cursor"
	headerFramesBefore = "X-Replica-Frames-Before"
	headerDigest       = "X-Replica-Digest"
	headerPayloadCRC   = "X-Replica-Payload-Crc32c"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Applier is the follower-side apply path; market.NewFollowerApplier
// provides the production implementation.
type Applier interface {
	// Frames reports the follower's durably applied frame cursor.
	Frames() uint64
	// ApplyRecord journals and applies one record, in stream order.
	ApplyRecord(rec []byte) error
	// ApplySnapshot installs a leader snapshot at the given boundary.
	ApplySnapshot(framesBefore uint64, digest uint32, payload []byte) error
}

// BrokerControl is the slice of the broker the replication layer
// drives: stance flips and the quorum acknowledgement barrier.
type BrokerControl interface {
	Promote()
	SetFollower(hint string)
	LeaderHint() string
	SetAckBarrier(wait func(ctx context.Context) error)
}

// Config wires a Node.
type Config struct {
	// Store is the node's own WAL engine (required).
	Store *store.Store
	// Applier applies replicated frames; required on followers.
	Applier Applier
	// Broker is flipped between stances on promote/depose; optional.
	Broker BrokerControl
	// Self is this node's advertised base URL (the leader hint it
	// hands out after promotion).
	Self string
	// Targets are the peer base URLs this node ships to while leading.
	Targets []string
	// Ack is AckAsync (default) or AckQuorum.
	Ack string
	// AckTimeout bounds how long a quorum acknowledgement may stall a
	// buy before the client gets a retryable error. Default 5s.
	AckTimeout time.Duration
	// ChunkBytes bounds one shipment's payload. Default 256 KiB.
	ChunkBytes int
	// Chaos, when set, injects partition/latency faults on the
	// shipping hop.
	Chaos *resilience.Chaos
	// Retry is the per-shipment retry policy; zero means
	// resilience.DefaultRetry.
	Retry resilience.Retry
	// Breaker tunes the per-target circuit breaker.
	Breaker resilience.BreakerConfig
	// Client is the HTTP client for shipping; default 10s timeout.
	Client *http.Client
	// Logger receives replication lifecycle events; default discards.
	Logger *slog.Logger
	// Seed drives retry jitter.
	Seed uint64
}

// Node is one replication endpoint: it serves the replica wire
// protocol, and while leading it runs one shipper per target plus the
// quorum acknowledgement barrier.
type Node struct {
	cfg    Config
	client *http.Client
	log    *slog.Logger

	// applyMu serializes follower applies (frames, snapshot, promote):
	// the cursor check and the apply must be one atomic step.
	applyMu sync.Mutex

	// leadMu guards leadership transitions; leading is also readable
	// without it.
	leadMu     sync.Mutex
	leading    bool
	shipCancel context.CancelFunc
	shipWG     sync.WaitGroup
	shippers   []*shipper

	// ackMu guards the per-target acked cursors; ackCh is closed and
	// replaced on every update so quorum waiters wake without polling.
	ackMu sync.Mutex
	acked map[string]uint64
	ackCh chan struct{}
}

// Replication metrics. The plain lag gauges aggregate (max over
// targets) so the SLO evaluator can watch a single series; per-target
// values ride on labeled gauges of the same base name.
var (
	metLagFrames  = obs.Default.Gauge("replica.lag_frames")
	metLagSeconds = obs.Default.Gauge("replica.lag_seconds")
	metDeposed    = obs.Default.Gauge("replica.deposed")
)

// New builds a Node. It does not start shipping: call StartLeading
// (or Promote) on the leader.
func New(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("replica: config needs a store")
	}
	if cfg.Ack == "" {
		cfg.Ack = AckAsync
	}
	if cfg.Ack != AckAsync && cfg.Ack != AckQuorum {
		return nil, fmt.Errorf("replica: unknown ack mode %q (want %s or %s)", cfg.Ack, AckAsync, AckQuorum)
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 256 << 10
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = resilience.DefaultRetry
	}
	n := &Node{
		cfg:   cfg,
		log:   cfg.Logger,
		acked: make(map[string]uint64, len(cfg.Targets)),
		ackCh: make(chan struct{}),
	}
	if n.log == nil {
		n.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	n.client = cfg.Client
	if n.client == nil {
		n.client = &http.Client{Timeout: 10 * time.Second}
	}
	return n, nil
}

// IsLeading reports whether this node is currently shipping frames.
func (n *Node) IsLeading() bool {
	n.leadMu.Lock()
	defer n.leadMu.Unlock()
	return n.leading
}

// StartLeading begins shipping to the configured targets and, in
// quorum mode, installs the acknowledgement barrier on the broker.
// Idempotent.
func (n *Node) StartLeading() {
	n.leadMu.Lock()
	defer n.leadMu.Unlock()
	if n.leading {
		return
	}
	n.leading = true
	metDeposed.Set(0)
	if n.cfg.Broker != nil && n.cfg.Ack == AckQuorum && n.quorumNeed() > 0 {
		n.cfg.Broker.SetAckBarrier(func(ctx context.Context) error {
			ctx, cancel := context.WithTimeout(ctx, n.cfg.AckTimeout)
			defer cancel()
			return n.WaitQuorum(ctx)
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.shipCancel = cancel
	n.shippers = n.shippers[:0]
	for i, target := range n.cfg.Targets {
		s := newShipper(n, target, uint64(i))
		n.shippers = append(n.shippers, s)
		n.shipWG.Add(1)
		go func() {
			defer n.shipWG.Done()
			s.run(ctx)
		}()
	}
	n.log.Info("replica: leading", "targets", len(n.cfg.Targets), "ack", n.cfg.Ack, "epoch", n.cfg.Store.Epoch())
}

// Stop cancels the shippers, waits for them to exit, and drops their
// per-target metric series from obs.Default.
func (n *Node) Stop() {
	n.leadMu.Lock()
	if n.shipCancel != nil {
		n.shipCancel()
	}
	n.leadMu.Unlock()
	n.shipWG.Wait()
	n.leadMu.Lock()
	for _, s := range n.shippers {
		obs.Default.Remove(s.names...)
	}
	n.leadMu.Unlock()
}

// Promote flips this node to leader: the fencing epoch is durably
// bumped past everything seen so far, the broker starts accepting
// writes, and shipping to the configured peers begins. Idempotent for
// an already-leading node.
func (n *Node) Promote() (epoch uint64, err error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if n.IsLeading() {
		return n.cfg.Store.Epoch(), nil
	}
	epoch = n.cfg.Store.Epoch() + 1
	if err := n.cfg.Store.SetEpoch(epoch); err != nil {
		return 0, err
	}
	if n.cfg.Broker != nil {
		n.cfg.Broker.Promote()
	}
	n.StartLeading()
	n.log.Info("replica: promoted to leader", "epoch", epoch, "frames", n.cfg.Store.Frames())
	return epoch, nil
}

// stepDown reacts to a fence: a peer proved a higher epoch exists, so
// this node stops shipping and flips its broker to the read-only
// follower stance. Safe to call from a shipper goroutine.
func (n *Node) stepDown(peerEpoch uint64, hint string) {
	n.leadMu.Lock()
	if !n.leading {
		n.leadMu.Unlock()
		return
	}
	n.leading = false
	if n.shipCancel != nil {
		n.shipCancel()
	}
	if n.cfg.Broker != nil {
		n.cfg.Broker.SetAckBarrier(nil)
		n.cfg.Broker.SetFollower(hint)
	}
	metDeposed.Set(1)
	n.leadMu.Unlock()
	n.log.Warn("replica: deposed by higher epoch; stepped down to follower",
		"own_epoch", n.cfg.Store.Epoch(), "peer_epoch", peerEpoch)
}

// quorumNeed is how many FOLLOWER acks a frame needs: majority of the
// (targets+1)-node cluster minus the leader's own durable append.
func (n *Node) quorumNeed() int {
	cluster := len(n.cfg.Targets) + 1
	return cluster/2 + 1 - 1
}

// noteAck records that target durably holds the stream up to frames
// and wakes quorum waiters.
func (n *Node) noteAck(target string, frames uint64) {
	n.ackMu.Lock()
	if frames > n.acked[target] {
		n.acked[target] = frames
	}
	close(n.ackCh)
	n.ackCh = make(chan struct{})
	n.ackMu.Unlock()
}

// WaitQuorum blocks until a majority of the cluster durably holds
// every frame the local store holds right now, or ctx expires. The
// goal is captured at entry; acks are monotone, so waiting on the
// current head also covers every earlier frame.
func (n *Node) WaitQuorum(ctx context.Context) error {
	need := n.quorumNeed()
	if need <= 0 {
		return nil
	}
	goal := n.cfg.Store.Frames()
	for {
		n.ackMu.Lock()
		got := 0
		for _, t := range n.cfg.Targets {
			if n.acked[t] >= goal {
				got++
			}
		}
		ch := n.ackCh
		n.ackMu.Unlock()
		if got >= need {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replica: %d/%d follower acks at frame %d: %w", got, need, goal, ctx.Err())
		case <-ch:
		}
	}
}

// statusResponse is the GET /replica/status body. Leader is where this
// node believes writes go — itself when leading, its redirect hint
// otherwise — so a deposed leader probing a peer learns the new leader.
type statusResponse struct {
	Role   string `json:"role"`
	Epoch  uint64 `json:"epoch"`
	Frames uint64 `json:"frames"`
	Digest uint32 `json:"digest"`
	Leader string `json:"leader,omitempty"`
}

// framesResponse reports a node's frame cursor (200 on apply, 412 on
// a cursor ahead of the receiver).
type framesResponse struct {
	Frames uint64 `json:"frames"`
}

// fencedResponse is the 409 body: the receiver's higher epoch, plus
// where the sender should redirect writes if known.
type fencedResponse struct {
	Epoch  uint64 `json:"epoch"`
	Leader string `json:"leader,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// checkEpoch enforces the fence for an incoming shipment and adopts
// higher epochs. It reports whether the request may proceed (false
// means the 409 was already written).
func (n *Node) checkEpoch(w http.ResponseWriter, r *http.Request) bool {
	peer, err := strconv.ParseUint(r.Header.Get(headerEpoch), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad " + headerEpoch})
		return false
	}
	own := n.cfg.Store.Epoch()
	if peer < own || (peer == own && n.IsLeading()) {
		// A deposed leader's late shipment — or a same-epoch split
		// brain, which a correctly operated cluster never produces. A
		// leading node points at itself; a follower forwards whoever it
		// currently follows.
		hint := n.cfg.Self
		if !n.IsLeading() && n.cfg.Broker != nil {
			if h := n.cfg.Broker.LeaderHint(); h != "" {
				hint = h
			}
		}
		writeJSON(w, http.StatusConflict, fencedResponse{Epoch: own, Leader: hint})
		return false
	}
	if peer > own {
		if err := n.cfg.Store.SetEpoch(peer); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return false
		}
		sender := r.Header.Get(headerLeader)
		if n.IsLeading() {
			// This node believed it was leading; the higher epoch proves
			// it was deposed.
			n.stepDown(peer, sender)
		} else if n.cfg.Broker != nil && sender != "" {
			// Track the moving leader so the follower's write redirects
			// stay current across failovers.
			n.cfg.Broker.SetFollower(sender)
		}
	}
	return true
}

// HandleFrames is POST /replica/frames: CRC-verified records applied
// from the sender's cursor, deduplicated by position.
func (n *Node) HandleFrames(w http.ResponseWriter, r *http.Request) {
	if n.cfg.Applier == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "node has no applier"})
		return
	}
	if !n.checkEpoch(w, r) {
		return
	}
	cursor, err := strconv.ParseUint(r.Header.Get(headerCursor), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad " + headerCursor})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(n.cfg.ChunkBytes)*4+(1<<20)))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	records, err := store.DecodeFrames(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	local := n.cfg.Applier.Frames()
	if cursor > local {
		// The sender skipped ahead (e.g. it compacted our segment away
		// and guessed); make it rewind to our cursor.
		writeJSON(w, http.StatusPreconditionFailed, framesResponse{Frames: local})
		return
	}
	for i, rec := range records {
		frame := cursor + uint64(i)
		if frame < local {
			continue // already applied; positional dedup
		}
		if err := n.cfg.Applier.ApplyRecord(rec); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, framesResponse{Frames: n.cfg.Applier.Frames()})
}

// HandleSnapshot is POST /replica/snapshot: the bootstrap for a
// follower whose cursor was compacted off the leader's log.
func (n *Node) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	if n.cfg.Applier == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "node has no applier"})
		return
	}
	if !n.checkEpoch(w, r) {
		return
	}
	framesBefore, err := strconv.ParseUint(r.Header.Get(headerFramesBefore), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad " + headerFramesBefore})
		return
	}
	digest64, err := strconv.ParseUint(r.Header.Get(headerDigest), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad " + headerDigest})
		return
	}
	wantCRC, err := strconv.ParseUint(r.Header.Get(headerPayloadCRC), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad " + headerPayloadCRC})
		return
	}
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if got := crc32.Checksum(payload, castagnoli); got != uint32(wantCRC) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "snapshot payload checksum mismatch"})
		return
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	local := n.cfg.Applier.Frames()
	if framesBefore <= local {
		// Nothing new in the snapshot; the sender can tail from our
		// cursor directly.
		writeJSON(w, http.StatusOK, framesResponse{Frames: local})
		return
	}
	if err := n.cfg.Applier.ApplySnapshot(framesBefore, uint32(digest64), payload); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	n.log.Info("replica: installed leader snapshot", "frames_before", framesBefore)
	writeJSON(w, http.StatusOK, framesResponse{Frames: n.cfg.Applier.Frames()})
}

// HandleStatus is GET /replica/status.
func (n *Node) HandleStatus(w http.ResponseWriter, r *http.Request) {
	role, leader := "follower", ""
	if n.IsLeading() {
		role, leader = "leader", n.cfg.Self
	} else if n.cfg.Broker != nil {
		leader = n.cfg.Broker.LeaderHint()
	}
	writeJSON(w, http.StatusOK, statusResponse{
		Role:   role,
		Epoch:  n.cfg.Store.Epoch(),
		Frames: n.cfg.Store.Frames(),
		Digest: n.cfg.Store.StreamDigest(),
		Leader: leader,
	})
}

// HandlePromote is POST /admin/promote: manual failover.
func (n *Node) HandlePromote(w http.ResponseWriter, r *http.Request) {
	epoch, err := n.Promote()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": epoch, "frames": n.cfg.Store.Frames()})
}

// TargetStatus is one follower's view from the leader, for
// /debug/health.
type TargetStatus struct {
	Target     string  `json:"target"`
	Acked      uint64  `json:"acked"`
	LagFrames  uint64  `json:"lagFrames"`
	LagSeconds float64 `json:"lagSeconds"`
	Breaker    string  `json:"breaker"`
}

// Status summarizes the node for /debug/health.
type Status struct {
	Role    string         `json:"role"`
	Ack     string         `json:"ack"`
	Epoch   uint64         `json:"epoch"`
	Frames  uint64         `json:"frames"`
	Targets []TargetStatus `json:"targets,omitempty"`
}

// Status reports the node's replication posture.
func (n *Node) Status() Status {
	st := Status{Ack: n.cfg.Ack, Epoch: n.cfg.Store.Epoch(), Frames: n.cfg.Store.Frames(), Role: "follower"}
	n.leadMu.Lock()
	leading := n.leading
	shippers := append([]*shipper(nil), n.shippers...)
	n.leadMu.Unlock()
	if leading {
		st.Role = "leader"
		head := st.Frames
		n.ackMu.Lock()
		for _, s := range shippers {
			acked := n.acked[s.target]
			ts := TargetStatus{Target: s.target, Acked: acked, Breaker: s.breaker.State().String()}
			if head > acked {
				ts.LagFrames = head - acked
				ts.LagSeconds = s.lagSeconds()
			}
			st.Targets = append(st.Targets, ts)
		}
		n.ackMu.Unlock()
	}
	return st
}

// AuditProbe compares each follower's stream digest, at the exact
// frame count the follower reports, against the leader's own digest
// history — the audit.Config.Replication hook. A diverged follower
// (same cursor, different digest) or a follower ahead of the leader
// is a violation; an unreachable follower or one whose cursor aged
// out of the digest ring is skipped, not flagged.
func (n *Node) AuditProbe() (string, bool) {
	if !n.IsLeading() {
		return "follower: not auditing peers", true
	}
	head := n.cfg.Store.Frames()
	checked, skipped := 0, 0
	var maxLag uint64
	for _, target := range n.cfg.Targets {
		st, err := n.probeStatus(context.Background(), target)
		if err != nil {
			skipped++
			continue
		}
		if st.Frames > head {
			return fmt.Sprintf("follower %s ahead of leader: %d > %d frames", target, st.Frames, head), false
		}
		want, okAt := n.cfg.Store.DigestAt(st.Frames)
		if !okAt {
			skipped++ // aged out of the digest ring; compare next sweep
			continue
		}
		if want != st.Digest {
			return fmt.Sprintf("follower %s diverged at frame %d: digest %08x != leader %08x",
				target, st.Frames, st.Digest, want), false
		}
		checked++
		if lag := head - st.Frames; lag > maxLag {
			maxLag = lag
		}
	}
	return fmt.Sprintf("checked %d/%d followers, %d skipped, max lag %d frames",
		checked, len(n.cfg.Targets), skipped, maxLag), true
}

// probeStatus fetches a peer's /replica/status.
func (n *Node) probeStatus(ctx context.Context, target string) (statusResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/replica/status", nil)
	if err != nil {
		return statusResponse{}, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return statusResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusResponse{}, fmt.Errorf("replica: status probe of %s: HTTP %d", target, resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return statusResponse{}, err
	}
	return st, nil
}
