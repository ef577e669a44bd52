package replica

// The shipper: one tail-follow loop per target. It learns the
// follower's cursor from /replica/status, streams chunks of framed
// records from the local store's ReadFrom, and re-bootstraps the
// follower from the newest snapshot when its cursor was compacted
// away. The hop is guarded by the shared resilience kit — retry with
// jittered backoff per shipment, a per-target circuit breaker so a
// dead follower costs one probe per cooldown instead of a hot loop,
// and optional chaos (latency, partition) injected before every POST.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/resilience"
	"github.com/datamarket/mbp/internal/rng"
	"github.com/datamarket/mbp/internal/store"
)

// errDeposed reports a 409 from a peer: a higher epoch exists and
// this leader must step down.
type errDeposed struct {
	epoch  uint64
	leader string
}

func (e *errDeposed) Error() string {
	return fmt.Sprintf("replica: fenced by epoch %d", e.epoch)
}

// errRewind reports a 412: the follower is at a lower cursor than the
// shipment assumed, so the shipper rewinds to it.
type errRewind struct{ frames uint64 }

func (e *errRewind) Error() string {
	return fmt.Sprintf("replica: follower cursor at %d, rewinding", e.frames)
}

type shipper struct {
	n       *Node
	target  string
	breaker *resilience.Breaker
	r       *rng.RNG

	metShipped *obs.Counter
	metErrs    *obs.Counter
	metSnaps   *obs.Counter
	metLagF    *obs.Gauge
	metLagS    *obs.Gauge
	names      []string // the labeled series above

	cursor     uint64
	haveCursor bool

	// caughtMu guards lastCaught, the last instant this target held
	// the full stream, and parked, set while the shipper waits for the
	// next frame with the target caught up (Status and the other
	// shippers read both).
	caughtMu   sync.Mutex
	lastCaught time.Time
	parked     bool
}

// minBackoff floors the sleep after a failed step, so a retry policy
// with no delay cannot turn a dead follower into a hot loop.
const minBackoff = 10 * time.Millisecond

func newShipper(n *Node, target string, idx uint64) *shipper {
	s := &shipper{
		n:          n,
		target:     target,
		breaker:    resilience.NewBreaker(n.cfg.Breaker),
		r:          rng.Stream(n.cfg.Seed, idx+1),
		lastCaught: time.Now(),
	}
	s.metShipped = obs.Default.Counter(s.series("replica.frames_shipped_total"))
	s.metErrs = obs.Default.Counter(s.series("replica.ship_errors_total"))
	s.metSnaps = obs.Default.Counter(s.series("replica.snapshots_shipped_total"))
	s.metLagF = obs.Default.Gauge(s.series("replica.lag_frames"))
	s.metLagS = obs.Default.Gauge(s.series("replica.lag_seconds"))
	return s
}

// series names this target's labeled series of base, and remembers it
// for Node.Stop to remove.
func (s *shipper) series(base string) string {
	name := obs.Name(base, "target", s.target)
	s.names = append(s.names, name)
	return name
}

// run tails the local store into the target until ctx is canceled or
// the leader is deposed.
func (s *shipper) run(ctx context.Context) {
	for ctx.Err() == nil {
		progressed, err := s.step(ctx)
		s.updateLag()
		if err != nil {
			var dep *errDeposed
			if errors.As(err, &dep) {
				s.n.stepDown(dep.epoch, dep.leader)
				return
			}
			if ctx.Err() != nil {
				return
			}
			s.metErrs.Inc()
			s.sleep(ctx, s.backoff())
			continue
		}
		if !progressed {
			s.park(ctx)
		}
	}
}

// park blocks a caught-up shipper until the store commits a frame past
// its cursor, so a new frame ships as soon as it is durable. The
// target holds the full stream until that moment.
func (s *shipper) park(ctx context.Context) {
	s.caughtMu.Lock()
	s.parked = true
	s.caughtMu.Unlock()
	// A canceled ctx ends run's loop, and a closed store fails the next
	// step, so the error needs no handling here.
	_ = s.n.cfg.Store.WaitFrames(ctx, s.cursor)
	s.caughtMu.Lock()
	s.parked = false
	s.lastCaught = time.Now()
	s.caughtMu.Unlock()
}

// step advances the target by one unit of work: learning the cursor,
// shipping one chunk, or shipping a snapshot bootstrap. It reports
// whether it moved data (false = caught up, park before retrying).
func (s *shipper) step(ctx context.Context) (bool, error) {
	if !s.haveCursor {
		st, err := s.probe(ctx)
		if err != nil {
			return false, err
		}
		if st.Epoch > s.n.cfg.Store.Epoch() {
			return false, &errDeposed{epoch: st.Epoch, leader: st.Leader}
		}
		s.cursor = st.Frames
		s.haveCursor = true
		s.n.noteAck(s.target, st.Frames)
	}
	batch, next, err := s.n.cfg.Store.ReadFrom(s.cursor, s.n.cfg.ChunkBytes)
	if errors.Is(err, store.ErrCompacted) {
		return true, s.shipSnapshot(ctx)
	}
	if err != nil {
		return false, err
	}
	if len(batch) == 0 {
		// Caught up. The follower's ack already covers s.cursor.
		return false, nil
	}
	acked, err := s.postFrames(ctx, s.cursor, batch)
	if err != nil {
		var rw *errRewind
		if errors.As(err, &rw) {
			s.cursor = rw.frames
			return true, nil
		}
		return false, err
	}
	s.metShipped.Add(uint64(len(batch)))
	s.n.noteAck(s.target, acked)
	s.cursor = next
	if acked > next {
		s.cursor = acked
	}
	return true, nil
}

// postFrames ships one chunk under retry + breaker + chaos. On success
// it returns the follower's durable cursor.
func (s *shipper) postFrames(ctx context.Context, cursor uint64, batch [][]byte) (uint64, error) {
	body := store.EncodeFrames(nil, batch)
	var acked uint64
	err := s.n.cfg.Retry.Do(ctx, s.r, func(int) error {
		if err := s.breaker.Allow(); err != nil {
			return err
		}
		f, err := s.postOnce(ctx, cursor, body)
		s.breaker.Record(err)
		if err != nil {
			return err
		}
		acked = f
		return nil
	})
	return acked, err
}

// postOnce is a single POST /replica/frames attempt.
func (s *shipper) postOnce(ctx context.Context, cursor uint64, body []byte) (uint64, error) {
	if err := s.n.cfg.Chaos.Delay(ctx); err != nil {
		return 0, err
	}
	if err := s.n.cfg.Chaos.Partition(ctx); err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.target+"/replica/frames", bytes.NewReader(body))
	if err != nil {
		return 0, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(headerEpoch, strconv.FormatUint(s.n.cfg.Store.Epoch(), 10))
	req.Header.Set(headerLeader, s.n.cfg.Self)
	req.Header.Set(headerCursor, strconv.FormatUint(cursor, 10))
	resp, err := s.n.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return s.decodeShipResponse(resp)
}

// decodeShipResponse maps the wire statuses onto shipper control flow.
func (s *shipper) decodeShipResponse(resp *http.Response) (uint64, error) {
	switch resp.StatusCode {
	case http.StatusOK:
		var fr framesResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			return 0, err
		}
		return fr.Frames, nil
	case http.StatusPreconditionFailed:
		var fr framesResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			return 0, err
		}
		return 0, resilience.Permanent(&errRewind{frames: fr.Frames})
	case http.StatusConflict:
		var fe fencedResponse
		if err := json.NewDecoder(resp.Body).Decode(&fe); err != nil {
			return 0, err
		}
		return 0, resilience.Permanent(&errDeposed{epoch: fe.Epoch, leader: fe.Leader})
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("replica: %s: HTTP %d: %s", s.target, resp.StatusCode, msg)
	}
}

// shipSnapshot bootstraps the target from the newest local snapshot;
// afterwards the tail resumes at the snapshot boundary.
func (s *shipper) shipSnapshot(ctx context.Context) error {
	framesBefore, digest, payload, err := s.n.cfg.Store.LatestSnapshot()
	if err != nil {
		return err
	}
	err = s.n.cfg.Retry.Do(ctx, s.r, func(int) error {
		if err := s.breaker.Allow(); err != nil {
			return err
		}
		perr := s.postSnapshotOnce(ctx, framesBefore, digest, payload)
		s.breaker.Record(perr)
		return perr
	})
	if err != nil {
		return err
	}
	s.metSnaps.Inc()
	s.cursor = framesBefore
	s.n.noteAck(s.target, framesBefore)
	s.n.log.Info("replica: shipped snapshot bootstrap", "target", s.target, "frames_before", framesBefore)
	return nil
}

func (s *shipper) postSnapshotOnce(ctx context.Context, framesBefore uint64, digest uint32, payload []byte) error {
	if err := s.n.cfg.Chaos.Delay(ctx); err != nil {
		return err
	}
	if err := s.n.cfg.Chaos.Partition(ctx); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.target+"/replica/snapshot", bytes.NewReader(payload))
	if err != nil {
		return resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(headerEpoch, strconv.FormatUint(s.n.cfg.Store.Epoch(), 10))
	req.Header.Set(headerLeader, s.n.cfg.Self)
	req.Header.Set(headerFramesBefore, strconv.FormatUint(framesBefore, 10))
	req.Header.Set(headerDigest, strconv.FormatUint(uint64(digest), 10))
	req.Header.Set(headerPayloadCRC, strconv.FormatUint(uint64(crc32.Checksum(payload, castagnoli)), 10))
	resp, err := s.n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	f, err := s.decodeShipResponse(resp)
	if err != nil {
		return err
	}
	// The follower may already hold more than the snapshot boundary;
	// resume tailing from wherever it actually is.
	if f > framesBefore {
		s.cursor = f
		s.n.noteAck(s.target, f)
	}
	return nil
}

// probe fetches the target's status to learn its cursor.
func (s *shipper) probe(ctx context.Context) (statusResponse, error) {
	if err := s.n.cfg.Chaos.Partition(ctx); err != nil {
		return statusResponse{}, err
	}
	return s.n.probeStatus(ctx, s.target)
}

// updateLag refreshes this target's labeled lag gauges and the plain
// aggregate (max over targets) the SLO evaluator watches.
func (s *shipper) updateLag() {
	head := s.n.cfg.Store.Frames()
	s.n.ackMu.Lock()
	acked := s.n.acked[s.target]
	s.n.ackMu.Unlock()
	var lagF uint64
	if head > acked {
		lagF = head - acked
	}
	s.caughtMu.Lock()
	if lagF == 0 {
		s.lastCaught = time.Now()
	}
	s.caughtMu.Unlock()
	lagS := s.lagSeconds()
	s.metLagF.Set(float64(lagF))
	s.metLagS.Set(lagS)

	// Aggregate across the shippers of the current leadership term.
	s.n.leadMu.Lock()
	shippers := append([]*shipper(nil), s.n.shippers...)
	s.n.leadMu.Unlock()
	var maxF, maxS float64
	s.n.ackMu.Lock()
	for _, sh := range shippers {
		if lag := float64(head) - float64(s.n.acked[sh.target]); lag > maxF {
			maxF = lag
		}
	}
	s.n.ackMu.Unlock()
	for _, sh := range shippers {
		if v := sh.lagSeconds(); v > maxS {
			maxS = v
		}
	}
	if maxF < 0 {
		maxF = 0
	}
	metLagFrames.Set(maxF)
	metLagSeconds.Set(maxS)
}

// lagSeconds reports how long this target has been behind the head
// (0 when caught up).
func (s *shipper) lagSeconds() float64 {
	s.caughtMu.Lock()
	defer s.caughtMu.Unlock()
	if s.parked || time.Since(s.lastCaught) <= 0 {
		return 0
	}
	return time.Since(s.lastCaught).Seconds()
}

// backoff is the sleep after a failed step: the retry policy's cap,
// jittered, floored at minBackoff.
func (s *shipper) backoff() time.Duration {
	d := s.n.cfg.Retry.MaxDelay
	if d <= 0 {
		d = 250 * time.Millisecond
	}
	return max(time.Duration(s.r.Uniform(0.5, 1.5)*float64(d)), minBackoff)
}

func (s *shipper) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
