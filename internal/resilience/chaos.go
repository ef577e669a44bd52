package resilience

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/rng"
	"github.com/datamarket/mbp/internal/store"
)

// Chaos metrics: every injected fault is counted, so a chaos run's
// /metrics snapshot shows exactly how much failure was injected next
// to how the pipeline absorbed it.
var (
	metChaosLatency = obs.Default.Counter(obs.Name("resilience.chaos_injected_total", "kind", "latency"))
	metChaosHangs   = obs.Default.Counter(obs.Name("resilience.chaos_injected_total", "kind", "hang"))
	metChaosDrops   = obs.Default.Counter(obs.Name("resilience.chaos_injected_total", "kind", "drop"))
	metChaosTorn    = obs.Default.Counter(obs.Name("resilience.chaos_injected_total", "kind", "torn_write"))
	metChaosShort   = obs.Default.Counter(obs.Name("resilience.chaos_injected_total", "kind", "short_write"))
	metChaosFsync   = obs.Default.Counter(obs.Name("resilience.chaos_injected_total", "kind", "fsync_error"))
	metChaosPart    = obs.Default.Counter(obs.Name("resilience.chaos_injected_total", "kind", "partition"))
)

// ChaosConfig sets the per-decision fault probabilities. All
// probabilities are clamped to [0, 1] at decision time.
type ChaosConfig struct {
	// LatencyProb is the probability Delay sleeps.
	LatencyProb float64
	// Latency is the mean injected sleep; each injection draws
	// uniformly from [0.5·Latency, 1.5·Latency). Default 10ms.
	Latency time.Duration
	// HangProb is the probability Delay blocks until the request's
	// context is done — the "stuck dependency" failure mode that only
	// deadlines can cut short.
	HangProb float64
	// DropProb is the probability Drop reports true: the handler ran
	// (the purchase committed) but the response is lost — the
	// canonical double-charge scenario idempotency keys exist for.
	DropProb float64
	// TornProb is the probability a StoreFaults write is torn: a prefix
	// of the frame reaches disk and the store fails as if the process
	// had crashed mid-append. Recovery on reopen must truncate the
	// tear — the crash drill the durability layer exists for.
	TornProb float64
	// ShortProb is the probability a StoreFaults write fails cleanly
	// (nothing written, store stays healthy): the transient-disk-error
	// case the sale path must refuse without charging the buyer.
	ShortProb float64
	// FsyncErrProb is the probability a StoreFaults fsync fails.
	FsyncErrProb float64
	// PartitionProb is the probability Partition reports the link cut:
	// a replication shipment is dropped on the floor as if the network
	// between leader and follower had failed. Combined with Delay it
	// models a flaky WAN hop; quorum acknowledgement must stall, not
	// lose data, while it fires.
	PartitionProb float64
}

// Chaos injects faults probabilistically. Every decision draws from
// its own rng.Stream keyed by (seed, decision index), so a chaos
// schedule is a pure function of the seed and the order decisions are
// requested in — rerunning a serial test replays the exact same
// faults. A nil *Chaos is a no-op everywhere, so call sites need no
// nil checks.
type Chaos struct {
	cfg  atomic.Pointer[ChaosConfig]
	seed uint64
	n    atomic.Uint64
}

// NewChaos returns a fault injector with the given probabilities,
// drawing decisions from streams derived from seed.
func NewChaos(seed uint64, cfg ChaosConfig) *Chaos {
	c := &Chaos{seed: seed}
	c.Update(cfg)
	return c
}

// Update atomically replaces the probabilities; the decision stream
// position is kept. Tests use it to stop injecting faults mid-run.
func (c *Chaos) Update(cfg ChaosConfig) {
	if cfg.Latency <= 0 {
		cfg.Latency = 10 * time.Millisecond
	}
	c.cfg.Store(&cfg)
}

// Config returns the current probabilities (zero value for nil).
func (c *Chaos) Config() ChaosConfig {
	if c == nil {
		return ChaosConfig{}
	}
	return *c.cfg.Load()
}

// draw returns the RNG stream for the next decision.
func (c *Chaos) draw() *rng.RNG {
	return rng.Stream(c.seed, c.n.Add(1))
}

// Delay injects latency (probability LatencyProb) or a hang until ctx
// is done (probability HangProb), returning ctx's error if the
// request was cut short mid-injection. Hang is checked first so a
// hang schedule cannot be masked by a latency draw.
func (c *Chaos) Delay(ctx context.Context) error {
	if c == nil {
		return nil
	}
	cfg := c.cfg.Load()
	r := c.draw()
	if r.Bernoulli(cfg.HangProb) {
		metChaosHangs.Inc()
		<-ctx.Done()
		return ctx.Err()
	}
	if r.Bernoulli(cfg.LatencyProb) {
		metChaosLatency.Inc()
		d := time.Duration(r.Uniform(0.5, 1.5) * float64(cfg.Latency))
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return ctx.Err()
}

// Drop reports whether the response should be discarded after the
// handler ran (probability DropProb).
func (c *Chaos) Drop() bool {
	if c == nil {
		return false
	}
	if c.draw().Bernoulli(c.cfg.Load().DropProb) {
		metChaosDrops.Inc()
		return true
	}
	return false
}

// Partition returns ErrInjected with probability PartitionProb —
// wired on the leader→follower frame-shipping hop, where it drops the
// shipment before it reaches the wire (the follower sees nothing; the
// shipper's retry loop re-sends from the follower's cursor).
func (c *Chaos) Partition(ctx context.Context) error {
	if c == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.draw().Bernoulli(c.cfg.Load().PartitionProb) {
		metChaosPart.Inc()
		return ErrInjected
	}
	return nil
}

// StoreFaults adapts the injector to the storage engine's fault hooks
// (store.Options.Faults): torn writes (TornProb) leave a partial frame
// on disk and fail the store exactly like a crash mid-append, short
// writes (ShortProb) fail the append cleanly with nothing written, and
// fsync errors (FsyncErrProb) fail the durability barrier. Returns nil
// for a nil injector. Torn is drawn before short so a torn schedule
// cannot be masked.
func (c *Chaos) StoreFaults() *store.Faults {
	if c == nil {
		return nil
	}
	return &store.Faults{
		Write: func(frame []byte) (int, error) {
			cfg := c.cfg.Load()
			r := c.draw()
			if r.Bernoulli(cfg.TornProb) && len(frame) > 1 {
				metChaosTorn.Inc()
				return 1 + r.Intn(len(frame)-1), ErrInjected
			}
			if r.Bernoulli(cfg.ShortProb) {
				metChaosShort.Inc()
				return 0, ErrInjected
			}
			return len(frame), nil
		},
		Sync: func() error {
			if c.draw().Bernoulli(c.cfg.Load().FsyncErrProb) {
				metChaosFsync.Inc()
				return ErrInjected
			}
			return nil
		},
	}
}

// ParseChaos builds a Chaos from a comma-separated spec, the format
// of cmd/mbpmarket's -chaos flag:
//
//	latency=0.05,latency-ms=20,hang=0.01,drop=0.02,seed=7
//
// The storage-engine fault keys torn, short and fsync-err feed
// StoreFaults; partition feeds the replication shipping hop (see
// Partition).
//
// Unknown keys, unparsable values, or out-of-range probabilities are
// errors. An empty spec returns (nil, nil): chaos disabled.
func ParseChaos(spec string) (*Chaos, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	cfg := ChaosConfig{}
	var seed uint64 = 1
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("resilience: chaos spec %q: want key=value", part)
		}
		if key == "seed" {
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("resilience: chaos seed %q: %w", val, err)
			}
			seed = s
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("resilience: chaos %s=%q: %w", key, val, err)
		}
		switch key {
		case "latency-ms":
			if f < 0 {
				return nil, fmt.Errorf("resilience: chaos latency-ms must be >= 0, got %v", f)
			}
			cfg.Latency = time.Duration(f * float64(time.Millisecond))
			continue
		case "latency", "hang", "drop", "torn", "short", "fsync-err", "partition":
			if f < 0 || f > 1 {
				return nil, fmt.Errorf("resilience: chaos %s must be in [0, 1], got %v", key, f)
			}
		default:
			return nil, fmt.Errorf("resilience: unknown chaos key %q", key)
		}
		switch key {
		case "latency":
			cfg.LatencyProb = f
		case "hang":
			cfg.HangProb = f
		case "drop":
			cfg.DropProb = f
		case "torn":
			cfg.TornProb = f
		case "short":
			cfg.ShortProb = f
		case "fsync-err":
			cfg.FsyncErrProb = f
		case "partition":
			cfg.PartitionProb = f
		}
	}
	return NewChaos(seed, cfg), nil
}
