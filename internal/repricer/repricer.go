// Package repricer closes the loop the paper leaves open: the revenue
// DP (internal/revopt) prices the menu once from the seller's market
// research, and the menu never moves again — even when the buyers the
// broker actually serves value the versions differently than the
// research guessed. The repricer taps the broker's transaction ledger
// for observed demand, re-fits the (aⱼ, vⱼ, bⱼ) market surface over a
// sliding window, re-solves the DP off the hot path, and republishes
// the menu through the broker's copy-on-write snapshot — but only
// after the candidate curve passes the same arbitrage-freeness
// certification as the original publish, plus an exact attack search
// (internal/arbitrage.FindAttack) at seeded random targets. A rejected
// candidate keeps the old prices; quotes never block and never see an
// uncertified menu.
//
// Everything randomized — the per-arm exploration perturbations and
// the attack-search targets — draws from rng.Stream(seed, epoch), so a
// run's entire repricing trajectory is reproducible from the seed.
// mbpload drives epochs at deterministic buyer-count barriers (same
// seed ⇒ byte-identical epoch sequence regardless of worker count);
// cmd/mbpmarket runs the wall-clock Start loop.
//
// The estimator (estimator.go) and the exploration/repair pipeline are
// documented in docs/repricing.md.
package repricer

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"github.com/datamarket/mbp/internal/arbitrage"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/revopt"
	"github.com/datamarket/mbp/internal/rng"
)

// Defaults.
const (
	DefaultInterval = 5 * time.Second
	DefaultWindow   = 4
	DefaultExplore  = 0.05
	DefaultMaxK     = 3
	// attackProbes is how many seeded exact attack searches gate each
	// candidate before publish.
	attackProbes = 4
	// exploreProb is the per-arm, per-epoch probability of an
	// exploration perturbation. Perturbing every arm every epoch keeps
	// too much of the menu overshot at once — an arm priced at its
	// bucket's valuation goes dark for the whole epoch whenever it is
	// probed — so each arm is probed rarely and sells at its
	// last-accepted price the rest of the time.
	exploreProb = 0.1
	// recentEpochs is the ring size served by /debug/repricer.
	recentEpochs = 64
)

// Epoch outcomes.
const (
	// OutcomePublished: the candidate passed certification and the
	// attack search and was swapped in.
	OutcomePublished = "published"
	// OutcomeRejected: a candidate was built but failed certification,
	// the attack search, or the broker's publish check — the old menu
	// stays.
	OutcomeRejected = "rejected"
	// OutcomeSkipped: no candidate was built (empty window, no DP
	// solve) — by design a no-op on the published menu.
	OutcomeSkipped = "skipped"
)

// Config wires a Repricer to a broker.
type Config struct {
	// Broker is the marketplace to reprice (required).
	Broker *market.Broker
	// Model is the offer whose curve is re-optimized (required).
	Model ml.Model
	// Interval between epochs for the wall-clock Start loop (default
	// 5s). Harness-driven epochs (Epoch) ignore it.
	Interval time.Duration
	// Window is the sliding demand window, in epochs: each epoch fits
	// the surface on the sales of the last Window epochs (default 4).
	Window int
	// Explore is the per-arm exploration amplitude: after the DP solve,
	// each arm independently gets — with probability exploreProb per
	// epoch — its price perturbed by a factor 1+eⱼ with eⱼ uniform in
	// [0, Explore), then the vector is repaired back to feasibility.
	// Starved arms (no posted-price sales in the window) decay their
	// prior price by Explore per epoch, so prices that demand has
	// abandoned come back down. 0 disables exploration and decay
	// (default 0.05).
	Explore float64
	// Seed drives the exploration and attack-target randomness; epoch n
	// draws from rng.Stream(Seed, n+1).
	Seed uint64
	// MaxK bounds the pre-publish arbitrage attack search (default 3).
	MaxK int
	// Registry receives the reprice.* metrics (default obs.Default).
	Registry *obs.Registry
	// Logger receives publish/reject events (default slog.Default()).
	Logger *slog.Logger
	// Tracer scopes each epoch in a span (default trace.Default).
	Tracer *trace.Tracer
	// Tamper, when set, mutates the candidate points between the DP
	// solve and certification. Test hook: the certification gate must
	// reject whatever it produces without the broker ever serving it.
	Tamper func(pts []pricing.Point) []pricing.Point
}

// Record is one epoch's outcome, kept in the recent ring and served at
// /debug/repricer. At is wall time and excluded from determinism
// comparisons; everything else is a pure function of (seed, traffic).
type Record struct {
	Epoch uint64    `json:"epoch"`
	At    time.Time `json:"at"`
	// WindowStart/WindowEnd are ledger row counts bounding the sliding
	// window this epoch fitted.
	WindowStart int `json:"windowStart"`
	WindowEnd   int `json:"windowEnd"`
	// Samples is how many window sales matched the repriced model.
	Samples int `json:"samples"`
	// RealizedRevenue is the window's realized gross.
	RealizedRevenue float64 `json:"realizedRevenue"`
	// Objective is the DP optimum on the estimated surface (expected
	// revenue per sampled buyer); 0 when no solve ran.
	Objective float64 `json:"objective"`
	// RevenueRatio is RealizedRevenue / (Objective × Samples): how the
	// window's realized gross compares to what the re-solved menu
	// predicts for the same demand.
	RevenueRatio float64 `json:"revenueRatio"`
	// Outcome is published, rejected, or skipped; Reason says why for
	// the latter two.
	Outcome string `json:"outcome"`
	Reason  string `json:"reason,omitempty"`
	// Prices is the published price vector (grid order); only set on
	// published epochs.
	Prices []float64 `json:"prices,omitempty"`
}

// Summary is the repricer's cumulative state.
type Summary struct {
	Epochs        uint64  `json:"epochs"`
	Published     uint64  `json:"published"`
	Rejected      uint64  `json:"rejected"`
	Skipped       uint64  `json:"skipped"`
	WindowEpochs  int     `json:"windowEpochs"`
	Explore       float64 `json:"explore"`
	LastOutcome   string  `json:"lastOutcome,omitempty"`
	LastObjective float64 `json:"lastObjective"`
	LastSamples   int     `json:"lastSamples"`
	// LastPublishedEpoch is the epoch number of the newest published
	// menu (valid when Published > 0).
	LastPublishedEpoch uint64 `json:"lastPublishedEpoch"`
}

// Repricer runs the estimate → solve → certify → publish epochs.
type Repricer struct {
	cfg Config

	metEpochs    *obs.Counter
	metPublished *obs.Counter
	metRejected  *obs.Counter
	metSkipped   *obs.Counter
	metSolve     *obs.Histogram
	metWindow    *obs.Gauge
	metRatio     *obs.Gauge

	mu          sync.Mutex
	epochs      uint64
	published   uint64
	rejected    uint64
	skipped     uint64
	bounds      []int // ledger row counts at the last Window epoch ends
	lastPub     []pricing.Point
	lastPubAt   uint64
	hasPub      bool
	lastEpochAt time.Time
	last        Record
	recent      []Record // ring, newest at (head-1+len)%len
	recentHead  int
	recentCount int

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a Repricer. It panics on a nil broker — a wiring error.
func New(cfg Config) *Repricer {
	if cfg.Broker == nil {
		panic("repricer: nil broker")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Explore < 0 {
		cfg.Explore = DefaultExplore
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = DefaultMaxK
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Default
	}
	return &Repricer{
		cfg:          cfg,
		metEpochs:    cfg.Registry.Counter("reprice.epochs_total"),
		metPublished: cfg.Registry.Counter("reprice.published_total"),
		metRejected:  cfg.Registry.Counter("reprice.rejected_total"),
		metSkipped:   cfg.Registry.Counter("reprice.skipped_total"),
		metSolve:     cfg.Registry.Histogram("reprice.solve_seconds", obs.LatencyBuckets()),
		metWindow:    cfg.Registry.Gauge("reprice.window_samples"),
		metRatio:     cfg.Registry.Gauge("reprice.revenue_ratio"),
		recent:       make([]Record, recentEpochs),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
}

// Model reports which offer the repricer re-optimizes.
func (r *Repricer) Model() ml.Model { return r.cfg.Model }

// Interval reports the wall-clock epoch cadence.
func (r *Repricer) Interval() time.Duration { return r.cfg.Interval }

// Start launches the wall-clock epoch loop (cmd/mbpmarket mode).
func (r *Repricer) Start() {
	r.startOnce.Do(func() {
		go func() {
			defer close(r.done)
			tick := time.NewTicker(r.cfg.Interval)
			defer tick.Stop()
			for {
				select {
				case <-r.stop:
					return
				case now := <-tick.C:
					r.Epoch(now)
				}
			}
		}()
	})
}

// Stop halts the loop and waits for any in-flight epoch. Safe without
// Start and when called repeatedly.
func (r *Repricer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.startOnce.Do(func() { close(r.done) })
	<-r.done
}

// log late-resolves slog.Default so cmd wiring is picked up.
func (r *Repricer) log() *slog.Logger {
	if r.cfg.Logger != nil {
		return r.cfg.Logger
	}
	return slog.Default()
}

// Epoch runs one full estimate → solve → explore → certify → publish
// cycle at the given instant and returns its record. Exported so the
// workload harness can drive epochs at deterministic buyer-count
// barriers; the record is a pure function of (seed, epoch number,
// ledger window contents) — wall time lands only in Record.At.
func (r *Repricer) Epoch(now time.Time) Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	epochNo := r.epochs
	r.epochs++
	r.metEpochs.Inc()
	r.lastEpochAt = now

	ctx, span := r.cfg.Tracer.Start(context.Background(), "reprice.epoch",
		"epoch", fmt.Sprint(epochNo))
	defer span.End()

	rec := Record{Epoch: epochNo, At: now}
	finish := func(outcome, reason string) Record {
		rec.Outcome, rec.Reason = outcome, reason
		switch outcome {
		case OutcomePublished:
			r.published++
			r.metPublished.Inc()
			r.log().LogAttrs(ctx, slog.LevelInfo, "menu republished",
				slog.Uint64("epoch", epochNo),
				slog.Int("samples", rec.Samples),
				slog.Float64("objective", rec.Objective))
		case OutcomeRejected:
			r.rejected++
			r.metRejected.Inc()
			r.log().LogAttrs(ctx, slog.LevelError, "candidate menu rejected",
				slog.Uint64("epoch", epochNo),
				slog.String("reason", reason))
		case OutcomeSkipped:
			r.skipped++
			r.metSkipped.Inc()
		}
		span.SetAttr("outcome", outcome)
		r.last = rec
		r.recent[r.recentHead] = rec
		r.recentHead = (r.recentHead + 1) % len(r.recent)
		if r.recentCount < len(r.recent) {
			r.recentCount++
		}
		return rec
	}

	// Read the window off the ledger: the sales between the boundary
	// Window epochs back and now. Boundaries are row counts, so the
	// window's contents are a deterministic multiset of the sessions
	// completed between epochs, regardless of seq interleaving. Only the
	// window's rows are copied, not the history before it.
	start := 0
	if len(r.bounds) >= r.cfg.Window {
		start = r.bounds[len(r.bounds)-r.cfg.Window]
	}
	txs, rows := r.cfg.Broker.LedgerFrom(start)
	r.bounds = append(r.bounds, rows)
	if len(r.bounds) > r.cfg.Window {
		r.bounds = r.bounds[len(r.bounds)-r.cfg.Window:]
	}
	rec.WindowStart, rec.WindowEnd = start, rows

	curve, err := r.cfg.Broker.Curve(r.cfg.Model)
	if err != nil {
		return finish(OutcomeSkipped, fmt.Sprintf("no published curve: %v", err))
	}
	pts := curve.Points()
	grid := make([]float64, len(pts))
	prior := make([]float64, len(pts))
	for i, p := range pts {
		grid[i], prior[i] = p.X, p.Price
	}

	samples := make([]Sample, 0, len(txs))
	for i := range txs {
		if txs[i].Model != r.cfg.Model {
			continue
		}
		samples = append(samples, Sample{X: 1 / txs[i].Delta, Price: txs[i].Price})
	}
	// Seq assignment order varies across runs; sorting makes every
	// float reduction below order-independent.
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].X != samples[j].X {
			return samples[i].X < samples[j].X
		}
		return samples[i].Price < samples[j].Price
	})
	rec.Samples = len(samples)
	r.metWindow.Set(float64(len(samples)))
	if len(samples) == 0 {
		// Empty window: nothing observed, nothing to fit — the old
		// menu stays and no DP solve runs.
		return finish(OutcomeSkipped, "empty window")
	}
	for _, s := range samples {
		rec.RealizedRevenue += s.Price
	}

	est, err := Estimate(grid, prior, samples, r.decay())
	if err != nil {
		return finish(OutcomeSkipped, fmt.Sprintf("estimating demand surface: %v", err))
	}
	t0 := time.Now()
	res, err := revopt.MaximizeRevenueDPContext(ctx, est)
	r.metSolve.Observe(time.Since(t0).Seconds())
	if err != nil {
		return finish(OutcomeRejected, fmt.Sprintf("DP solve: %v", err))
	}
	rec.Objective = res.Revenue
	if res.Revenue > 0 {
		rec.RevenueRatio = rec.RealizedRevenue / (res.Revenue * float64(len(samples)))
		r.metRatio.Set(rec.RevenueRatio)
	}

	// Exploration arms: each arm is independently probed upward with
	// probability exploreProb by a seeded uniform factor, then the
	// vector is repaired back into program (4)'s feasible set (ratio
	// prefix-min + monotone backward pass) so it still admits an
	// arbitrage-free extension. Both draws happen for every arm
	// unconditionally so the stream's shape — and everything drawn
	// after it — is independent of which gates fire.
	z := append([]float64(nil), res.Z...)
	er := rng.Stream(r.cfg.Seed, epochNo+1)
	if r.cfg.Explore > 0 {
		for j := range z {
			gate := er.Float64()
			amp := er.Uniform(0, r.cfg.Explore)
			if gate < exploreProb {
				z[j] *= 1 + amp
			}
		}
		z = revopt.Repair(grid, z)
	}

	cpts := make([]pricing.Point, len(grid))
	for j := range grid {
		cpts[j] = pricing.Point{X: grid[j], Price: z[j]}
	}
	if r.cfg.Tamper != nil {
		cpts = r.cfg.Tamper(cpts)
	}

	// The gate: construction, full certification, seeded exact attack
	// searches, then the broker's own re-certifying publish. Any
	// failure leaves the old menu serving.
	cand, err := pricing.NewCurve(cpts)
	if err != nil {
		return finish(OutcomeRejected, fmt.Sprintf("building candidate curve: %v", err))
	}
	if err := cand.Certify(); err != nil {
		return finish(OutcomeRejected, fmt.Sprintf("certification: %v", err))
	}
	maxX := grid[len(grid)-1]
	for i := 0; i < attackProbes; i++ {
		target := er.Uniform(0, 2*maxX)
		if target <= 0 {
			continue
		}
		if atk := arbitrage.FindAttack(cand, target, r.cfg.MaxK); atk != nil {
			return finish(OutcomeRejected, fmt.Sprintf(
				"attack at x=%.6g: %d purchases for %.6g vs direct %.6g",
				atk.TargetX, len(atk.Purchases), atk.Cost, atk.TargetPrice))
		}
	}
	if err := r.cfg.Broker.RepublishCurve(r.cfg.Model, cand); err != nil {
		return finish(OutcomeRejected, fmt.Sprintf("publish: %v", err))
	}
	published := cand.Points()
	prices := make([]float64, len(published))
	for j, p := range published {
		prices[j] = p.Price
	}
	rec.Prices = prices
	r.lastPub = published
	r.lastPubAt = epochNo
	r.hasPub = true
	return finish(OutcomePublished, "")
}

// decay is the per-epoch price decay applied to starved arms. Full
// Explore rate: after a demand shift the decay path is the only route
// back down, and it has to out-run the shrinking window of epochs
// before the run's tail.
func (r *Repricer) decay() float64 { return r.cfg.Explore }

// LastPublished returns the points of the newest menu this repricer
// published and the epoch that published it; ok is false before the
// first publish. The auditor's reprice probe compares this against the
// broker's live curve.
func (r *Repricer) LastPublished() (pts []pricing.Point, epoch uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.hasPub {
		return nil, 0, false
	}
	return append([]pricing.Point(nil), r.lastPub...), r.lastPubAt, true
}

// LastEpochAt reports when the newest epoch ran; ok is false before
// the first epoch.
func (r *Repricer) LastEpochAt() (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastEpochAt, r.epochs > 0
}

// Recent returns the last n epoch records, newest first.
func (r *Repricer) Recent(n int) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.recentCount {
		n = r.recentCount
	}
	out := make([]Record, 0, n)
	for i := 1; i <= n; i++ {
		idx := r.recentHead - i
		if idx < 0 {
			idx += len(r.recent)
		}
		out = append(out, r.recent[idx])
	}
	return out
}

// Summary returns the cumulative repricer state.
func (r *Repricer) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Summary{
		Epochs:             r.epochs,
		Published:          r.published,
		Rejected:           r.rejected,
		Skipped:            r.skipped,
		WindowEpochs:       r.cfg.Window,
		Explore:            r.cfg.Explore,
		LastOutcome:        r.last.Outcome,
		LastObjective:      r.last.Objective,
		LastSamples:        r.last.Samples,
		LastPublishedEpoch: r.lastPubAt,
	}
}
