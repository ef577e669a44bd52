package main

// The -throughput mode measures the broker's serving hot path end to
// end — the ops/sec a single process sustains on Quote and BuyAtPoint
// — and emits the numbers as JSON (BENCH_throughput.json in CI). Each
// op count pairs a single-goroutine baseline ("before": what a
// serialized broker could do at best) with a GOMAXPROCS-wide run
// ("after": what the lock-free snapshot/stream/sharded-ledger design
// sustains); the speedup columns are the ratio. On a single-core
// machine the ratio degrades to ~1 by construction — the interesting
// number there is that contention adds no cliff.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/audit"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs"
)

// throughputPhase is one measured (operation, worker-count) cell.
type throughputPhase struct {
	Op        string  `json:"op"`
	Workers   int     `json:"workers"`
	Ops       uint64  `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"opsPerSec"`
}

// throughputReport is the BENCH_throughput.json schema. The audit
// block prices the market-health auditor (internal/market/audit)
// against the serving path: the "buy-audited" phase repeats the
// parallel buy cell with an auditor sweeping the same broker, and the
// duty-cycle figure — quiescently-timed sweep cost over the sweep
// cadence, the share of one core the auditor occupies — is the stable
// overhead bound (the ops/s delta between the two buy phases also
// reflects run-to-run machine noise). CI asserts AuditDutyPct stays
// under 1.
type throughputReport struct {
	GOMAXPROCS   int               `json:"gomaxprocs"`
	NumCPU       int               `json:"numCpu"`
	Fixture      string            `json:"fixture"`
	Phases       []throughputPhase `json:"phases"`
	BuySpeedup   float64           `json:"buySpeedup"`
	QuoteSpeedup float64           `json:"quoteSpeedup"`
	// AuditIntervalSeconds is the sweep cadence the audited phase used —
	// d/8, clamped to ≥50ms, a deliberate stress multiple of the 2s
	// production default so a short CI window still lands sweeps.
	AuditIntervalSeconds float64 `json:"auditIntervalSeconds"`
	// AuditSweeps is how many sweeps landed inside the audited phase.
	AuditSweeps int `json:"auditSweeps"`
	// AuditSweepSeconds is the mean cost of one sweep, timed after the
	// workers stop, against the ledger the phase built.
	AuditSweepSeconds float64 `json:"auditSweepSeconds"`
	// AuditDutyPct is AuditSweepSeconds over the cadence, as a percent:
	// the share of one core the auditor occupies at that cadence.
	AuditDutyPct float64 `json:"auditDutyPct"`
}

// measureThroughput drives op from workers goroutines for roughly d and
// returns the completed-op count and elapsed wall time.
func measureThroughput(workers int, d time.Duration, op func() error) (uint64, float64, error) {
	var (
		ops  atomic.Uint64
		stop atomic.Bool
		wg   sync.WaitGroup
		errc = make(chan error, workers)
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := op(); err != nil {
					errc <- err
					return
				}
				ops.Add(1)
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(errc)
	for err := range errc {
		return 0, 0, err
	}
	return ops.Load(), elapsed, nil
}

// runThroughput executes the serial-vs-parallel sweep and writes the
// JSON report to out ("-" = stdout).
func runThroughput(out string, d time.Duration, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := throughputReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Fixture:    "markettest CASP linear-regression, mid-menu δ",
	}

	type cell struct {
		op      string
		workers int
		run     func(b *market.Broker, delta float64) func() error
	}
	buy := func(b *market.Broker, delta float64) func() error {
		return func() error {
			_, _, err := b.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta})
			return err
		}
	}
	quote := func(b *market.Broker, delta float64) func() error {
		return func() error {
			_, _, err := b.Quote(context.Background(), markettest.Model, delta)
			return err
		}
	}
	cells := []cell{
		{"buy", 1, buy},
		{"buy", workers, buy},
		{"quote", 1, quote},
		{"quote", workers, quote},
	}
	perSec := make(map[string]map[int]float64)
	for _, c := range cells {
		// A fresh broker per cell isolates the ledgers.
		b, err := markettest.New(1)
		if err != nil {
			return err
		}
		menu, err := b.PriceErrorCurve(markettest.Model, "")
		if err != nil {
			return err
		}
		delta := menu[len(menu)/2].Delta
		ops, secs, err := measureThroughput(c.workers, d, c.run(b, delta))
		if err != nil {
			return err
		}
		ph := throughputPhase{Op: c.op, Workers: c.workers, Ops: ops, Seconds: secs, OpsPerSec: float64(ops) / secs}
		rep.Phases = append(rep.Phases, ph)
		if perSec[c.op] == nil {
			perSec[c.op] = make(map[int]float64)
		}
		perSec[c.op][c.workers] = ph.OpsPerSec
	}
	if base := perSec["buy"][1]; base > 0 {
		rep.BuySpeedup = perSec["buy"][workers] / base
	}
	if base := perSec["quote"][1]; base > 0 {
		rep.QuoteSpeedup = perSec["quote"][workers] / base
	}

	// The audited buy phase: the parallel buy cell again, this time with
	// the market-health auditor sweeping the same broker. The phase's
	// ops/s sits next to the plain buy phase for eyeballing, but the
	// gated overhead figure is computed from sweeps timed *after* the
	// workers stop: mid-phase wall timings on a saturated box mostly
	// measure scheduler wait, not auditor work. Quiescent sweep cost
	// over the sweep cadence is the share of one core the auditor
	// occupies at that cadence — the <1% acceptance bound.
	b, err := markettest.New(1)
	if err != nil {
		return err
	}
	menu, err := b.PriceErrorCurve(markettest.Model, "")
	if err != nil {
		return err
	}
	delta := menu[len(menu)/2].Delta
	auditEvery := d / 8
	if auditEvery < 50*time.Millisecond {
		auditEvery = 50 * time.Millisecond
	}
	aud := audit.New(audit.Config{Broker: b, Interval: auditEvery, Seed: 1, Registry: obs.NewRegistry()})
	var (
		auditSweeps int
		stopAudit   = make(chan struct{})
		auditDone   = make(chan struct{})
	)
	go func() {
		defer close(auditDone)
		tick := time.NewTicker(auditEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopAudit:
				return
			case now := <-tick.C:
				aud.Sweep(now)
				auditSweeps++
			}
		}
	}()
	ops, secs, err := measureThroughput(workers, d, buy(b, delta))
	close(stopAudit)
	<-auditDone
	if err != nil {
		return err
	}
	ph := throughputPhase{Op: "buy-audited", Workers: workers, Ops: ops, Seconds: secs, OpsPerSec: float64(ops) / secs}
	rep.Phases = append(rep.Phases, ph)

	// Quiescent sweep timing against the ledger the phase just built.
	const quietSweeps = 5
	var auditBusy time.Duration
	nowQ := time.Now()
	for i := 0; i < quietSweeps; i++ {
		nowQ = nowQ.Add(auditEvery)
		t0 := time.Now()
		aud.Sweep(nowQ)
		auditBusy += time.Since(t0)
	}
	rep.AuditIntervalSeconds = auditEvery.Seconds()
	rep.AuditSweeps = auditSweeps
	rep.AuditSweepSeconds = (auditBusy / quietSweeps).Seconds()
	rep.AuditDutyPct = rep.AuditSweepSeconds / auditEvery.Seconds() * 100

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if out == "" || out == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("throughput: buy %.0f → %.0f ops/s (×%.2f), quote %.0f → %.0f ops/s (×%.2f) at %d workers → %s\n",
		perSec["buy"][1], perSec["buy"][workers], rep.BuySpeedup,
		perSec["quote"][1], perSec["quote"][workers], rep.QuoteSpeedup,
		workers, out)
	fmt.Printf("throughput: audited buy %.0f ops/s; %d sweeps at %v, %.2fms/sweep, %.3f%% duty cycle\n",
		ph.OpsPerSec, auditSweeps, auditEvery, rep.AuditSweepSeconds*1e3, rep.AuditDutyPct)
	return nil
}
