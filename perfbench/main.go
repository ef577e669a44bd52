// Command perfbench is the repository's benchmark of the buyer path.
// It builds the marketplace from its public packages, drives a seeded
// buyer population through it closed-loop, checks that every output
// is correct, and prints every metric by name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads, and why each is here:
//
//   - inproc-reprice: the demand-shift population, one buyer session
//     per CPU, against an in-process broker with the in-memory ledger and a repricer epoch
//     every 250 buyers. It isolates the paper's mechanism and the
//     broker's CPU cost: pricing, noise, the revenue split, the
//     program's tracing and the revenue DP, with no HTTP, WAL or
//     replication in the path.
//   - http-wal: the steady population, one buyer session at a time in
//     a process with one P, over HTTP on in-memory connections to a
//     broker whose durable ledger fsyncs every append, with three
//     sellers so each frame carries an attribution table. Quotes (no
//     WAL) share the path with buys (one append and fsync each).
//   - quorum: the http-wal load against the leader of a three-node
//     cluster, whose nodes talk over loopback TCP and acknowledge a
//     sale once two of them journaled it. It is the only workload in
//     which replication works; http-wal is its control.
//
// A run repeats one fixed-size schedule, each repetition on a fresh
// broker, WAL directory and cluster, until --seconds have passed (at
// least two repetitions). Each repetition reads its latency percentiles
// from exact samples; the run reports the median over repetitions of
// those, of throughput and of the live heap, and the median of at least
// five set-ups. The gated tail is p90: p99 did not repeat within a
// tenth across seeds at 30 s, and is printed but not gated. The
// economic results (revenue ratio, tail recovery, sale and replay
// fractions) are exact functions of the seed and must repeat bit for
// bit in every repetition.
//
// Every repetition must pass the workload report's invariants (no
// duplicate seqs, exact attribution and conservation, no arbitrage or
// replay mismatch, harness paid equal to ledger gross) and a repricer
// that rejected no menu. On http-wal, reopening the WAL must recover
// exactly the acknowledged sales; on quorum, every follower must reach
// the leader's frame count and stream digest.
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// alternates untraced and traced repetitions and prints the per-layer
// metrics: span timings and self times from the traced ones, runtime
// counters from the untraced ones, the tracing overhead from both, and
// stage replays of the pricing, noise and tracing code. A metric whose
// layer is not in the workload's path reads 0.
//
// A run that fails a check prints the failure on standard error and
// a result with "correct": false and no metrics, and exits 1.
// Everything the run writes lands under .bench_build/ in the working
// directory: WAL directories (removed after each repetition), the
// result document in results/ and the last traced repetition's spans
// in traces/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/store"
	"github.com/datamarket/mbp/internal/workload"
)

// minSetups is how many set-ups a run times at least; setup_s is
// their median.
const minSetups = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: inproc-reprice, http-wal or quorum")
	seed := fs.Uint64("seed", 1, "schedule and broker seed")
	seconds := fs.Int("seconds", 10, "how long to measure, in whole repetitions")
	traceFlag := fs.Int("trace", 0, "1 for the traced run and its per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	if sp.procs > 0 {
		runtime.GOMAXPROCS(sp.procs)
	}
	dir, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		spec:    sp,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		workers: sp.workers(),
		dir:     dir,
	}
	res, err := measure(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce *checkError
		if errors.As(err, &ce) {
			line, _ := json.Marshal(output{Correct: false, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]metric{}})
			fmt.Fprintln(stdout, string(line))
		}
		return 1
	}
	if err := res.report(cfg, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

type config struct {
	spec    spec
	seed    uint64
	seconds time.Duration
	traced  bool
	workers int
	dir     string // scratch root
}

// result is everything a run measured.
type result struct {
	reps        []*repOut
	sched       *workload.Schedule // the first repetition's, for the stage replays
	setups      []float64          // seconds
	schedBuilds []float64          // seconds
	stages      stages
	walFS       string
	attempted   int       // ops over all repetitions
	failed      int       // of those, errors and shed ops
	spans       spanStats // traced repetitions
	lastSpans   []span    // the last traced repetition's, written out at the end
}

// measure runs repetitions until the time is up and, traced, the stage
// replays. On error it still returns what it counted.
func measure(ctx context.Context, c config) (*result, error) {
	res := &result{}
	walRoot := filepath.Join(c.dir, "wal", fmt.Sprintf("%s-%d", c.spec.name, os.Getpid()))
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(walRoot)
	res.walFS = fsType(walRoot)

	// The first fixture in a process trains the offer (and, with
	// several sellers, the Shapley stakes); every later broker is a
	// snapshot restore. Pay that once, outside the timed set-ups.
	if _, err := markettest.New(c.seed); err != nil {
		return res, err
	}
	if c.spec.sellers > 0 {
		if _, err := markettest.MultiSellerStakes(c.spec.sellers); err != nil {
			return res, err
		}
	}

	deadline := time.Now().Add(c.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		traced := c.traced && i%2 == 1
		r, err := runRep(ctx, c.spec, c.seed, c.workers, filepath.Join(walRoot, fmt.Sprintf("rep%d", i)), traced)
		if r != nil {
			res.attempted += r.report.Ops["total"].Issued
			res.failed += r.report.Ops["total"].Errors + r.report.Ops["total"].Shed
		}
		if err != nil {
			return res, fmt.Errorf("repetition %d: %w", i, err)
		}
		if i > 0 && r.exact != res.reps[0].exact {
			return res, checkFailed("exact results differ between repetitions of one seed: %+v vs %+v", r.exact, res.reps[0].exact)
		}
		q, b := r.quote, r.buy
		fmt.Fprintf(os.Stderr, "repetition %d traced=%v: setup %.4fs, %.0f ops/s, quote p50 %.1fus, buy p50 %.1fus, heap %.2fMB\n",
			i, traced, r.setup.Seconds(), r.report.OpsPerSec, us(q.p50), us(b.p50), float64(r.heapLive)/1e6)
		if i == 0 {
			res.sched = r.sched
		}
		r.sched = nil
		if traced {
			res.spans.add(r.spans)
			res.lastSpans, r.spans = r.spans, nil
		}
		res.reps = append(res.reps, r)
		res.setups = append(res.setups, r.setup.Seconds())
		res.schedBuilds = append(res.schedBuilds, r.schedBuild.Seconds())
	}
	for i := 0; len(res.setups) < minSetups; i++ {
		t0 := time.Now()
		sys, err := deploy(ctx, c.spec, c.seed, c.workers, filepath.Join(walRoot, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return res, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		res.schedBuilds = append(res.schedBuilds, sys.schedBuild.Seconds())
		sys.teardown()
	}
	if c.traced {
		st, err := replayStages(c.seed, res.sched)
		if err != nil {
			return res, err
		}
		res.stages = st
	}
	return res, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is what a result is comparable under: the same hardware
// shape, toolchain and WAL filesystem (fsync on tmpfs is nearly free).
type environment struct {
	GoMaxProcs    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"numCpu"`
	Workers       int    `json:"workers"`
	CPUModel      string `json:"cpuModel"`
	GoVersion     string `json:"goVersion"`
	GitSHA        string `json:"gitSha"`
	FsyncPolicy   string `json:"fsyncPolicy"`
	WALFilesystem string `json:"walFilesystem"`
}

func (res *result) environment(c config) environment {
	env := environment{
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Workers:       c.workers,
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		GitSHA:        "unknown",
		FsyncPolicy:   "none (in-memory ledger)",
		WALFilesystem: "none",
	}
	if c.spec.mode != inProcess {
		env.FsyncPolicy, env.WALFilesystem = store.FsyncAlways.String(), res.walFS
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.GitSHA = s.Value
			}
		}
	}
	return env
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the human-readable lines, writes the result document
// and prints the JSON result line last.
func (res *result) report(c config, stdout io.Writer) error {
	out := output{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	samples, extra := map[string]int{}, map[string]metric{}
	if c.traced {
		res.perLayer(out.Metrics, samples)
	} else {
		res.endToEnd(out.Metrics, extra, samples)
	}
	env := res.environment(c)

	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%v: %d repetitions of %d buyers, %d set-ups, %d workers\n",
		c.spec.name, c.seed, c.traced, len(res.reps), c.spec.buyers, len(res.setups), c.workers)
	fmt.Fprintf(stdout, "env: gomaxprocs=%d numCpu=%d cpu=%q go=%s git=%s fsync=%s walFs=%s\n",
		env.GoMaxProcs, env.NumCPU, env.CPUModel, env.GoVersion, env.GitSHA, env.FsyncPolicy, env.WALFilesystem)
	ex := res.reps[0].exact
	fmt.Fprintf(stdout, "exact: ops=%d buyAttempts=%d sales=%d replays=%d revenueRatio=%v recovery=%v\n",
		ex.Ops, ex.BuyAttempts, ex.Sales, ex.Replays, ex.RevenueRatio, ex.Recovery)
	printMetrics(stdout, out.Metrics, samples, "")
	printMetrics(stdout, extra, samples, " (not gated)")

	doc := struct {
		Workload    string            `json:"workload"`
		Seed        uint64            `json:"seed"`
		Traced      bool              `json:"traced"`
		Buyers      int               `json:"buyersPerRepetition"`
		Env         environment       `json:"env"`
		Exact       exact             `json:"exact"`
		Samples     map[string]int    `json:"samples"`
		Result      output            `json:"result"`
		Extra       map[string]metric `json:"notGated,omitempty"`
		SetupsS     []float64         `json:"setupsSeconds"`
		Throughputs []float64         `json:"opsPerSecondByRepetition"`
	}{
		Workload: c.spec.name, Seed: c.seed, Traced: c.traced, Buyers: c.spec.buyers,
		Env: env, Exact: ex, Samples: samples, Result: out, Extra: extra, SetupsS: res.setups,
	}
	for _, r := range res.reps {
		doc.Throughputs = append(doc.Throughputs, r.report.OpsPerSec)
	}
	if err := writeJSON(filepath.Join(c.dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", c.spec.name, c.seed, btoi(c.traced))), doc); err != nil {
		return err
	}
	if c.traced {
		if err := os.MkdirAll(filepath.Join(c.dir, "traces"), 0o755); err != nil {
			return err
		}
		if err := writeSpans(filepath.Join(c.dir, "traces", c.spec.name+".jsonl"), res.lastSpans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// printMetrics prints one line per metric, sorted by name, with its
// sample count where it has one.
func printMetrics(w io.Writer, ms map[string]metric, samples map[string]int, note string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", n+note, m.Value, m.Unit)
		if k, ok := samples[n]; ok {
			line += fmt.Sprintf(" (n=%d)", k)
		}
		fmt.Fprintln(w, line)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// endToEnd fills the metrics a user of the marketplace sees.
//
// The gated tail percentile is p90: p99 did not repeat within a tenth
// across seeds at this run length (quotes in-process and on quorum,
// buys on http-wal), so it goes to extra, which is printed and written
// to the result document but not gated.
func (res *result) endToEnd(m, extra map[string]metric, samples map[string]int) {
	var tput, heap, q50, q90, q99, b50, b90, b99 []float64
	var nq, nb int
	for _, r := range res.reps {
		q, b := r.quote, r.buy
		q50, q90, q99 = append(q50, us(q.p50)), append(q90, us(q.p90)), append(q99, us(q.p99))
		b50, b90, b99 = append(b50, us(b.p50)), append(b90, us(b.p90)), append(b99, us(b.p99))
		nq, nb = nq+q.n, nb+b.n
		tput = append(tput, r.report.OpsPerSec)
		heap = append(heap, float64(r.heapLive)/1e6)
	}
	ex := res.reps[0].exact
	put := func(name string, v float64, unit string, n int) {
		m[name] = metric{v, unit}
		samples[name] = n
	}
	extra["quote_p99_us"], samples["quote_p99_us"] = metric{median(q99), "us"}, nq
	extra["buy_p99_us"], samples["buy_p99_us"] = metric{median(b99), "us"}, nb
	put("setup_s", median(append([]float64(nil), res.setups...)), "s", len(res.setups))
	put("throughput_ops_s", median(tput), "1/s", len(tput))
	put("quote_p50_us", median(q50), "us", nq)
	put("quote_p90_us", median(q90), "us", nq)
	put("buy_p50_us", median(b50), "us", nb)
	put("buy_p90_us", median(b90), "us", nb)
	put("revenue_ratio", ex.RevenueRatio, "ratio", ex.Ops)
	put("reprice_recovery", ex.Recovery, "ratio", ex.Ops)
	put("heap_live_mb", median(heap), "MB", len(heap))
}

// perLayer fills the per-layer metrics of a traced run.
func (res *result) perLayer(m map[string]metric, samples map[string]int) {
	var tracedOps, tracedSales int
	var tracedElapsed float64
	var untraced, traced []float64
	var rt runtimeDelta
	var untracedOps int
	appends, waits, epochs := &latencies{}, &latencies{}, &latencies{}
	var fsyncs, walB int64
	var busy time.Duration
	var sales int
	var epochsRun, epochsPublished uint64
	for _, r := range res.reps {
		ops := r.report.Ops["total"].Issued
		walB += r.walBytes
		sales += r.exact.Sales
		epochs.addAll(r.epochs)
		epochsRun += r.epochsRun
		epochsPublished += r.epochsPublic
		if !r.traced {
			untraced = append(untraced, r.report.OpsPerSec)
			rt.add(r.runtime)
			untracedOps += ops
			continue
		}
		traced = append(traced, r.report.OpsPerSec)
		tracedOps += ops
		tracedSales += r.exact.Sales
		tracedElapsed += r.report.ElapsedSeconds
		if r.appends != nil {
			appends.addAll(r.appends)
			fsyncs += r.fsyncs
			busy += r.storeBusy
		}
		if r.waits != nil {
			waits.addAll(r.waits)
		}
	}

	put := func(name string, v float64, unit string, n int) {
		m[name] = metric{v, unit}
		if n >= 0 {
			samples[name] = n
		}
	}
	p50 := func(name string, l *latencies) {
		d := l.summary()
		put(name, us(d.p50), "us", d.n)
	}
	p99 := func(name string, l *latencies) {
		d := l.summary()
		put(name, us(d.p99), "us", d.n)
	}
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	ex := res.reps[0].exact
	put("workload.schedule_build_s", median(append([]float64(nil), res.schedBuilds...)), "s", len(res.schedBuilds))
	put("workload.failed_frac", frac(float64(res.failed), float64(res.attempted)), "frac", res.attempted)
	st := &res.spans
	p50("market.quote_p50_us", &st.marketQuote)
	p50("market.buy_p50_us", &st.marketBuy)
	put("market.sale_frac", ex.SaleFrac, "frac", ex.BuyAttempts)
	put("market.replay_frac", ex.ReplayFrac, "frac", ex.BuyAttempts)
	put("pricing.price_eval_ns", res.stages.priceEvalNs, "ns", -1)
	put("noise.perturb_us", res.stages.perturbUs, "us", -1)
	put("obs_trace.quote_spans_ns", res.stages.quoteSpansNs, "ns", -1)
	ep := epochs.summary()
	put("repricer.epoch_ms", float64(ep.p50)/float64(time.Millisecond), "ms", ep.n)
	put("repricer.published_frac", frac(float64(epochsPublished), float64(epochsRun)), "frac", int(epochsRun))
	p50("httpapi.handler_quote_p50_us", &st.handlerQuote)
	p50("httpapi.handler_buy_p50_us", &st.handlerBuy)
	p99("httpapi.handler_buy_p99_us", &st.handlerBuy)
	p50("httpapi.transport_p50_us", &st.transportSelf)
	p50("store.append_p50_us", appends)
	p99("store.append_p99_us", appends)
	put("store.fsyncs_per_sale", frac(float64(fsyncs), float64(tracedSales)), "count", tracedSales)
	put("store.busy_frac", frac(busy.Seconds(), tracedElapsed), "frac", -1)
	put("store.bytes_per_sale", frac(float64(walB), float64(sales)), "B", sales)
	p50("replica.quorum_wait_p50_us", waits)
	p99("replica.quorum_wait_p99_us", waits)

	for _, layer := range []string{layerWorkload, layerMarket, layerTransport, layerHandler, layerStore, layerReplica} {
		put(layer+".self_us_per_op", frac(us(st.self[layer]), float64(tracedOps)), "us", tracedOps)
	}

	put("runtime.allocs_per_op", frac(float64(rt.allocObjects), float64(untracedOps)), "count", untracedOps)
	put("runtime.alloc_bytes_per_op", frac(float64(rt.allocBytes), float64(untracedOps)), "B", untracedOps)
	put("runtime.gc_cpu_frac", frac(rt.gcCPU, rt.totalCPU), "frac", -1)
	put("runtime.gc_pause_p99_us", us(rt.pauseP99()), "us", -1)
	put("trace.overhead_frac", frac(median(untraced), median(traced))-1, "frac", len(untraced)+len(traced))
}
