package main

// Per-layer numbers that come from outside the spans: Go runtime
// counters, and stage replays that time the paper's math and the
// program's own tracing on the run's own inputs, away from the request
// path.

import (
	"context"
	"fmt"
	"runtime/metrics"
	"strconv"
	"time"

	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/rng"
	"github.com/datamarket/mbp/internal/workload"
)

const (
	rtAllocObjects = "/gc/heap/allocs:objects"
	rtAllocBytes   = "/gc/heap/allocs:bytes"
	rtGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rtGCPauses     = "/sched/pauses/total/gc:seconds"
)

// runtimeSample is a snapshot of the runtime counters the benchmark
// reads.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	pauseCounts              []uint64
	pauseBuckets             []float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: rtAllocObjects}, {Name: rtAllocBytes}, {Name: rtGCCPU}, {Name: rtTotalCPU}, {Name: rtGCPauses}}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocObjects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[3].Value.Float64()
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[4].Value.Float64Histogram()
		r.pauseCounts = append([]uint64(nil), h.Counts...)
		r.pauseBuckets = h.Buckets
	}
	return r
}

// runtimeDelta is the runtime's work between two samples.
type runtimeDelta struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	pauseCounts              []uint64
	pauseBuckets             []float64
}

func (r runtimeSample) since(o runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocObjects: r.allocObjects - o.allocObjects,
		allocBytes:   r.allocBytes - o.allocBytes,
		gcCPU:        r.gcCPU - o.gcCPU,
		totalCPU:     r.totalCPU - o.totalCPU,
		pauseBuckets: r.pauseBuckets,
	}
	if len(r.pauseCounts) == len(o.pauseCounts) {
		d.pauseCounts = make([]uint64, len(r.pauseCounts))
		for i := range r.pauseCounts {
			d.pauseCounts[i] = r.pauseCounts[i] - o.pauseCounts[i]
		}
	}
	return d
}

func (d *runtimeDelta) add(o runtimeDelta) {
	d.allocObjects += o.allocObjects
	d.allocBytes += o.allocBytes
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
	if d.pauseCounts == nil {
		d.pauseCounts = make([]uint64, len(o.pauseCounts))
		d.pauseBuckets = o.pauseBuckets
	}
	for i := range o.pauseCounts {
		if i < len(d.pauseCounts) {
			d.pauseCounts[i] += o.pauseCounts[i]
		}
	}
}

// pauseP99 is the upper edge of the bucket holding the 99th percentile
// GC pause; 0 when no pause happened.
func (d runtimeDelta) pauseP99() time.Duration {
	var total uint64
	for _, c := range d.pauseCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range d.pauseCounts {
		cum += c
		if float64(cum) >= 0.99*float64(total) {
			edge := d.pauseBuckets[i+1]
			if edge > 1e9 { // +Inf: the bucket's lower edge is all we know
				edge = d.pauseBuckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// stages are the stage-replay timings.
type stages struct {
	priceEvalNs  float64 // pricing: Curve.Price per quoted δ
	perturbUs    float64 // noise: PerturbContext per point-bought δ, median
	quoteSpansNs float64 // obs/trace: the program's two spans of one in-process quote
}

// replaySink keeps the replayed calls from being optimized away.
var replaySink float64

// replayPasses is how many passes the ns-scale replays time; the
// median pass is reported.
const replayPasses = 7

// replayStages times pricing, noise and the program's tracing on the
// schedule's own δs, against a fixture broker for seed.
func replayStages(seed uint64, sched *workload.Schedule) (stages, error) {
	var quoted, bought []float64
	for _, b := range sched.Buyers {
		for _, op := range b.Ops {
			switch op.Kind {
			case workload.OpQuote:
				quoted = append(quoted, op.Delta)
			case workload.OpBuyPoint:
				bought = append(bought, op.Delta)
			}
		}
	}
	if len(quoted) == 0 || len(bought) == 0 {
		return stages{}, fmt.Errorf("schedule has %d quotes and %d point buys", len(quoted), len(bought))
	}
	b, err := markettest.New(seed)
	if err != nil {
		return stages{}, err
	}
	curve, err := b.Curve(markettest.Model)
	if err != nil {
		return stages{}, err
	}
	optimal, err := b.Optimal(markettest.Model)
	if err != nil {
		return stages{}, err
	}

	var st stages
	var sink float64
	perCall := func(fn func(delta float64)) float64 {
		passes := make([]float64, replayPasses)
		for p := range passes {
			t0 := time.Now()
			for _, d := range quoted {
				fn(d)
			}
			passes[p] = float64(time.Since(t0)) / float64(len(quoted))
		}
		return median(passes)
	}
	st.priceEvalNs = perCall(func(d float64) { sink += curve.Price(1 / d) })
	st.quoteSpansNs = perCall(func(d float64) {
		ctx, root := trace.Start(context.Background(), "market.quote", "model", markettest.Model.String())
		_, eval := trace.Start(ctx, "pricing.curve_eval", "delta", strconv.FormatFloat(d, 'g', -1, 64))
		eval.End()
		root.End()
	})

	const maxPerturbs = 4000
	if len(bought) > maxPerturbs {
		bought = bought[:maxPerturbs]
	}
	lat := &latencies{}
	mech := noise.Gaussian{}
	for i, d := range bought {
		t0 := time.Now()
		inst, err := noise.PerturbContext(context.Background(), mech, optimal, d, rng.Stream(seed, uint64(i+1)))
		lat.add(time.Since(t0))
		if err != nil {
			return stages{}, err
		}
		sink += inst.W[0]
	}
	st.perturbUs = us(lat.summary().p50)
	replaySink = sink
	return st, nil
}
