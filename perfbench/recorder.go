package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// latencies keeps every sample exactly, so percentiles carry no bucket
// error: the broker's own histograms (obs.LatencyBuckets) start at
// 100 µs and cannot resolve an in-process quote. Safe for concurrent
// use.
type latencies struct {
	mu sync.Mutex
	ns []int64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, int64(d))
	l.mu.Unlock()
}

// addAll appends another set of samples.
func (l *latencies) addAll(o *latencies) {
	o.mu.Lock()
	defer o.mu.Unlock()
	l.mu.Lock()
	l.ns = append(l.ns, o.ns...)
	l.mu.Unlock()
}

// summary sorts the samples and reads their percentiles.
func (l *latencies) summary() dist {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] })
	return dist{
		n:   len(l.ns),
		p50: quantile(l.ns, 0.50),
		p90: quantile(l.ns, 0.90),
		p99: quantile(l.ns, 0.99),
	}
}

// dist is a latency distribution read from exact samples.
type dist struct {
	n             int
	p50, p90, p99 time.Duration
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of ascending samples: the
// smallest sample with at least q·n samples at or below it. It is 0
// for no samples.
func quantile(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps q·n from rounding up past an exact integer
	// (0.99·100 must give rank 99).
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return time.Duration(sorted[rank-1])
}

// median is the middle of xs (the mean of the two middle values for
// an even count); it sorts xs in place and is 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
