package main

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/workload"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n             int
		p50, p90, p99 time.Duration
	}{
		{n: 100, p50: 50, p90: 90, p99: 99},
		{n: 1000, p50: 500, p90: 900, p99: 990},
		{n: 200, p50: 100, p90: 180, p99: 198},
		{n: 1, p50: 1, p90: 1, p99: 1},
	} {
		l := &latencies{}
		for _, v := range rand.New(rand.NewSource(1)).Perm(tc.n) {
			l.add(time.Duration(v+1) * time.Microsecond)
		}
		d := l.summary()
		want := dist{n: tc.n, p50: tc.p50 * time.Microsecond, p90: tc.p90 * time.Microsecond, p99: tc.p99 * time.Microsecond}
		if d != want {
			t.Errorf("samples 1..%d µs: got %+v, want %+v", tc.n, d, want)
		}
	}
	if d := (&latencies{}).summary(); d != (dist{}) {
		t.Errorf("no samples: got %+v", d)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "b", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "b", Start: 30, End: 50},  // overlaps 2: union is 10..50
		{ID: 4, Parent: 1, Layer: "c", Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 2, Layer: "d", Start: 20, End: 25},
	}
	var st spanStats
	st.add(spans)
	got := st.self
	want := map[string]time.Duration{"a": 100 - 40 - 10, "b": 30 - 5 + 20, "c": 30, "d": 5}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("layer %s: self %v, want %v", layer, got[layer], w)
		}
	}
}

// small shrinks a workload so a test repetition takes well under a
// second.
func small(t *testing.T, name string, buyers int) spec {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.buyers = buyers
	return sp
}

func rep(t *testing.T, sp spec, seed uint64, workers int, traced bool) *repOut {
	t.Helper()
	out, err := runRep(context.Background(), sp, seed, workers, filepath.Join(t.TempDir(), "wal"), traced)
	if err != nil {
		t.Fatalf("%s with %d workers: %v", sp.name, workers, err)
	}
	return out
}

// Two back-to-back repetitions in one process must see the same
// outcome: each starts from a fresh broker, WAL and cluster, so no
// Idempotency-Key of the first replays in the second.
func TestBackToBackRunsStartFresh(t *testing.T) {
	for _, sp := range []spec{small(t, "http-wal", 400), small(t, "inproc-reprice", 2000)} {
		a := rep(t, sp, 7, 2, false)
		b := rep(t, sp, 7, 2, false)
		if a.exact != b.exact {
			t.Errorf("%s: back-to-back runs differ:\n%+v\n%+v", sp.name, a.exact, b.exact)
		}
		if a.exact.Replays == 0 || a.exact.Sales == 0 {
			t.Errorf("%s: degenerate run %+v", sp.name, a.exact)
		}
	}
}

// The exact metrics must not depend on the number of clients, nor on
// whether the repetition is traced.
func TestExactMetricsIndependentOfWorkers(t *testing.T) {
	n := max(runtime.NumCPU(), 2)
	for _, sp := range []spec{small(t, "inproc-reprice", 2000), small(t, "http-wal", 400), small(t, "quorum", 200)} {
		one := rep(t, sp, 3, 1, false)
		many := rep(t, sp, 3, n, true)
		if one.exact != many.exact {
			t.Errorf("%s: 1 worker %+v, %d workers %+v", sp.name, one.exact, n, many.exact)
		}
		checkSpanTree(t, sp, many.spans)
		if one.spans != nil {
			t.Errorf("%s: untraced repetition kept %d spans", sp.name, len(one.spans))
		}
	}
}

// checkSpanTree checks that the traced repetition linked every WAL
// append and quorum wait to the buy handler that caused it, and every
// handler to its client round trip.
func checkSpanTree(t *testing.T, sp spec, spans []span) {
	t.Helper()
	byID := make(map[uint64]span, len(spans))
	layers := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		layers[s.Layer]++
	}
	parentLayer := map[string]string{
		layerStore:     layerHandler,
		layerReplica:   layerHandler,
		layerHandler:   layerTransport,
		layerTransport: layerWorkload,
	}
	for _, s := range spans {
		want, ok := parentLayer[s.Layer]
		if !ok || (s.Layer == layerTransport && s.Parent == 0) {
			continue // roots, and round trips outside an op (menu, ledger)
		}
		if p, found := byID[s.Parent]; !found || p.Layer != want || p.Trace != s.Trace {
			t.Errorf("%s: %s span %d has parent %+v, want a %s span of trace %d", sp.name, s.Layer, s.ID, p, want, s.Trace)
			return
		}
	}
	wantLayers := map[mode][]string{
		inProcess: {layerMarket, layerRepricer},
		httpWAL:   {layerWorkload, layerTransport, layerHandler, layerStore},
		quorum:    {layerWorkload, layerTransport, layerHandler, layerStore, layerReplica},
	}[sp.mode]
	for _, l := range wantLayers {
		if layers[l] == 0 {
			t.Errorf("%s: no %s spans", sp.name, l)
		}
	}
}

// A journal that lost an acknowledged sale must fail the recovery
// check.
func TestRecoveryCheckCatchesLostSale(t *testing.T) {
	sp := small(t, "http-wal", 200)
	ctx := context.Background()
	sys, err := deploy(ctx, sp, 5, 2, filepath.Join(t.TempDir(), "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.teardown()
	if _, err := sys.client.BuyWithPriceBudget(ctx, 1e9, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.client.BuyWithPriceBudget(ctx, 1e9, ""); err != nil {
		t.Fatal(err)
	}
	rep := &workload.Report{Revenue: workload.RevenueReport{Sales: 2}}
	if err := sys.checkRecovery(rep); err != nil {
		t.Fatalf("intact journal: %v", err)
	}
	// Cut the last frame: its sale was acknowledged but is gone.
	seg := filepath.Join(sys.dir, "node0", "wal-00000001.log")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	var ce *checkError
	if err := sys.checkRecovery(rep); !errors.As(err, &ce) {
		t.Fatalf("truncated journal: got %v, want a failed check", err)
	}
}
