package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestChaosNilIsNoOp(t *testing.T) {
	var c *Chaos
	ctx := context.Background()
	if err := c.Partition(ctx); err != nil {
		t.Fatalf("nil Partition = %v", err)
	}
	if err := c.Delay(ctx); err != nil {
		t.Fatalf("nil Delay = %v", err)
	}
	if c.Drop() {
		t.Fatal("nil Drop = true")
	}
	if got := c.Config(); got != (ChaosConfig{}) {
		t.Fatalf("nil Config = %+v", got)
	}
}

func TestChaosFaultSequenceIsDeterministic(t *testing.T) {
	const n = 200
	run := func() []bool {
		c := NewChaos(7, ChaosConfig{PartitionProb: 0.3})
		out := make([]bool, n)
		for i := range out {
			out[i] = c.Partition(context.Background()) != nil
		}
		return out
	}
	a, b := run(), run()
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identically seeded runs", i)
		}
		if a[i] {
			faults++
		}
	}
	// 0.3 ± generous slack over 200 draws.
	if faults < 30 || faults > 90 {
		t.Fatalf("injected %d/%d faults at p=0.3", faults, n)
	}
}

func TestChaosFaultReturnsErrInjected(t *testing.T) {
	c := NewChaos(1, ChaosConfig{PartitionProb: 1})
	if err := c.Partition(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	c.Update(ChaosConfig{PartitionProb: 0})
	if err := c.Partition(context.Background()); err != nil {
		t.Fatalf("after Update(0): %v", err)
	}
}

func TestChaosHangHonorsDeadline(t *testing.T) {
	c := NewChaos(1, ChaosConfig{HangProb: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := c.Delay(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang outlived the deadline")
	}
}

func TestChaosLatencyInjects(t *testing.T) {
	c := NewChaos(1, ChaosConfig{LatencyProb: 1, Latency: 10 * time.Millisecond})
	start := time.Now()
	if err := c.Delay(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("elapsed %v, want an injected sleep of roughly 5–15ms", elapsed)
	}
}

func TestChaosDrop(t *testing.T) {
	always := NewChaos(1, ChaosConfig{DropProb: 1})
	if !always.Drop() {
		t.Fatal("DropProb=1 did not drop")
	}
	never := NewChaos(1, ChaosConfig{})
	if never.Drop() {
		t.Fatal("DropProb=0 dropped")
	}
}

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("partition=0.1, latency=0.2,latency-ms=25,hang=0.01,drop=0.05,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	if cfg.PartitionProb != 0.1 || cfg.LatencyProb != 0.2 || cfg.HangProb != 0.01 || cfg.DropProb != 0.05 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Latency != 25*time.Millisecond {
		t.Fatalf("latency = %v, want 25ms", cfg.Latency)
	}
	if c.seed != 9 {
		t.Fatalf("seed = %d, want 9", c.seed)
	}

	if c, err := ParseChaos(""); c != nil || err != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", c, err)
	}
	// err= was the exchange-hop fault; it is gone, and an old spec
	// naming it must fail loudly rather than inject nothing.
	for _, bad := range []string{"drop=2", "drop=-0.1", "bogus=1", "err=0.1", "drop", "latency-ms=-5", "seed=x", "drop=zz"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}
