package audit

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs"
)

// BenchmarkSweep prices the auditor's duty cycle: one full sweep
// (arbitrage probes + attack search, conservation row scan, WAL
// checks) against a broker whose ledger already holds `rows` sales.
// The sweep clock advances a full interval per iteration so the
// conservation duty-cycle guard never defers — this is the worst-case
// per-sweep cost, the number to hold against the sweep interval when
// judging overhead (cost/interval is the CPU fraction the auditor can
// steal from the serving path).
func BenchmarkSweep(b *testing.B) {
	for _, rows := range []int{0, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			br := markettest.Broker(b, 1)
			menu, err := br.PriceErrorCurve(markettest.Model, "")
			if err != nil {
				b.Fatal(err)
			}
			delta := menu[len(menu)/2].Delta
			for i := 0; i < rows; i++ {
				if _, _, err := br.Buy(context.Background(), markettest.Model, market.Spec{Kind: market.AtPoint, Value: delta}); err != nil {
					b.Fatal(err)
				}
			}
			a := New(Config{
				Broker:   br,
				Seed:     1,
				Registry: obs.NewRegistry(),
				Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			now := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(a.Interval())
				a.Sweep(now)
			}
		})
	}
}
