package market

import (
	"fmt"
	"math"

	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/rng"
)

// SLARow compares one menu row's quoted expected error against a fresh
// Monte-Carlo measurement — the service-level agreement of Section 3.3:
// the broker's published price–error curve must describe what buyers
// actually receive.
type SLARow struct {
	// Delta is the menu row's NCP.
	Delta float64
	// Quoted is the published expected error.
	Quoted float64
	// Measured is the fresh Monte-Carlo estimate.
	Measured float64
	// StdErr is the standard error of Measured.
	StdErr float64
}

// Violated reports whether the quoted error misses the measurement by
// more than k standard errors plus a small relative slack.
func (r SLARow) Violated(k float64) bool {
	slack := k*r.StdErr + 1e-6*(1+math.Abs(r.Quoted))
	return math.Abs(r.Quoted-r.Measured) > slack
}

// SLAReport is the full audit of one offer.
type SLAReport struct {
	Model ml.Model
	Rows  []SLARow
}

// Violations counts rows violated at k standard errors.
func (rep SLAReport) Violations(k float64) int {
	n := 0
	for _, r := range rep.Rows {
		if r.Violated(k) {
			n++
		}
	}
	return n
}

// VerifySLA re-measures every published menu row with fresh noise and
// samples Monte-Carlo draws per row. Buyers or auditors can run it to
// confirm the menu is honest; the test suite runs it as a property.
func (b *Broker) VerifySLA(m ml.Model, samples int, seed uint64) (SLAReport, error) {
	if samples <= 0 {
		return SLAReport{}, fmt.Errorf("market: non-positive sample count %d", samples)
	}
	off, ok := b.lookup(m)
	mech := b.mech
	if !ok {
		return SLAReport{}, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	deltas, quoted := off.transform.Grid()
	rep := SLAReport{Model: m, Rows: make([]SLARow, len(deltas))}
	r := rng.New(seed)
	for i, d := range deltas {
		est := noise.ExpectedLossError(mech, off.optimal, off.epsilon, off.evalOn, d, samples, r.Split())
		rep.Rows[i] = SLARow{Delta: d, Quoted: quoted[i], Measured: est.Mean, StdErr: est.StdErr}
	}
	return rep, nil
}
