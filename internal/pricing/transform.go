package pricing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/datamarket/mbp/internal/dataset"
	"github.com/datamarket/mbp/internal/isotonic"
	"github.com/datamarket/mbp/internal/loss"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/rng"
)

// Transform is the error-inverse map ϕ of Theorem 6: a monotone
// bijection between the NCP δ and the expected error E[ϵ(ĥδ, D)],
// tabulated on a grid and interpolated piecewise-linearly.
//
// For the square loss ϵ_s the map is the identity (Lemma 3: E[ϵ_s] = δ)
// and Identity constructs it analytically. For any other strictly
// convex ϵ, Theorem 4 guarantees the map exists and is strictly
// monotone; NewEmpirical estimates it by Monte Carlo, smoothing the
// estimates with isotonic regression (the paper's Section 4.2: "we can
// always compute ϕ empirically").
type Transform struct {
	deltas []float64 // strictly increasing
	errs   []float64 // non-decreasing (monotone by Theorem 4)
}

// Identity returns the analytic square-loss transform on the given δ
// grid: E[ϵ_s] = δ.
func Identity(deltas []float64) (*Transform, error) {
	errs := append([]float64(nil), deltas...)
	return newTransform(deltas, errs)
}

// NewEmpirical tabulates δ ↦ E[ϵ(ĥδ, D)] for the mechanism k on the
// given δ grid by drawing samples noisy models per grid point
// (Section 6.1 uses 2000). The estimates are smoothed into a monotone
// table with isotonic regression, which is consistent because the true
// map is monotone (Theorem 4 for convex ϵ; empirically also for the
// 0/1 error, Figure 6).
func NewEmpirical(k noise.Mechanism, optimal *ml.Instance, e loss.Loss, ds *dataset.Dataset, deltas []float64, samples int, r *rng.RNG) (*Transform, error) {
	if len(deltas) < 2 {
		return nil, errors.New("pricing: need at least two grid points")
	}
	grid := append([]float64(nil), deltas...)
	sort.Float64s(grid)
	raw := make([]float64, len(grid))
	for i, d := range grid {
		raw[i] = noise.ExpectedLossError(k, optimal, e, ds, d, samples, r).Mean
	}
	smooth, err := isotonic.Increasing(raw, nil)
	if err != nil {
		return nil, fmt.Errorf("pricing: smoothing error curve: %w", err)
	}
	return newTransform(grid, smooth)
}

func newTransform(deltas, errs []float64) (*Transform, error) {
	if len(deltas) == 0 || len(deltas) != len(errs) {
		return nil, fmt.Errorf("pricing: transform with %d deltas and %d errors", len(deltas), len(errs))
	}
	for i := range deltas {
		if deltas[i] <= 0 || math.IsNaN(deltas[i]) || math.IsInf(deltas[i], 0) {
			return nil, fmt.Errorf("pricing: invalid δ grid point %v", deltas[i])
		}
		if errs[i] < 0 || math.IsNaN(errs[i]) || math.IsInf(errs[i], 0) {
			return nil, fmt.Errorf("pricing: invalid error value %v", errs[i])
		}
		if i > 0 {
			if deltas[i] <= deltas[i-1] {
				return nil, fmt.Errorf("pricing: δ grid not strictly increasing at %v", deltas[i])
			}
			if errs[i] < errs[i-1] {
				return nil, fmt.Errorf("pricing: error table not monotone at δ=%v", deltas[i])
			}
		}
	}
	return &Transform{
		deltas: append([]float64(nil), deltas...),
		errs:   append([]float64(nil), errs...),
	}, nil
}

// Grid returns copies of the tabulated (δ, expected error) columns.
func (t *Transform) Grid() (deltas, errs []float64) {
	return append([]float64(nil), t.deltas...), append([]float64(nil), t.errs...)
}

// Bounds returns the smallest and largest tabulated δ without copying
// the grid.
func (t *Transform) Bounds() (lo, hi float64) {
	return t.deltas[0], t.deltas[len(t.deltas)-1]
}

// ErrorForDelta returns the expected error at NCP δ, interpolating
// linearly and clamping outside the tabulated range.
func (t *Transform) ErrorForDelta(delta float64) float64 {
	if delta <= 0 || math.IsNaN(delta) {
		panic(fmt.Sprintf("pricing: invalid NCP %v", delta))
	}
	n := len(t.deltas)
	switch {
	case delta <= t.deltas[0]:
		return t.errs[0]
	case delta >= t.deltas[n-1]:
		return t.errs[n-1]
	}
	i := sort.SearchFloat64s(t.deltas, delta)
	if t.deltas[i] == delta {
		return t.errs[i]
	}
	lo := i - 1
	f := (delta - t.deltas[lo]) / (t.deltas[i] - t.deltas[lo])
	return t.errs[lo] + f*(t.errs[i]-t.errs[lo])
}

// ErrOutOfRange is returned by DeltaForError when the requested error
// is outside the tabulated range, i.e. no offered noise level attains it.
var ErrOutOfRange = errors.New("pricing: requested error outside the transform's range")

// DeltaForError returns ϕ(e): the largest NCP δ whose expected error
// does not exceed e. This is the noise level a broker uses to satisfy
// an error budget at the lowest price. It returns ErrOutOfRange when
// e is below the smallest (most accurate offering) tabulated error;
// errors above the largest tabulated value clamp to the largest δ.
func (t *Transform) DeltaForError(e float64) (float64, error) {
	if math.IsNaN(e) {
		return 0, fmt.Errorf("%w: NaN", ErrOutOfRange)
	}
	n := len(t.deltas)
	if e < t.errs[0] {
		return 0, fmt.Errorf("%w: %v < minimum attainable %v", ErrOutOfRange, e, t.errs[0])
	}
	if e >= t.errs[n-1] {
		return t.deltas[n-1], nil
	}
	// Find the last index with errs[i] <= e; flat stretches map to the
	// largest δ in the stretch (cheapest model meeting the budget).
	i := sort.SearchFloat64s(t.errs, e)
	if i < n && t.errs[i] == e {
		for i+1 < n && t.errs[i+1] == e {
			i++
		}
		return t.deltas[i], nil
	}
	lo := i - 1
	if t.errs[i] == t.errs[lo] {
		return t.deltas[i], nil
	}
	f := (e - t.errs[lo]) / (t.errs[i] - t.errs[lo])
	return t.deltas[lo] + f*(t.deltas[i]-t.deltas[lo]), nil
}

// PriceError is one row of the buyer-facing price–error curve: the menu
// entry "expected error E at price P" (Figure 1, step 2).
type PriceError struct {
	// Delta is the NCP generating this version.
	Delta float64
	// XInv is 1/Delta, the coordinate pricing curves are defined over.
	XInv float64
	// ExpectedError is E[ϵ(ĥδ, D)].
	ExpectedError float64
	// Price is the quoted price.
	Price float64
}

// PriceErrorCurve tabulates the buyer-facing menu by combining a
// pricing curve (over x = 1/δ) with an error transform.
func PriceErrorCurve(c *Curve, t *Transform) []PriceError {
	n := len(t.deltas)
	out := make([]PriceError, n)
	for idx := 0; idx < n; idx++ {
		i := n - 1 - idx // cheapest (largest δ) version first
		d := t.deltas[i]
		out[idx] = PriceError{
			Delta:         d,
			XInv:          1 / d,
			ExpectedError: t.errs[i],
			Price:         c.Price(1 / d),
		}
	}
	return out
}
