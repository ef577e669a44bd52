package market

import (
	"testing"

	"github.com/datamarket/mbp/internal/ml"
)

// TestSLAHolds is the honesty property of the published menu: fresh
// Monte-Carlo measurements must agree with every quoted expected error
// within statistical tolerance.
func TestSLAHolds(t *testing.T) {
	b := testBroker(t)
	rep, err := b.VerifySLA(ml.LinearRegression, 400, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 20 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	// The quotes themselves are Monte-Carlo estimates (60 samples in the
	// fixture), so allow a generous multiple of the re-measurement's
	// standard error.
	if v := rep.Violations(8); v > 1 {
		t.Fatalf("%d SLA violations: %+v", v, rep.Rows)
	}
}

func TestSLADetectsDishonestQuote(t *testing.T) {
	b := testBroker(t)
	rep, err := b.VerifySLA(ml.LinearRegression, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a quote and confirm Violated flags it.
	row := rep.Rows[0]
	row.Quoted *= 10
	if !row.Violated(8) {
		t.Fatal("corrupted quote not flagged")
	}
}

func TestVerifySLAErrors(t *testing.T) {
	b := testBroker(t)
	if _, err := b.VerifySLA(ml.LinearRegression, 0, 1); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := b.VerifySLA(ml.LinearSVM, 10, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}
