package market

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/datamarket/mbp/internal/ml"
)

func TestExchangeListAndLookup(t *testing.T) {
	e := NewExchange()
	b := testBroker(t)
	if err := e.List("casp", b); err != nil {
		t.Fatal(err)
	}
	got, err := e.Broker(context.Background(), "casp")
	if err != nil || got != b {
		t.Fatalf("Broker: %v, %v", got, err)
	}
	if _, err := e.Broker(context.Background(), "nope"); !errors.Is(err, ErrUnknownListing) {
		t.Fatalf("err = %v", err)
	}
	if err := e.List("casp", b); err == nil {
		t.Fatal("duplicate listing accepted")
	}
	if err := e.List("", b); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := e.List("x", nil); err == nil {
		t.Fatal("nil broker accepted")
	}
}

func TestExchangeListingsSorted(t *testing.T) {
	e := NewExchange()
	b := testBroker(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := e.List(n, b); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Listings()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("listings %v", got)
		}
	}
}

func TestExchangeDelist(t *testing.T) {
	e := NewExchange()
	if err := e.List("a", testBroker(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.Delist("a"); err != nil {
		t.Fatal(err)
	}
	if len(e.Listings()) != 0 {
		t.Fatal("listing survived delist")
	}
	if err := e.Delist("a"); !errors.Is(err, ErrUnknownListing) {
		t.Fatalf("err = %v", err)
	}
}

func TestExchangeTotalRevenue(t *testing.T) {
	e := NewExchange()
	b1, b2 := testBroker(t), testBroker(t)
	if err := e.List("one", b1); err != nil {
		t.Fatal(err)
	}
	if err := e.List("two", b2); err != nil {
		t.Fatal(err)
	}
	var want float64
	for i, b := range []*Broker{b1, b2} {
		p, _, err := b.Buy(context.Background(), ml.LinearRegression, Spec{Kind: AtPoint, Value: 0.1 / float64(i+1)})
		if err != nil {
			t.Fatal(err)
		}
		want += p.Price
	}
	rev := e.Revenue()
	if math.Abs(rev.SellerShare+rev.BrokerShare-want) > 1e-9 {
		t.Fatalf("total %v+%v != %v", rev.SellerShare, rev.BrokerShare, want)
	}
}

func TestExchangeConcurrentAccess(t *testing.T) {
	e := NewExchange()
	b := testBroker(t)
	if err := e.List("shared", b); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_ = e.Listings()
				if _, err := e.Broker(context.Background(), "shared"); err != nil {
					t.Error(err)
					return
				}
				_ = e.Revenue()
			}
		}()
	}
	wg.Wait()
}
