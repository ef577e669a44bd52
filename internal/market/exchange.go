package market

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/trace"
)

// Exchange is the full data marketplace of Figure 1 scaled out: many
// sellers' brokers listed side by side, each selling model instances
// over its own dataset. BDEX/Qlik-style markets in the paper's
// introduction host many datasets; Exchange is the registry layer that
// turns one broker into such a market.
type Exchange struct {
	mu       sync.RWMutex
	listings map[string]*Broker
}

// NewExchange returns an empty marketplace.
func NewExchange() *Exchange {
	return &Exchange{listings: make(map[string]*Broker)}
}

// ErrUnknownListing is returned for listings that do not exist.
var ErrUnknownListing = errors.New("market: unknown listing")

// List registers a broker under a unique listing name.
func (e *Exchange) List(name string, b *Broker) error {
	if name == "" {
		return errors.New("market: empty listing name")
	}
	if b == nil {
		return errors.New("market: nil broker")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.listings[name]; dup {
		return fmt.Errorf("market: listing %q already exists", name)
	}
	e.listings[name] = b
	metListings.Add(1)
	return nil
}

// Delist removes a listing.
func (e *Exchange) Delist(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.listings[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownListing, name)
	}
	delete(e.listings, name)
	metListings.Add(-1)
	return nil
}

// Broker returns the broker behind a listing, recording the dispatch
// as an "exchange.resolve_listing" span so a multi-seller trace shows
// which listing the request routed to. Each successful resolution
// counts toward the listing's lookup metric, so /metrics shows
// per-listing traffic on a multi-seller exchange.
func (e *Exchange) Broker(ctx context.Context, name string) (*Broker, error) {
	_, span := trace.Start(ctx, "exchange.resolve_listing", "listing", name)
	defer span.End()
	e.mu.RLock()
	defer e.mu.RUnlock()
	b, ok := e.listings[name]
	if !ok {
		span.SetAttr("outcome", "unknown")
		return nil, fmt.Errorf("%w: %q", ErrUnknownListing, name)
	}
	obs.Default.Counter(obs.Name("exchange.listing_lookups_total", "listing", name)).Inc()
	return b, nil
}

// Listings returns the listing names in sorted order.
func (e *Exchange) Listings() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.listingsLocked()
}

func (e *Exchange) listingsLocked() []string {
	out := make([]string, 0, len(e.listings))
	for name := range e.listings {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Revenue aggregates every listing's Broker.Revenue: a seller staked on
// several listings accumulates across them under one id, and the
// commissions add up in sorted listing order.
func (e *Exchange) Revenue() RevenueTotals {
	e.mu.RLock()
	brokers := make([]*Broker, 0, len(e.listings))
	for _, name := range e.listingsLocked() {
		brokers = append(brokers, e.listings[name])
	}
	e.mu.RUnlock()
	bySeller := make(map[string]float64)
	var broker float64
	for _, b := range brokers {
		rev := b.Revenue()
		for id, amt := range rev.Sellers {
			bySeller[id] += amt
		}
		broker += rev.BrokerShare
	}
	return newRevenueTotals(bySeller, broker)
}
