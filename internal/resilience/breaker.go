package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State int32

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed State = iota
	// HalfOpen: the cooldown elapsed; a bounded number of probe
	// requests test whether the dependency recovered.
	HalfOpen
	// Open: requests fail fast with ErrBreakerOpen.
	Open
)

// String renders the state for logs and span attributes.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker. Zero fields take the documented
// defaults.
type BreakerConfig struct {
	// FailureThreshold is the count of consecutive failures that
	// trips a closed breaker open. Default 5.
	FailureThreshold int
	// Cooldown is how long an open breaker rejects before allowing
	// half-open probes. Default 5s.
	Cooldown time.Duration
	// HalfOpenProbes is the number of concurrent probes admitted in
	// half-open. Default 1.
	HalfOpenProbes int
	// SuccessesToClose is the number of successful probes that close
	// a half-open breaker. Default 1.
	SuccessesToClose int
	// OnChange, if set, observes every state transition. It runs
	// under the breaker's lock, so it must be fast and must not call
	// back into the breaker.
	OnChange func(from, to State)
	// Now overrides the clock for tests.
	Now func() time.Time
}

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.SuccessesToClose <= 0 {
		c.SuccessesToClose = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a three-state circuit breaker. Closed, it counts
// consecutive failures and trips open at the threshold; open, it
// fails fast until the cooldown elapses; half-open, it admits a
// bounded number of probes and either closes (enough successes) or
// re-opens (any failure). Every Allow that returns nil must be
// matched by exactly one RecordSuccess or RecordFailure, or half-open
// probe slots leak.
type Breaker struct {
	mu        sync.Mutex
	cfg       BreakerConfig
	state     State
	failures  int       // consecutive failures while closed
	openedAt  time.Time // when the breaker last opened
	probes    int       // in-flight half-open probes
	successes int       // successful probes this half-open episode
}

// NewBreaker returns a closed breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State returns the breaker's current position, advancing an open
// breaker to half-open if its cooldown elapsed.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

// Allow asks to pass one request through. It returns nil (the caller
// MUST later call RecordSuccess or RecordFailure exactly once) or
// ErrBreakerOpen (the caller fails fast and records nothing).
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case Closed:
		return nil
	case HalfOpen:
		if b.probes < b.cfg.HalfOpenProbes {
			b.probes++
			return nil
		}
		return ErrBreakerOpen
	default:
		return ErrBreakerOpen
	}
}

// RecordSuccess reports that an allowed request succeeded.
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		b.probes--
		b.successes++
		if b.successes >= b.cfg.SuccessesToClose {
			b.transitionLocked(Closed)
		}
	}
}

// RecordFailure reports that an allowed request failed.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.openLocked()
		}
	case HalfOpen:
		b.probes--
		b.openLocked()
	}
}

// Record is RecordSuccess for a nil err and RecordFailure otherwise.
func (b *Breaker) Record(err error) {
	if err == nil {
		b.RecordSuccess()
	} else {
		b.RecordFailure()
	}
}

// maybeHalfOpenLocked moves an open breaker whose cooldown elapsed to
// half-open.
func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.transitionLocked(HalfOpen)
	}
}

// openLocked trips the breaker open and starts the cooldown clock.
func (b *Breaker) openLocked() {
	b.openedAt = b.cfg.Now()
	b.transitionLocked(Open)
}

// transitionLocked switches state, resetting per-state counters and
// notifying OnChange.
func (b *Breaker) transitionLocked(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	b.failures = 0
	b.probes = 0
	b.successes = 0
	if b.cfg.OnChange != nil {
		b.cfg.OnChange(from, to)
	}
}
