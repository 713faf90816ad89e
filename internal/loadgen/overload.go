// Client-side overload discipline: the pieces that turn the harness
// into a well-behaved client of a bounded-load router, plus the
// simulated service-time model that makes overload visible as sojourn.
//
// The router's bounded-load admission (router.SetBoundedLoad) is
// back-pressure: it rejects placements with a typed ErrOverloaded
// instead of snowballing hot servers. This file supplies the matching
// client half:
//
//   - capacity classes (ParseCapacities) assigning heterogeneous
//     per-server capacities so the capacity-relative threshold has
//     something to be relative to;
//   - a per-server service-time model (serviceModel) attaching
//     internal/queueing's exponential service draw to every routed op
//     via a virtual busy clock, so a server past its capacity shows
//     unbounded sojourn growth instead of hiding behind the router's
//     O(ns) in-memory latency;
//   - capped exponential backoff with full jitter (backoff) for
//     retrying rejected placements — an op the client gives up on is
//     SHED (counted), never silently dropped, which keeps open-loop
//     runs coordination-omission-free;
//   - a per-server circuit breaker (breakerSet) that trips after
//     consecutive slow reads and steers the hedged read path straight
//     to an alternate replica while the primary cools down.
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geobalance/internal/rng"
	"geobalance/internal/router"
)

// CapacityClass is one band of a heterogeneous fleet: Frac of the
// initial servers get capacity Cap.
type CapacityClass struct {
	Cap  float64 // capacity weight (relative to the default 1)
	Frac float64 // fraction of the initial fleet, in (0, 1]
}

// ParseCapacities parses the CLI form of a capacity assignment:
// comma-separated "CAP:FRAC" bands, e.g. "4:0.1,1:0.9" — a tenth of
// the fleet at 4x capacity, the rest at 1x. Fractions must sum to at
// most 1 (+epsilon); servers beyond the listed bands keep capacity 1.
func ParseCapacities(s string) ([]CapacityClass, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var classes []CapacityClass
	sum := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		cs, fs, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("loadgen: capacity band %q: want CAP:FRAC", part)
		}
		cap, err := strconv.ParseFloat(cs, 64)
		if err != nil || !(cap > 0) || math.IsInf(cap, 0) {
			return nil, fmt.Errorf("loadgen: capacity band %q: bad capacity %q (want a finite number > 0)", part, cs)
		}
		frac, err := strconv.ParseFloat(fs, 64)
		if err != nil || !(frac > 0 && frac <= 1) {
			return nil, fmt.Errorf("loadgen: capacity band %q: bad fraction %q (want in (0, 1])", part, fs)
		}
		sum += frac
		classes = append(classes, CapacityClass{Cap: cap, Frac: frac})
	}
	if sum > 1+1e-9 {
		return nil, fmt.Errorf("loadgen: capacity fractions sum to %g > 1", sum)
	}
	return classes, nil
}

// assignCapacities applies the capacity bands to the initial fleet in
// server order (band order as given) and returns the resulting
// per-server capacity map. Unlisted servers keep capacity 1.
func assignCapacities(rt *router.Router, names []string, classes []CapacityClass) (map[string]float64, error) {
	caps := make(map[string]float64, len(names))
	for _, name := range names {
		caps[name] = 1
	}
	i := 0
	for _, cl := range classes {
		n := int(math.Ceil(cl.Frac * float64(len(names))))
		for ; n > 0 && i < len(names); i, n = i+1, n-1 {
			if err := rt.SetCapacity(names[i], cl.Cap); err != nil {
				return nil, err
			}
			caps[names[i]] = cl.Cap
		}
	}
	return caps, nil
}

// serverClock is one server's virtual queue: busyUntil is the virtual
// time (ns since model start) at which the server finishes everything
// already routed to it, rate is its current service rate in ops/sec
// (stored as float bits so a cascade can slash it atomically under
// running traffic).
type serverClock struct {
	busyUntil atomic.Int64
	rate      atomic.Uint64
}

// serviceModel attaches a simulated service time to every routed op.
// Each server is an exponential-service single queue: an op routed to
// server s at wall offset t draws S ~ Exp(rate_s), occupies the
// virtual clock interval [max(t, busyUntil_s), +S), and experiences
// sojourn finish - t — queueing delay plus service, exactly the
// quantity internal/queueing's supermarket model predicts the tail of.
// The model is what makes a cascade visible: a capacity-slashed server
// serves at a tenth the rate, its busy clock runs away from wall time,
// and every op still routed to it reports an exploding sojourn.
type serviceModel struct {
	start time.Time

	mu     sync.RWMutex
	clocks map[string]*serverClock
	rate   float64 // ops/sec per unit of capacity
}

// newServiceModel builds the model: rate is the service rate of a
// capacity-1 server in ops/sec; caps seeds per-server rates for the
// initial fleet (servers joining later default to capacity 1).
func newServiceModel(rate float64, caps map[string]float64, start time.Time) *serviceModel {
	m := &serviceModel{start: start, rate: rate, clocks: make(map[string]*serverClock, len(caps))}
	for name, c := range caps {
		m.clock(name).rate.Store(math.Float64bits(rate * c))
	}
	return m
}

func (m *serviceModel) clock(name string) *serverClock {
	m.mu.RLock()
	c := m.clocks[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.clocks[name]; c == nil {
		c = &serverClock{}
		c.rate.Store(math.Float64bits(m.rate))
		m.clocks[name] = c
	}
	return c
}

// setCapacity re-rates a server's virtual queue — the service-side
// half of a capacity change (the router side is Router.SetCapacity).
func (m *serviceModel) setCapacity(name string, capacity float64) {
	m.clock(name).rate.Store(math.Float64bits(m.rate * capacity))
}

// observe routes one op through name's virtual queue and returns its
// sojourn (queueing delay + service time). Lock-free on the hot path
// after the clock exists; the CAS loop makes concurrent observers
// serialize their service intervals like a real single queue.
func (m *serviceModel) observe(name string, r *rng.Rand) time.Duration {
	c := m.clock(name)
	rate := math.Float64frombits(c.rate.Load())
	if rate <= 0 {
		rate = m.rate
	}
	service := int64(r.Exp() / rate * float64(time.Second))
	now := time.Since(m.start).Nanoseconds()
	for {
		busy := c.busyUntil.Load()
		begin := now
		if busy > begin {
			begin = busy
		}
		finish := begin + service
		if c.busyUntil.CompareAndSwap(busy, finish) {
			return time.Duration(finish - now)
		}
	}
}

// backlog reports how far (virtual ns) name's queue extends past now —
// the cascade walkthrough's "snowball depth" readout.
func (m *serviceModel) backlog(name string) time.Duration {
	m.mu.RLock()
	c := m.clocks[name]
	m.mu.RUnlock()
	if c == nil {
		return 0
	}
	d := c.busyUntil.Load() - time.Since(m.start).Nanoseconds()
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// maxBacklog returns the deepest queue and its server.
func (m *serviceModel) maxBacklog() (string, time.Duration) {
	m.mu.RLock()
	names := make([]string, 0, len(m.clocks))
	for name := range m.clocks {
		names = append(names, name)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	var (
		worst   string
		deepest time.Duration
	)
	for _, name := range names {
		if b := m.backlog(name); b > deepest {
			worst, deepest = name, b
		}
	}
	return worst, deepest
}

// backoff returns the sleep before retry number attempt (1-based):
// full-jitter capped exponential — uniform in [0, min(cap, base·2^(attempt-1))],
// floored at the server's retry-after hint when one was given.
func backoff(r *rng.Rand, attempt int, base, cap, hint time.Duration) time.Duration {
	ceil := base << uint(attempt-1)
	if ceil > cap || ceil <= 0 {
		ceil = cap
	}
	d := time.Duration(r.Float64() * float64(ceil))
	if d < hint {
		d = hint
	}
	return d
}

// breakerSet is a per-server circuit breaker over read sojourns: slow
// consecutive reads trip the breaker, and while it is open the hedged
// read path skips the server entirely instead of sampling it again.
type breakerSet struct {
	threshold int           // consecutive slow reads to trip
	cooldown  time.Duration // how long an open breaker stays open

	mu sync.RWMutex
	m  map[string]*breaker
}

type breaker struct {
	slow      atomic.Int32
	openUntil atomic.Int64 // unix ns; 0 = closed
	opens     atomic.Int64
}

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	return &breakerSet{threshold: threshold, cooldown: cooldown, m: make(map[string]*breaker)}
}

func (bs *breakerSet) get(name string) *breaker {
	bs.mu.RLock()
	b := bs.m[name]
	bs.mu.RUnlock()
	if b != nil {
		return b
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b = bs.m[name]; b == nil {
		b = &breaker{}
		bs.m[name] = b
	}
	return b
}

// open reports whether name's breaker is currently open.
func (bs *breakerSet) open(name string, now time.Time) bool {
	return bs.get(name).openUntil.Load() > now.UnixNano()
}

// record feeds one read outcome. Returns true when this outcome
// tripped the breaker open (for the opens counter).
func (bs *breakerSet) record(name string, wasSlow bool, now time.Time) bool {
	b := bs.get(name)
	if !wasSlow {
		b.slow.Store(0)
		return false
	}
	if int(b.slow.Add(1)) < bs.threshold {
		return false
	}
	b.slow.Store(0)
	b.openUntil.Store(now.Add(bs.cooldown).UnixNano())
	b.opens.Add(1)
	return true
}

// opens sums breaker-open transitions across servers.
func (bs *breakerSet) openCount() int64 {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	var n int64
	for _, b := range bs.m {
		n += b.opens.Load()
	}
	return n
}
