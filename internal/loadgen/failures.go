// Scripted failure injection: timed mass-leave, crash, and torus
// zone-outage events driven against the router while the traffic
// workers run, with a repair pass after each destructive event. The
// scenarios follow the classic churn studies (graceful leave vs. crash
// vs. correlated regional failure); the harness asserts afterwards
// that repair converged and no key became unreadable — the paper's
// placement invariants must survive the fleet misbehaving, not just
// the fleet growing and shrinking.
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// Failure kinds. A "leave" is graceful: drain, migrate every replica
// away in bounded batches, then remove. A "crash" removes servers with
// no warning — their replicas are simply gone and Repair re-replicates
// from the survivors. A "zone" is a correlated crash: every server
// inside a random torus box fails together (on the ring, where there
// is no geometry, it degrades to a crash of the same expected size).
// A "cascade" is a correlated brownout, the overload lab's scenario:
// the servers in the box stay up but their capacity (and simulated
// service rate, when the service model is attached) collapses to
// cascadeSlash of its value — arrivals scheduled past the zone's
// remaining capacity then either snowball onto it (no admission
// control) or get steered away and shed (bounded load + retries).
// A "kill" is a whole-router crash, the durability lab's scenario: the
// router process dies mid-traffic and is rebuilt from its write-ahead
// journal (snapshot + WAL replay); it takes no fraction and requires
// the run to have a journal attached (Config.JournalDir).
const (
	FailLeave   = "leave"
	FailCrash   = "crash"
	FailZone    = "zone"
	FailCascade = "cascade"
	FailKill    = "kill"
)

// cascadeSlash is the capacity multiplier a cascade event applies to
// its victims: a browned-out server keeps a tenth of its capacity.
const cascadeSlash = 0.1

// FailureEvent is one scripted event: at After past the start of the
// run, kill (or drain out) a fraction of the live fleet.
type FailureEvent struct {
	After time.Duration // offset from run start
	Kind  string        // FailLeave, FailCrash, FailZone, FailCascade, or FailKill
	Frac  float64       // target fraction of live servers, in (0, 1); unused for kill
}

func (e *FailureEvent) validate() error {
	switch e.Kind {
	case FailLeave, FailCrash, FailZone, FailCascade, FailKill:
	default:
		return fmt.Errorf("loadgen: unknown failure kind %q (want %s, %s, %s, %s, or %s)",
			e.Kind, FailLeave, FailCrash, FailZone, FailCascade, FailKill)
	}
	if e.After < 0 {
		return fmt.Errorf("loadgen: failure %s at negative offset %v", e.Kind, e.After)
	}
	if e.Kind == FailKill {
		// The whole router dies; there is no fraction to pick.
		if e.Frac != 0 {
			return fmt.Errorf("loadgen: kill event takes no fraction (got %v)", e.Frac)
		}
		return nil
	}
	if !(e.Frac > 0 && e.Frac < 1) {
		return fmt.Errorf("loadgen: failure %s fraction %v outside (0, 1)", e.Kind, e.Frac)
	}
	return nil
}

// FailureScript is a sequence of failure events; order does not matter
// (the runner fires them by offset).
type FailureScript []FailureEvent

// ParseFailureScript parses the CLI form of a script: comma-separated
// events "kind@offset[:frac]", e.g.
// "crash@100ms:0.1,zone@250ms:0.3,leave@400ms:0.1". The fraction
// defaults to 0.1 — the "kill a tenth of the fleet" scenario. A kill
// event ("kill@300ms") takes no fraction at all.
func ParseFailureScript(s string) (FailureScript, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var script FailureScript
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kind, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("loadgen: failure event %q: want kind@offset[:frac]", part)
		}
		ev := FailureEvent{Kind: kind}
		if kind != FailKill {
			ev.Frac = 0.1
		}
		offs, frac, hasFrac := strings.Cut(rest, ":")
		var err error
		if ev.After, err = time.ParseDuration(offs); err != nil {
			return nil, fmt.Errorf("loadgen: failure event %q: %v", part, err)
		}
		if hasFrac && kind == FailKill {
			return nil, fmt.Errorf("loadgen: failure event %q: kill takes no fraction", part)
		}
		if hasFrac {
			// strconv, not Sscanf: "0.5junk" must be an error, not a
			// silently truncated 0.5.
			if ev.Frac, err = strconv.ParseFloat(frac, 64); err != nil {
				return nil, fmt.Errorf("loadgen: failure event %q: bad fraction %q", part, frac)
			}
		}
		if err := ev.validate(); err != nil {
			return nil, err
		}
		script = append(script, ev)
	}
	return script, nil
}

// FailureOutcome records what one event actually did.
type FailureOutcome struct {
	Kind     string
	At       time.Duration // scheduled offset
	Killed   []string      // servers taken out (sorted)
	Slowed   []string      // servers browned out by a cascade (capacity slashed, still up)
	Moved    int           // replicas migrated away before a graceful leave
	Repaired int           // keys re-replicated by the post-event repair
	Lost     int           // keys whose every replica died (records survive and are re-homed)
	Replayed int           // journal entries replayed by a kill's recovery
	Err      string        // recovery failure, if a kill could not come back
}

// String renders the outcome in report form.
func (f *FailureOutcome) String() string {
	if f.Kind == FailKill {
		if f.Err != "" {
			return fmt.Sprintf("%s@%v recovery FAILED: %s", f.Kind, f.At, f.Err)
		}
		return fmt.Sprintf("%s@%v crashed the router, replayed %d journal entries, repaired %d keys",
			f.Kind, f.At, f.Replayed, f.Repaired)
	}
	if f.Kind == FailCascade {
		return fmt.Sprintf("%s@%v slashed %d server(s) to %.0f%% capacity",
			f.Kind, f.At, len(f.Slowed), 100*cascadeSlash)
	}
	s := fmt.Sprintf("%s@%v killed %d server(s)", f.Kind, f.At, len(f.Killed))
	if f.Moved > 0 {
		s += fmt.Sprintf(", migrated %d replicas", f.Moved)
	}
	s += fmt.Sprintf(", repaired %d keys", f.Repaired)
	if f.Lost > 0 {
		s += fmt.Sprintf(" (%d lost every replica)", f.Lost)
	}
	return s
}

// runFailures fires the script's events at their offsets until all
// have fired or stop closes. It returns the per-event outcomes in
// firing order. Victim selection draws from its own rng stream
// (1<<34), so the script is deterministic given (Config, Seed) and
// independent of the churner and the workers.
func runFailures(lv *liveFleet, cfg *Config, lm *LoadMetrics,
	model *serviceModel, caps map[string]float64, stop <-chan struct{}) []FailureOutcome {
	script := append(FailureScript(nil), cfg.Failures...)
	sort.SliceStable(script, func(i, j int) bool { return script[i].After < script[j].After })
	fr := rng.NewStream(cfg.Seed, 1<<34)
	start := time.Now()
	outcomes := make([]FailureOutcome, 0, len(script))
	for _, ev := range script {
		if wait := ev.After - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return outcomes
			case <-t.C:
			}
		}
		outcomes = append(outcomes, fireFailure(lv, cfg, ev, fr, model, caps))
		if lm != nil {
			lm.FailureEvents.Inc(0)
		}
	}
	return outcomes
}

// fireFailure executes one event against the live fleet. Events fire
// one at a time from this goroutine, the only one that swaps the
// fleet, so a non-kill event holds one read lock for its whole run.
func fireFailure(lv *liveFleet, cfg *Config, ev FailureEvent, fr *rng.Rand,
	model *serviceModel, caps map[string]float64) FailureOutcome {
	out := FailureOutcome{Kind: ev.Kind, At: ev.After}
	if ev.Kind == FailKill {
		// Whole-router crash and journal recovery; only runs with a
		// journal attached.
		if !lv.durable {
			out.Err = "no journal attached"
			return out
		}
		replayed, err := lv.kill(cfg)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		out.Replayed = replayed
		// Standard post-crash discipline: re-home anything the replayed
		// state left under-replicated, then tighten placement.
		f := lv.acquire()
		out.Repaired, out.Lost = f.Repair()
		f.Rebalance()
		lv.release()
		return out
	}
	f := lv.acquire()
	defer lv.release()
	victims := pickVictims(f, ev, fr)
	if len(victims) == 0 {
		return out
	}
	if ev.Kind == FailCascade {
		// Brownout, not outage: the victims stay in the fleet but keep
		// only cascadeSlash of their capacity, on both sides of the
		// ledger — the router's admission threshold (so bounded-load
		// placement steers away) and the service model's rate (so ops
		// still routed there queue up).
		for _, name := range victims {
			c := caps[name]
			if c <= 0 {
				c = 1
			}
			c *= cascadeSlash
			if f.SetCapacity(name, c) == nil {
				caps[name] = c
				out.Slowed = append(out.Slowed, name)
				if model != nil {
					model.setCapacity(name, c)
				}
			}
		}
		sort.Strings(out.Slowed)
		return out
	}
	if ev.Kind == FailLeave {
		// Graceful: drain first so placements and failover reads steer
		// away, then migrate every replica off in bounded batches while
		// the traffic keeps running.
		for _, name := range victims {
			f.SetDraining(name, true)
		}
		for rounds := 0; rounds < 64; rounds++ {
			p := f.PlanMigration(2048)
			if p.Len() == 0 {
				break
			}
			for !p.Done() {
				applied, _ := p.ApplyBatch(128)
				out.Moved += applied
			}
			if !p.Truncated() {
				break
			}
		}
	}
	for _, name := range victims {
		if f.leave(name) == nil {
			out.Killed = append(out.Killed, name)
		}
	}
	out.Repaired, out.Lost = f.Repair()
	return out
}

// pickVictims selects the event's casualties from the current live
// fleet, always leaving at least one server standing. A zone event on
// the torus kills the servers inside a random box whose volume is the
// requested fraction; everything else (and a zone on the ring) samples
// uniformly without replacement.
func pickVictims(f Fleet, ev FailureEvent, fr *rng.Rand) []string {
	servers := f.Servers()
	if len(servers) < 2 {
		return nil
	}
	maxKill := len(servers) - 1
	if (ev.Kind == FailZone || ev.Kind == FailCascade) && f.Geo != nil {
		dim := f.Geo.Dim()
		side := math.Pow(ev.Frac, 1/float64(dim))
		lo := make(geom.Vec, dim)
		hi := make(geom.Vec, dim)
		for a := range lo {
			lo[a] = fr.Float64()
			hi[a] = math.Mod(lo[a]+side, 1)
		}
		victims := f.Geo.ServersInRegion(lo, hi)
		if len(victims) > maxKill {
			victims = victims[:maxKill]
		}
		return victims
	}
	n := int(math.Ceil(float64(len(servers)) * ev.Frac))
	if n > maxKill {
		n = maxKill
	}
	// Partial Fisher-Yates over a copy: the first n entries are the
	// victims.
	picks := append([]string(nil), servers...)
	for i := 0; i < n; i++ {
		j := i + fr.Intn(len(picks)-i)
		picks[i], picks[j] = picks[j], picks[i]
	}
	return picks[:n]
}
