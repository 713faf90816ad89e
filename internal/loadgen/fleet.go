// The router under test. Fleet is the concrete handle the harness
// drives: the serving core plus the geometry facade that owns it.
// liveFleet is the run's cell holding the current Fleet, which a kill
// event replaces with one recovered from the journal.
//
// The crash-recovery contract: in a durable run (a journal attached)
// every router call holds the cell's read lock for its whole duration
// and a kill takes the write lock, so no operation can land on the
// abandoned pre-crash router after the swap. A kill closes the journal
// (releasing the file and flushing any buffered async records; in
// sync mode every acked mutation was already durable), recovers a
// fresh router from the journal directory by replaying snapshot plus
// WAL, re-points the metrics collectors at it, and swaps the fleet.
// Traffic resumes against the recovered router. A run without a
// journal never swaps, and its calls take no lock.
package loadgen

import (
	"sync"

	"geobalance/internal/geom"
	"geobalance/internal/hashring"
	"geobalance/internal/journal"
	"geobalance/internal/rng"
	"geobalance/internal/router"
)

// Fleet is the router under test. The embedded serving core carries
// everything the traffic, failure scripts and audits call (Place,
// LocateAny, the batch calls, Repair, Rebalance, LoadsInto,
// CheckInvariants, ...); the facade fields supply the membership and
// geometry the core does not know about. Exactly one of Geo and Ring
// is set, and its core is the embedded one.
type Fleet struct {
	*router.Router
	Geo  *router.Geo    // torus facade; nil on the ring
	Ring *hashring.Ring // ring facade; nil on the torus
}

func geoFleet(g *router.Geo) Fleet      { return Fleet{Router: g.Router, Geo: g} }
func ringFleet(rg *hashring.Ring) Fleet { return Fleet{Router: rg.Router, Ring: rg} }

// Location returns a live server's torus coordinates. It reports false
// on the ring, which has no geometry, and for unknown or dead servers.
func (f Fleet) Location(name string) (geom.Vec, bool) {
	if f.Geo == nil {
		return nil, false
	}
	return f.Geo.Location(name)
}

// join adds a server. The ring derives its position from the name; on
// the torus it joins at uniform random coordinates drawn from r.
func (f Fleet) join(name string, r *rng.Rand) error {
	if f.Geo == nil {
		return f.Ring.AddServer(name)
	}
	at := make(geom.Vec, f.Geo.Dim())
	for j := range at {
		at[j] = r.Float64()
	}
	return f.Geo.AddServer(name, at)
}

// leave removes a server from the facade's topology.
func (f Fleet) leave(name string) error {
	if f.Geo == nil {
		return f.Ring.RemoveServer(name)
	}
	return f.Geo.RemoveServer(name)
}

// startJournal attaches a journal in dir seeded with the current state.
func (f Fleet) startJournal(dir string, opts journal.Options) (err error) {
	if f.Geo == nil {
		_, err = f.Ring.StartJournal(dir, opts)
	} else {
		_, err = f.Geo.StartJournal(dir, opts)
	}
	return err
}

// recoverFrom rebuilds a fleet of the same geometry from the journal
// in dir and reports how many entries the replay applied.
func (f Fleet) recoverFrom(dir string, opts journal.Options) (Fleet, int, error) {
	if f.Geo == nil {
		rg, rec, err := hashring.Recover(dir, opts)
		if err != nil {
			return Fleet{}, 0, err
		}
		return ringFleet(rg), len(rec.Entries), nil
	}
	g, rec, err := router.RecoverGeo(dir, opts)
	if err != nil {
		return Fleet{}, 0, err
	}
	return geoFleet(g), len(rec.Entries), nil
}

// liveFleet holds the run's current Fleet; see the file comment for
// the locking contract.
type liveFleet struct {
	mu      sync.RWMutex
	durable bool // journal attached: calls read-lock, a kill write-locks
	opts    journal.Options
	f       Fleet
}

// acquire returns the current fleet, read-locked in a durable run.
// Pair every acquire with a release, and never nest them: a second
// read lock taken while a kill waits for the write lock deadlocks.
func (lv *liveFleet) acquire() Fleet {
	if lv.durable {
		lv.mu.RLock()
	}
	return lv.f
}

func (lv *liveFleet) release() {
	if lv.durable {
		lv.mu.RUnlock()
	}
}

// kill crashes the router under test and recovers it from the journal:
// close the journal, replay snapshot + WAL into a fresh router, re-bind
// the metrics collectors, swap the fleet. Returns how many journal
// entries the recovery replayed. On a recovery failure the old (now
// journal-less) fleet stays in place and the error is reported in the
// failure outcome — the run keeps serving rather than tearing down.
func (lv *liveFleet) kill(cfg *Config) (replayed int, err error) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	lv.f.Journal().Close()
	nf, replayed, err := lv.f.recoverFrom(cfg.JournalDir, lv.opts)
	if err != nil {
		return 0, err
	}
	if cfg.Registry != nil {
		nf.Instrument(cfg.Registry)
	}
	lv.f = nf
	return replayed, nil
}
