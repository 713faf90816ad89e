package main

import (
	"fmt"
	"time"

	"geobalance/internal/hashring"
	"geobalance/internal/journal"
	"geobalance/internal/router"
)

// target is the serving surface the benchmark drives: the methods
// router.Geo and hashring.Ring share.
type target interface {
	Place(key string) (string, error)
	Locate(key string) (string, error)
	Remove(key string) error
	PlaceBatch(keys []string, out []router.BatchResult)
	LocateBatch(keys []string, out []router.BatchResult)
	RemoveBatch(keys []string, out []router.BatchResult)
	CheckInvariants() error
	NumKeys() int
	Loads() map[string]int64
	SetMetrics(m *router.Metrics)
	StartJournal(dir string, opts journal.Options) (*journal.Log, error)
	CompactJournal() error
	Journal() *journal.Log
}

// fleet is a set-up router: servers added, preload placed, each
// client's primed fresh blocks placed, and (journaled workloads) the
// journal attached.
type fleet struct {
	t    target
	geo  *router.Geo // nil on the ring
	want []string    // primary each preload key's acked Place returned
}

// buildFleet sets up one router from the inputs. A journaled
// workload's journal is created in jdir.
func buildFleet(sp spec, in *inputs, jdir string) (*fleet, error) {
	f := &fleet{want: make([]string, len(in.preload))}
	if sp.ring {
		rg, err := hashring.New(in.servers, hashring.WithChoices(sp.d))
		if err != nil {
			return nil, err
		}
		f.t = rg
	} else {
		g, err := router.NewGeo(sp.dim, sp.d)
		if err != nil {
			return nil, err
		}
		if sp.r > 1 {
			if err := g.SetReplication(sp.r); err != nil {
				return nil, err
			}
		}
		for i, name := range in.servers {
			if err := g.AddServer(name, in.coords[i]); err != nil {
				return nil, err
			}
		}
		f.t, f.geo = g, g
	}
	if err := f.placeAll(sp, in.preload, in.preN, f.want); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	for c := range in.clients {
		s := &in.clients[c]
		lo := s.primed * sp.batch
		if err := f.placeAll(sp, s.fresh[lo:], s.freshN[lo:], nil); err != nil {
			return nil, fmt.Errorf("client %d window: %w", c, err)
		}
	}
	if sp.journaled {
		if _, err := f.t.StartJournal(jdir, journal.Options{NoSync: true}); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	return f, nil
}

// placeAll places keys through the workload's own write path (scalar
// Place, or PlaceBatch in blocks of sp.batch), checks each key holds
// its replica count n, and records each key's primary in want when
// want is non-nil.
func (f *fleet) placeAll(sp spec, keys []string, n []int8, want []string) error {
	if sp.batch == 1 {
		for i, k := range keys {
			srv, err := f.t.Place(k)
			if err != nil {
				return err
			}
			if want != nil {
				want[i] = srv
			}
		}
		return nil
	}
	out := make([]router.BatchResult, sp.batch)
	for lo := 0; lo < len(keys); lo += sp.batch {
		hi := min(lo+sp.batch, len(keys))
		o := out[:hi-lo]
		f.t.PlaceBatch(keys[lo:hi], o)
		for i := range o {
			if o[i].Err != nil {
				return o[i].Err
			}
			if o[i].N != int(n[lo+i]) {
				return fmt.Errorf("key %q placed on %d replicas, want %d", keys[lo+i], o[i].N, n[lo+i])
			}
			if want != nil {
				want[lo+i] = o[i].Server
			}
		}
	}
	return nil
}

// close releases the fleet's journal, if any.
func (f *fleet) close() error {
	if lg := f.t.Journal(); lg != nil {
		return lg.Close()
	}
	return nil
}

// liveKeys lists every key the run leaves placed: the preload plus each
// client's primed blocks (every pass ends where it started).
func liveKeys(sp spec, in *inputs) []string {
	keys := append([]string(nil), in.preload...)
	for c := range in.clients {
		s := &in.clients[c]
		keys = append(keys, s.fresh[s.primed*sp.batch:]...)
	}
	return keys
}

// maxOverMean is the fleet's balance quality: the largest server load
// over the mean load.
func maxOverMean(t target) float64 {
	var total, max int64
	loads := t.Loads()
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	return float64(max) * float64(len(loads)) / float64(total)
}

// recovered is one recovery of the run's journal.
type recovered struct {
	t       target
	dur     time.Duration // recovery call through CheckInvariants
	entries int           // replayed entries (snapshot plus WAL)
}

// recoverFrom rebuilds the router from the journal in dir and runs its
// invariant check; the timed span ends with a router that passed it.
func recoverFrom(sp spec, dir string) (*recovered, error) {
	start := time.Now()
	var (
		t   target
		rec *journal.Recovered
		err error
	)
	if sp.ring {
		var rg *hashring.Ring
		rg, rec, err = hashring.Recover(dir, journal.Options{})
		t = rg
	} else {
		var g *router.Geo
		g, rec, err = router.RecoverGeo(dir, journal.Options{})
		t = g
	}
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if err := t.CheckInvariants(); err != nil {
		t.Journal().Close()
		return nil, fmt.Errorf("recovered router: %w", err)
	}
	return &recovered{t: t, dur: time.Since(start), entries: len(rec.Entries)}, nil
}

// checkRecovered verifies the recovered router serves exactly the acked
// key set, each key on the primary the live router records.
func checkRecovered(live, got target, keys []string) error {
	if n := got.NumKeys(); n != len(keys) {
		return fmt.Errorf("recovered router holds %d keys, acked set has %d", n, len(keys))
	}
	for _, k := range keys {
		want, err := live.Locate(k)
		if err != nil {
			return fmt.Errorf("live router: %w", err)
		}
		srv, err := got.Locate(k)
		if err != nil {
			return fmt.Errorf("lost key after recovery: %w", err)
		}
		if srv != want {
			return fmt.Errorf("key %q recovered on %s, live router has %s", k, srv, want)
		}
	}
	return nil
}
