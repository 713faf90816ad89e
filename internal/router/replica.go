// Replicated placement, failover reads, and repair.
//
// The paper's d candidate locations are a natural replica set: each
// key already hashes to d independent places, so r-way replication is
// "keep the key at the r least-loaded distinct candidates" instead of
// only the single winner — a geometric take on power-of-two-choices
// replication. The serving core stores the whole replica set in the
// fixed-size key record, charges every replica to its slot's load
// counter, and serves failover reads (LocateAny) that skip dead or
// draining replicas without any per-read coordination. Repair is the
// crash-recovery pass: it replaces only the replicas a failure lost,
// leaving healthy replicas (and therefore the bulk of the fleet's
// data) untouched, where Rebalance re-chooses whole sets.
package router

import (
	"errors"
	"fmt"

	"geobalance/internal/journal"
)

// ErrNoLiveReplica is wrapped by LocateAny when a key's record exists
// but every recorded replica is dead. The record survives — Repair
// re-homes it — but until then there is nowhere live to read from.
var ErrNoLiveReplica = errors.New("no live replica")

// SetReplication sets the number of replicas each subsequently placed
// key gets: the r least-loaded of its d distinct candidates, with
// slots[0] (the Place/Locate primary) the least loaded. Existing keys
// keep their old replica count until the next Rebalance or Repair
// re-conforms them. Requires 1 <= r <= min(d, MaxReplicas).
func (r *Router) SetReplication(rep int) error {
	if rep < 1 || rep > MaxReplicas {
		return fmt.Errorf("%s: need 1 <= replicas <= %d, got %d", r.name, MaxReplicas, rep)
	}
	e := journal.Entry{Op: journal.OpSetReplication, Count: rep}
	return r.UpdateJournaled(e, func(tx *Txn) (Topology, error) {
		if rep > tx.s.D {
			return nil, fmt.Errorf("%s: replicas %d exceed the %d hash choices per key",
				r.name, rep, tx.s.D)
		}
		tx.s.R = rep
		return tx.Topology(), nil
	})
}

// Replication returns the configured replicas-per-key factor.
func (r *Router) Replication() int { return r.snap.Load().R }

// SetDraining marks a live server as draining (or clears the mark):
// it keeps serving the keys it holds, but placements and failover
// reads prefer other candidates, and the migration planner moves its
// keys away. The graceful-leave sequence is SetDraining(name, true),
// PlanMigration + ApplyBatch until done, then the membership removal.
func (r *Router) SetDraining(name string, draining bool) error {
	e := journal.Entry{Op: journal.OpSetDraining, Name: name, Flag: draining}
	return r.UpdateJournaled(e, func(tx *Txn) (Topology, error) {
		i, ok := tx.Slot(name)
		if !ok || !tx.IsLive(i) {
			return nil, fmt.Errorf("%s: unknown server %q", r.name, name)
		}
		t := tx.s
		if t.Drain == nil {
			t.Drain = make([]bool, len(t.Names))
		}
		if t.Drain[i] != draining {
			t.Drain[i] = draining
			if draining {
				t.draining++
			} else {
				t.draining--
			}
		}
		return tx.Topology(), nil
	})
}

// PlaceReplicated is Place returning the replica count alongside the
// primary: the key is pinned to the top-R of its d geometric
// candidates (fewer when the candidate hashes resolve to fewer
// distinct live servers). Allocation-free; use Owners for the full
// owner list.
func (r *Router) PlaceReplicated(key string) (string, int, error) {
	t, rec, err := r.place(key)
	if err != nil {
		return "", 0, err
	}
	return t.Names[rec.slots[0]], int(rec.n), nil
}

// LocateAny returns a live server holding the key: the primary when it
// is healthy, otherwise the first healthy replica in record order —
// the failover read. Draining replicas are skipped while a non-draining
// one exists. When every replica is dead the error wraps
// ErrNoLiveReplica. Allocation-free on the success path.
func (r *Router) LocateAny(key string) (string, error) {
	h0 := Hash('k', 0, key)
	ks := r.keyShardFor(h0)
	ks.mu.RLock()
	rec, ok := ks.m[key]
	ks.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("%s: key %q not placed", r.name, key)
	}
	t := r.snap.Load()
	m := r.met.Load()
	drainFallback := int32(-1)
	for i := 0; i < int(rec.n); i++ {
		s := rec.slots[i]
		if t.Dead[s] {
			continue
		}
		if t.IsDraining(s) {
			if drainFallback < 0 {
				drainFallback = s
			}
			continue
		}
		if m != nil {
			m.Locates.Inc(h0)
			if s != rec.slots[0] {
				m.Failovers.Inc(h0)
			}
		}
		return t.Names[s], nil
	}
	if drainFallback >= 0 {
		if m != nil {
			m.Locates.Inc(h0)
			if drainFallback != rec.slots[0] {
				m.Failovers.Inc(h0)
			}
		}
		return t.Names[drainFallback], nil
	}
	if m != nil {
		m.NoLiveReplica.Inc(h0)
	}
	return "", fmt.Errorf("%s: key %q: %w", r.name, key, ErrNoLiveReplica)
}

// Owners appends the names of every server currently recorded for the
// key (primary first, dead replicas included — the record is the
// source of truth a repair works from) and returns the extended slice.
func (r *Router) Owners(key string, dst []string) ([]string, error) {
	h0 := Hash('k', 0, key)
	ks := r.keyShardFor(h0)
	ks.mu.RLock()
	rec, ok := ks.m[key]
	ks.mu.RUnlock()
	if !ok {
		return dst, fmt.Errorf("%s: key %q not placed", r.name, key)
	}
	t := r.snap.Load()
	for i := 0; i < int(rec.n); i++ {
		dst = append(dst, t.Names[rec.slots[i]])
	}
	return dst, nil
}

// checkRec reports why rec is not a legal record for the key under
// snapshot t, or nil when it is: every replica on a distinct live
// slot, resolving there at its recorded choice index, no replica on a
// draining slot while a non-draining candidate exists, and the replica
// count at the snapshot's target. A legal record need not be the
// least-loaded choice — placement is sticky. The background passes
// test it against nil; CheckInvariants reports the diagnosis.
func (t *Snapshot) checkRec(key string, h0 uint64, rec keyRec) error {
	if rec.n < 1 || int(rec.n) > MaxReplicas {
		return fmt.Errorf("key %q has replica count %d", key, rec.n)
	}
	for i := 0; i < int(rec.n); i++ {
		s := rec.slots[i]
		if int(s) >= len(t.Names) {
			return fmt.Errorf("key %q on out-of-range slot %d", key, s)
		}
		if t.Dead[s] {
			return fmt.Errorf("key %q on dead server %q", key, t.Names[s])
		}
		h := h0
		if rec.salts[i] != 0 {
			h = Hash('k', int(rec.salts[i]), key)
		}
		if got := t.Topo.Resolve(h); got != s {
			return fmt.Errorf("key %q recorded on %q but hashes to %q",
				key, t.Names[s], t.Names[got])
		}
		for j := 0; j < i; j++ {
			if rec.slots[j] == s {
				return fmt.Errorf("key %q has duplicate replica on %q", key, t.Names[s])
			}
		}
	}
	want, drainFiltered := t.target(key, h0)
	if int(rec.n) != want {
		return fmt.Errorf("key %q has %d replicas, want %d", key, rec.n, want)
	}
	if drainFiltered {
		for i := 0; i < int(rec.n); i++ {
			if t.Drain[rec.slots[i]] {
				return fmt.Errorf("key %q still on draining server %q",
					key, t.Names[rec.slots[i]])
			}
		}
	}
	return nil
}

// Repair re-replicates keys whose replica set lost a member: for every
// key with a dead or no-longer-resolving replica (or a stale replica
// count after SetReplication), the surviving replicas stay exactly
// where they are and only the lost slots are refilled with the
// least-loaded live candidates not already in the set. Unlike
// Rebalance it never moves a healthy replica, so a crash of k servers
// touches only the keys those servers carried — the recovery pass to
// run after failures. Returns the number of keys repaired and how many
// of them had lost every replica (their records survive and are
// re-homed, but a real deployment would need to restore their data
// from clients or backup).
func (r *Router) Repair() (repaired, lost int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.snap.Load()
	if t.Live == 0 {
		return 0, 0
	}
	for _, key := range r.sortedKeys() {
		h0 := Hash('k', 0, key)
		ks := r.keyShardFor(h0)
		ks.mu.Lock()
		if rec, ok := ks.m[key]; ok && t.checkRec(key, h0, rec) != nil {
			nrec, allLost := t.repairRec(key, h0, rec)
			if r.move(ks, t, key, h0, rec, nrec) {
				repaired++
				if allLost {
					lost++
				}
			}
		}
		ks.mu.Unlock()
	}
	if m := r.met.Load(); m != nil {
		m.RepairedKeys.Add(0, int64(repaired))
		m.LostKeys.Add(0, int64(lost))
	}
	return repaired, lost
}

// repairRec rebuilds a record around its surviving replicas: keep
// every replica that is live and still resolves, then fill up to the
// snapshot's target count with the least-loaded candidates not already
// in the set. Reports whether no replica survived.
func (t *Snapshot) repairRec(key string, h0 uint64, rec keyRec) (keyRec, bool) {
	_, drainFiltered := t.target(key, h0)
	var nrec keyRec
	liveReplicas := 0
	for i := 0; i < int(rec.n); i++ {
		s := rec.slots[i]
		if t.Dead[s] {
			continue
		}
		liveReplicas++ // a draining or captured replica still holds the data
		if drainFiltered && t.Drain[s] {
			continue
		}
		h := h0
		if rec.salts[i] != 0 {
			h = Hash('k', int(rec.salts[i]), key)
		}
		if t.Topo.Resolve(h) != s {
			continue
		}
		nrec.slots[nrec.n], nrec.salts[nrec.n] = s, rec.salts[i]
		nrec.n++
	}
	allLost := liveReplicas == 0
	// The full replacement set, least-loaded first; graft members not
	// already surviving until the count is met. decide and target agree
	// on the count by construction (both take it from distinct).
	full, _, _, _ := t.decideKey(key, h0, nil, false)
	if nrec.n > full.n {
		nrec.n = full.n // replication factor lowered: shed extras
	}
	for i := 0; i < int(full.n) && nrec.n < full.n; i++ {
		s := full.slots[i]
		dup := false
		for j := 0; j < int(nrec.n); j++ {
			if nrec.slots[j] == s {
				dup = true
				break
			}
		}
		if !dup {
			nrec.slots[nrec.n], nrec.salts[nrec.n] = s, full.salts[i]
			nrec.n++
		}
	}
	return nrec, allLost
}
