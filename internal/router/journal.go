// Durability hooks: the optional write-ahead journal behind the
// serving core, on the same nil-checked atomic-pointer contract as the
// metrics instrument — a router with no journal attached pays one
// atomic pointer load and a predictable branch per mutation, nothing
// else, and never an allocation (guarded in journal_alloc_test.go).
//
// With a journal attached, every mutation appends its record BEFORE it
// becomes visible: membership changes append inside the writer mutex
// just before the snapshot publishes, and key-record changes append
// under the key-shard lock just before setRec commits them. The
// journal therefore totally orders the mutations it sees per key and
// orders every membership change before any placement made against it
// — exactly the ordering replay needs.
//
// A key-record change's entry is always recEntry(key, old, rec), and
// each journaling discipline around the setRec commit exists once:
// scalar Place and Remove append write-ahead in the strict sense (a
// failed append fails the operation; commit in router.go); Rebalance,
// Repair and migration apply share move (migrate.go), which appends
// without waiting for the fsync, because losing a tail update record
// is benign — the recovered router holds the key's previous record and
// the standard post-recovery Repair/Rebalance pass re-homes it; a
// journaled batch collects its entries for one AppendBatch (batch.go);
// and replay appends nothing.
//
// Replay installs recorded outcomes verbatim through the same setRec
// (restore) rather than re-running the d-choice rule, whose outcome
// depends on load counters and racing traffic. Slot indices are stable
// under total-order replay — slots are append-only and never reused for
// new names — so a recorded slot means the same server at replay time
// as it did at append time.
package router

import (
	"errors"
	"fmt"
	"sort"

	"geobalance/internal/geom"
	"geobalance/internal/journal"
)

// CoordsFunc reports the position of a slot for journal state capture
// (the geo facade supplies torus coordinates; nil for slots without a
// position, e.g. dead ones, and for the ring facade entirely).
type CoordsFunc func(t *Snapshot, slot int32) []float64

// SetJournal attaches (or, with nil, detaches) a journal. The log must
// already contain the router's current state (StartJournal and the
// Recover constructors guarantee this); attaching an empty journal to
// a non-empty router records only subsequent mutations.
func (r *Router) SetJournal(lg *journal.Log) { r.jl.Store(lg) }

// Journal returns the attached journal (nil when durability is off).
func (r *Router) Journal() *journal.Log { return r.jl.Load() }

// StartJournal creates a journal in dir — replacing any prior journal
// there — seeded with a full state snapshot captured stop-the-world,
// and attaches it, so every later mutation is recorded and the log is
// self-contained from this moment. Facades wrap this with their
// Header and CoordsFunc; use their StartJournal instead.
func (r *Router) StartJournal(dir string, hdr journal.Header, coords CoordsFunc, opts journal.Options) (*journal.Log, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lockShards(allShards)
	defer r.unlockShards(allShards)
	lg, err := journal.Create(dir, hdr, r.captureStateLocked(coords), opts)
	if err != nil {
		return nil, err
	}
	r.jl.Store(lg)
	return lg, nil
}

// CompactJournal captures the current state stop-the-world and folds
// the attached journal's WAL into a fresh snapshot, bounding replay
// time. An error when no journal is attached.
func (r *Router) CompactJournal(coords CoordsFunc) error {
	lg := r.jl.Load()
	if lg == nil {
		return fmt.Errorf("%s: no journal attached", r.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lockShards(allShards)
	defer r.unlockShards(allShards)
	return lg.Compact(r.captureStateLocked(coords))
}

// captureStateLocked serializes the full router state as a replay
// sequence. Caller holds r.mu and every key-shard lock, so the capture
// is a consistent cut and the journal is quiescent.
//
// Entry order matters: first an add for EVERY slot in slot order —
// dead slots included, so replay reproduces the slot numbering key
// records reference — then removes for the dead slots (all adds first,
// so the last-live-server guard never trips mid-replay), then flags,
// then the key records in sorted order (determinism for tests; replay
// itself is order-independent across distinct keys).
func (r *Router) captureStateLocked(coords CoordsFunc) []journal.Entry {
	t := r.snap.Load()
	state := make([]journal.Entry, 0, len(t.Names)+int(r.nkeys.Load())+4)
	for i, name := range t.Names {
		e := journal.Entry{Op: journal.OpAddServer, Name: name, Value: t.Caps[i]}
		if coords != nil {
			e.Coords = coords(t, int32(i))
		}
		state = append(state, e)
	}
	for i, name := range t.Names {
		if t.Dead[i] {
			state = append(state, journal.Entry{Op: journal.OpRemoveServer, Name: name})
		}
	}
	for i, name := range t.Names {
		if !t.Dead[i] && t.Drain != nil && t.Drain[i] {
			state = append(state, journal.Entry{Op: journal.OpSetDraining, Name: name, Flag: true})
		}
	}
	if t.R > 1 {
		state = append(state, journal.Entry{Op: journal.OpSetReplication, Count: t.R})
	}
	if t.Bound > 0 {
		state = append(state, journal.Entry{Op: journal.OpSetBoundedLoad, Value: t.Bound})
	}
	keyAt := len(state)
	for i := range r.keys {
		for key, rec := range r.keys[i].m {
			state = append(state, journal.Entry{Op: journal.OpPlace, Name: key, Rec: recToJournal(rec)})
		}
	}
	keys := state[keyAt:]
	sort.Slice(keys, func(a, b int) bool { return keys[a].Name < keys[b].Name })
	return state
}

// recEntry is the journal record of the setRec change from old to rec
// (n == 0 meaning absent): a placement, a removal, or a replacement.
func recEntry(key string, old, rec keyRec) journal.Entry {
	switch {
	case old.n == 0:
		return journal.Entry{Op: journal.OpPlace, Name: key, Rec: recToJournal(rec)}
	case rec.n == 0:
		return journal.Entry{Op: journal.OpRemoveKey, Name: key}
	}
	return journal.Entry{Op: journal.OpUpdateRec, Name: key, Rec: recToJournal(rec)}
}

func recToJournal(rec keyRec) journal.Rec {
	jr := journal.Rec{N: int(rec.n)}
	for i := 0; i < int(rec.n); i++ {
		jr.Slots[i] = rec.slots[i]
		jr.Salts[i] = rec.salts[i]
	}
	return jr
}

// recFromJournal validates a journaled record against the current slot
// table and converts it. Dead slots are legal — a record stranded on a
// dead server at capture or crash time replays as-is and the standard
// post-recovery Repair pass re-homes it.
func (r *Router) recFromJournal(key string, jr journal.Rec) (keyRec, error) {
	t := r.snap.Load()
	if jr.N < 1 || jr.N > MaxReplicas {
		return keyRec{}, &journal.CorruptError{Reason: fmt.Sprintf("key %q: replica count %d", key, jr.N)}
	}
	var rec keyRec
	rec.n = int8(jr.N)
	for i := 0; i < jr.N; i++ {
		s := jr.Slots[i]
		if s < 0 || int(s) >= len(t.Names) {
			return keyRec{}, &journal.CorruptError{Reason: fmt.Sprintf("key %q: slot %d of %d", key, s, len(t.Names))}
		}
		if jr.Salts[i] < 0 || int(jr.Salts[i]) >= t.D {
			return keyRec{}, &journal.CorruptError{Reason: fmt.Sprintf("key %q: choice index %d of %d", key, jr.Salts[i], t.D)}
		}
		for j := 0; j < i; j++ {
			if jr.Slots[j] == s {
				return keyRec{}, &journal.CorruptError{Reason: fmt.Sprintf("key %q: duplicate replica slot %d", key, s)}
			}
		}
		rec.slots[i], rec.salts[i] = s, jr.Salts[i]
	}
	return rec, nil
}

// restore replays one journaled key-record op through setRec,
// installing the recorded record verbatim (no d-choice re-run): a
// placement charges it, an update (rebalance, repair or migration
// delta) swaps it in, a removal drops it. Placing a present key, or
// updating or removing an absent one, is corruption — a correct log
// removes before it re-places.
func (r *Router) restore(e *journal.Entry) error {
	var rec keyRec
	if e.Op != journal.OpRemoveKey {
		var err error
		if rec, err = r.recFromJournal(e.Name, e.Rec); err != nil {
			return err
		}
	}
	h0 := Hash('k', 0, e.Name)
	ks := r.keyShardFor(h0)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	old := ks.m[e.Name]
	if present := old.n != 0; present == (e.Op == journal.OpPlace) {
		return &journal.CorruptError{Reason: fmt.Sprintf("%v of key %q (placed: %v)", e.Op, e.Name, present)}
	}
	ks.setRec(r.snap.Load(), e.Name, h0, old, rec)
	r.nkeys.Add(int64(min(rec.n, 1) - min(old.n, 1))) // +1 place, -1 removal
	return nil
}

// UpdateJournaled is Update for journaled membership mutations: when
// fn succeeds and a journal is attached, e is appended durably BEFORE
// the new snapshot publishes, so the log orders every membership
// change ahead of any placement made against it. A failed append
// fails the mutation with nothing published. Facades route their
// membership ops through this so the entry can carry facade state
// (the geo router's coordinates).
func (r *Router) UpdateJournaled(e journal.Entry, fn func(tx *Txn) (Topology, error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	nt := r.snap.Load().clone()
	topo, err := fn(&Txn{s: nt})
	if err != nil {
		return err
	}
	nt.Topo = topo
	// CapSum is derived, not mutated: recompute from the post-mutation
	// slot tables so the bounded-load mean is always consistent with
	// the membership it publishes with.
	var capSum float64
	for i := range nt.Names {
		if !nt.Dead[i] {
			capSum += nt.Caps[i]
		}
	}
	nt.CapSum = capSum
	if e.Op != 0 {
		if lg := r.jl.Load(); lg != nil {
			if err := lg.Append(e); err != nil {
				return fmt.Errorf("%s: journal: %w", r.name, err)
			}
		}
	}
	r.snap.Store(nt)
	return nil
}

// geoCoords is the geo facade's CoordsFunc: live slots report their
// torus site, dead slots have no position (replay adds them at the
// origin before removing them again — only the slot number matters).
func geoCoords(t *Snapshot, slot int32) []float64 {
	gt, ok := t.Topo.(*geoTopo)
	if !ok {
		return nil
	}
	si := gt.slotSite[slot]
	if si < 0 {
		return nil
	}
	return gt.space.Site(int(si))
}

// StartJournal makes the geo router durable: it creates a journal in
// dir (replacing any prior journal there) seeded with the full current
// state, attaches it, and records every subsequent mutation. Recover
// the router with RecoverGeo.
func (g *Geo) StartJournal(dir string, opts journal.Options) (*journal.Log, error) {
	hdr := journal.Header{Kind: "geo", Dim: g.dim, D: g.Choices()}
	return g.Router.StartJournal(dir, hdr, geoCoords, opts)
}

// CompactJournal folds the journal's WAL into a fresh snapshot; see
// Router.CompactJournal.
func (g *Geo) CompactJournal() error { return g.Router.CompactJournal(geoCoords) }

// RecoverGeo rebuilds a geographic router from the journal in dir —
// snapshot plus WAL replay — and returns it with the journal attached
// and positioned to append. The recovered router holds exactly the
// recorded state, which may include records stranded on dead servers
// (keys in flight when the crash hit); run Repair and Rebalance before
// CheckInvariants, as after any failure. Corruption beyond a torn WAL
// tail yields an error wrapping journal.ErrCorrupt.
func RecoverGeo(dir string, opts journal.Options) (*Geo, *journal.Recovered, error) {
	lg, rec, err := journal.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	if rec.Header.Kind != "geo" {
		lg.Close()
		return nil, nil, &journal.CorruptError{Reason: fmt.Sprintf("journal is for a %q router, not geo", rec.Header.Kind)}
	}
	g, err := NewGeo(rec.Header.Dim, rec.Header.D)
	if err != nil {
		lg.Close()
		return nil, nil, &journal.CorruptError{Reason: err.Error()}
	}
	join := func(e *journal.Entry) error {
		at := make(geom.Vec, g.dim)
		if e.Coords != nil {
			if len(e.Coords) != g.dim {
				return &journal.CorruptError{Reason: fmt.Sprintf("server %q at %d coordinates, want %d", e.Name, len(e.Coords), g.dim)}
			}
			copy(at, e.Coords)
		}
		return g.AddServerWithCapacity(e.Name, at, e.Value)
	}
	if err := g.Replay(rec.Entries, join, g.RemoveServer); err != nil {
		lg.Close()
		return nil, nil, err
	}
	g.SetJournal(lg)
	return g, rec, nil
}

// Replay re-applies recovered journal entries in order — the one
// replay dispatch both facades' recover constructors share. Server
// adds and removes go through the facade's join and leave callbacks,
// which rebuild its topology (a join receives the whole entry: name,
// capacity and, on the torus, coordinates); every other op is the
// core's own: flag and capacity changes, and the restore installs of
// recorded key records. Run it before a journal is attached, so
// nothing is re-journaled. A failing entry aborts the replay with an
// error wrapping journal.ErrCorrupt that names its index.
func (r *Router) Replay(entries []journal.Entry, join func(e *journal.Entry) error, leave func(name string) error) error {
	for i := range entries {
		if err := r.replayEntry(&entries[i], join, leave); err != nil {
			return fmt.Errorf("%s: replaying entry %d: %w", r.name, i, asCorrupt(err))
		}
	}
	return nil
}

func (r *Router) replayEntry(e *journal.Entry, join func(e *journal.Entry) error, leave func(name string) error) error {
	switch e.Op {
	case journal.OpAddServer:
		return join(e)
	case journal.OpRemoveServer:
		return leave(e.Name)
	case journal.OpSetCapacity:
		return r.SetCapacity(e.Name, e.Value)
	case journal.OpSetDraining:
		return r.SetDraining(e.Name, e.Flag)
	case journal.OpSetReplication:
		return r.SetReplication(e.Count)
	case journal.OpSetBoundedLoad:
		return r.SetBoundedLoad(e.Value)
	case journal.OpPlace, journal.OpUpdateRec, journal.OpRemoveKey:
		return r.restore(e)
	}
	return &journal.CorruptError{Reason: fmt.Sprintf("unknown op %d", e.Op)}
}

// asCorrupt types a replay failure as corruption: a facade rejecting a
// CRC-valid entry (duplicate server, capacity out of range, ...) means
// the log's contents are inconsistent, which is the same contract
// violation as a bad checksum.
func asCorrupt(err error) error {
	if errors.Is(err, journal.ErrCorrupt) {
		return err
	}
	return &journal.CorruptError{Reason: err.Error()}
}
