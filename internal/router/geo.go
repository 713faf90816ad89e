// Geo: the torus-backed geographic d-choice router — the serving path
// for the paper's Section 3 geometry, sharing every piece of the
// serving core with the ring-backed hashring facade.
package router

import (
	"fmt"
	"sort"

	"geobalance/internal/geom"
	"geobalance/internal/journal"
	"geobalance/internal/rng"
	"geobalance/internal/torus"
)

// MaxGeoDim bounds the torus dimension Geo serves. It keeps the
// per-lookup coordinate buffer on the stack (and matches the
// dimensions torus.NearestShared serves scratch-free).
const MaxGeoDim = 8

// Geo is a geographic d-choice router: servers sit at fixed
// coordinates on the unit k-torus (for instance datacenter positions
// with latitude/longitude scaled to [0,1)^2), each key hashes to d
// independent points on the torus, and the key is placed at the
// least-loaded of the d sites nearest those points — the paper's
// geometric power of d choices with the torus metric standing in for
// network proximity.
//
// Geo embeds the serving core: Place, Locate, Remove, the batch,
// replication, bounded-load, migration and metrics surface are the
// core's own methods, promoted unchanged, so the concurrency model,
// allocation guarantees, and method semantics are exactly Router's
// (see the package comment): lookups are lock-free against immutable
// snapshots, Place/Locate/Remove on an unchanged membership are
// allocation-free. Geo adds only what the torus geometry needs:
// membership ops that build the torus topology (AddServer,
// AddServerWithCapacity, RemoveServer — copy-on-write snapshots whose
// torus index is built incrementally from the prior snapshot,
// torus.WithSite/WithoutSite), the geometry queries Location,
// ServersInRegion and Dim, and the journal entry points StartJournal,
// CompactJournal and RecoverGeo, which supply the torus header and
// coordinates to the core's journal methods they shadow.
type Geo struct {
	*Router
	dim int
}

// geoTopo is the torus metric as a Topology: an immutable torus.Space
// holding the live servers' sites plus the site<->slot correspondence.
type geoTopo struct {
	dim      int
	space    *torus.Space
	siteSlot []int32 // site index -> server slot
	slotSite []int32 // server slot -> site index; -1 for dead slots
}

// Resolve decodes hash h into a point on the torus (a SplitMix64
// stream seeded by h, one coordinate per draw — full 53-bit resolution
// per axis) and returns the slot of the nearest site. Allocation-free;
// safe for any number of concurrent callers (NearestShared keeps its
// scratch on this stack frame).
func (t *geoTopo) Resolve(h uint64) int32 {
	var pb [MaxGeoDim]float64
	p := pb[:t.dim]
	state := h
	for j := range p {
		p[j] = UnitFloat(rng.SplitMix64(&state))
	}
	best, _ := t.space.NearestShared(p)
	return t.siteSlot[best]
}

// ResolveBlock is the bulk form of Resolve: it decodes every hash to
// its torus point (the same SplitMix64 stream), resolves the whole
// block through the cell-sorted torus batch kernel, and maps sites to
// slots. dst[i] == Resolve(hs[i]) for every i — NearestBatch is pinned
// bit-identical to Nearest, so the batch serving path answers exactly
// like the scalar one.
func (t *geoTopo) ResolveBlock(sc *ResolveScratch, hs []uint64, dst []int32) {
	dim := t.dim
	pts := sc.Floats(len(hs) * dim)
	for i, h := range hs {
		state := h
		for j := 0; j < dim; j++ {
			pts[i*dim+j] = UnitFloat(rng.SplitMix64(&state))
		}
	}
	t.space.NearestBatchInto(&sc.Torus, pts, dst)
	for i, si := range dst {
		dst[i] = t.siteSlot[si]
	}
}

// CheckTopology contributes the torus-specific structural checks to
// CheckInvariants: the grid index invariants plus a live-slot <-> site
// bijection.
func (t *geoTopo) CheckTopology(names []string, dead []bool, live int) error {
	if t.space == nil {
		return fmt.Errorf("geo: no site index for %d live servers", live)
	}
	if t.space.NumBins() != live {
		return fmt.Errorf("geo: %d sites for %d live servers", t.space.NumBins(), live)
	}
	if len(t.siteSlot) != live || len(t.slotSite) != len(names) {
		return fmt.Errorf("geo: site/slot tables sized %d/%d for %d live of %d slots",
			len(t.siteSlot), len(t.slotSite), live, len(names))
	}
	for si, slot := range t.siteSlot {
		if int(slot) >= len(names) || dead[slot] {
			return fmt.Errorf("geo: site %d owned by dead or invalid slot %d", si, slot)
		}
		if t.slotSite[slot] != int32(si) {
			return fmt.Errorf("geo: site %d -> slot %d -> site %d", si, slot, t.slotSite[slot])
		}
	}
	for slot, si := range t.slotSite {
		if dead[slot] {
			if si != -1 {
				return fmt.Errorf("geo: dead slot %d still maps to site %d", slot, si)
			}
			continue
		}
		if si < 0 || int(si) >= live || t.siteSlot[si] != int32(slot) {
			return fmt.Errorf("geo: live slot %d maps to site %d", slot, si)
		}
	}
	return t.space.CheckIndex()
}

// NewGeo builds an empty geographic router on the dim-dimensional unit
// torus with d hash choices per key. Add servers with AddServer.
func NewGeo(dim, d int) (*Geo, error) {
	if dim < 1 || dim > MaxGeoDim {
		return nil, fmt.Errorf("geo: need 1 <= dim <= %d, got %d", MaxGeoDim, dim)
	}
	rt, err := New("geo", d)
	if err != nil {
		return nil, err
	}
	return &Geo{Router: rt, dim: dim}, nil
}

// Dim returns the torus dimension.
func (g *Geo) Dim() int { return g.dim }

// freshSlotSite builds a slot -> site table of the current slot-table
// length, every entry dead (-1).
func freshSlotSite(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// AddServer places a server at fixed torus coordinates (dimension
// Dim(), each coordinate in [0, 1)) and rebuilds the topology
// incrementally from the prior snapshot. Keys whose candidate owners
// change are NOT moved automatically; call Rebalance (same contract as
// the ring facade). Re-adding a removed server reuses its slot — the
// new coordinates need not match the old ones.
func (g *Geo) AddServer(name string, at geom.Vec) error {
	return g.AddServerWithCapacity(name, at, 1)
}

// AddServerWithCapacity is AddServer with an explicit relative
// capacity (see Txn.AddWithCapacity): the d-choice comparison and the
// bounded-load admission threshold use load/capacity.
func (g *Geo) AddServerWithCapacity(name string, at geom.Vec, capacity float64) error {
	if len(at) != g.dim {
		return fmt.Errorf("geo: server %q at %d coordinates, want %d", name, len(at), g.dim)
	}
	site := append(geom.Vec(nil), at...) // the topology keeps it; detach from the caller
	e := journal.Entry{Op: journal.OpAddServer, Name: name, Value: capacity, Coords: site}
	return g.UpdateJournaled(e, func(tx *Txn) (Topology, error) {
		slot, err := tx.AddWithCapacity(name, capacity)
		if err != nil {
			return nil, err
		}
		prev, _ := tx.Topology().(*geoTopo)
		var (
			space    *torus.Space
			siteSlot []int32
		)
		if prev == nil {
			if space, err = torus.FromSites([]geom.Vec{site}, g.dim); err != nil {
				return nil, err
			}
			siteSlot = []int32{slot}
		} else {
			if space, err = prev.space.WithSite(site); err != nil {
				return nil, err
			}
			siteSlot = make([]int32, len(prev.siteSlot)+1)
			copy(siteSlot, prev.siteSlot)
			siteSlot[len(prev.siteSlot)] = slot
		}
		slotSite := freshSlotSite(len(tx.Names()))
		for si, sl := range siteSlot {
			slotSite[sl] = int32(si)
		}
		return &geoTopo{dim: g.dim, space: space, siteSlot: siteSlot, slotSite: slotSite}, nil
	})
}

// RemoveServer takes a server off the torus. Its keys remain recorded
// but orphaned until Rebalance reassigns them. Removing the last
// server is an error.
func (g *Geo) RemoveServer(name string) error {
	e := journal.Entry{Op: journal.OpRemoveServer, Name: name}
	return g.UpdateJournaled(e, func(tx *Txn) (Topology, error) {
		slot, err := tx.Remove(name)
		if err != nil {
			return nil, err
		}
		prev := tx.Topology().(*geoTopo)
		si := prev.slotSite[slot]
		space, err := prev.space.WithoutSite(int(si))
		if err != nil {
			return nil, err
		}
		siteSlot := make([]int32, len(prev.siteSlot)-1)
		copy(siteSlot, prev.siteSlot[:si])
		copy(siteSlot[si:], prev.siteSlot[si+1:])
		slotSite := freshSlotSite(len(tx.Names()))
		for s2, sl := range siteSlot {
			slotSite[sl] = int32(s2)
		}
		return &geoTopo{dim: g.dim, space: space, siteSlot: siteSlot, slotSite: slotSite}, nil
	})
}

// Location returns the torus coordinates of a live server (a copy).
func (g *Geo) Location(name string) (geom.Vec, bool) {
	s := g.Snapshot()
	slot, ok := s.Slot(name)
	if !ok || s.Dead[slot] {
		return nil, false
	}
	t := s.Topo.(*geoTopo)
	return append(geom.Vec(nil), t.space.Site(int(t.slotSite[slot]))...), true
}

// ServersInRegion returns the live servers whose sites fall inside the
// wrapped axis-aligned box [lo, hi) (per axis, the wrapped interval
// from lo to hi — lo > hi wraps through zero), in sorted order. This
// is the blast-radius query for zone-outage scenarios: a torus
// coordinate region maps to the set of servers a correlated failure
// takes out together.
func (g *Geo) ServersInRegion(lo, hi geom.Vec) []string {
	s := g.Snapshot()
	t, ok := s.Topo.(*geoTopo)
	if !ok {
		return nil
	}
	var out []string
	for _, si := range t.space.SitesInBox(lo, hi, nil) {
		out = append(out, s.Names[t.siteSlot[si]])
	}
	sort.Strings(out)
	return out
}
