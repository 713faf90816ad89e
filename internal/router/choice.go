// The d-choice decision: the paper's one mechanism — keep a key at the
// least-loaded of its d geometric candidates — implemented once for
// every caller.
//
// A decision runs in two steps. candidates resolves the key's d hash
// choices against a snapshot (the batch path resolves a whole block
// at once instead, through the topology's block kernel). decide then
// picks the record from those resolved slots. Scalar and batch
// placement, Rebalance, Repair and the migration planner all go
// through decide, and record validation (checkRec) applies
// the same replica-count rule through distinct, so the paths cannot
// drift apart.
package router

import "math"

// smallChoices is the candidate count a scalar decision keeps in a
// small stack working set; larger d takes a MaxChoices-sized one, so
// a common d = 2 placement does not clear a 2 KB set on every call.
const smallChoices = 8

// choice is one candidate in a decision's working set: its slot, the
// first choice index resolving to it, and its relative load.
type choice struct {
	rel  float64
	slot int32
	salt int8
}

// decideKey resolves the key's candidates against t and decides among
// them: decide's entry for the scalar paths. h0 must be
// Hash('k', 0, key) and the snapshot must have a live slot.
func (t *Snapshot) decideKey(key string, h0 uint64, loads []int64, bounded bool) (keyRec, int, float64, bool) {
	if t.D > smallChoices {
		var ws [MaxChoices]choice
		return t.decide(t.candidates(key, h0, ws[:t.D]), loads, bounded)
	}
	var ws [smallChoices]choice
	return t.decide(t.candidates(key, h0, ws[:t.D]), loads, bounded)
}

// candidates resolves the key's d hash choices into ws (len(ws) ==
// D) and returns it: ws[j].slot owns Hash('k', j, key), h0 being the
// j = 0 hash. The batch path fills the slots from its block resolve
// instead.
func (t *Snapshot) candidates(key string, h0 uint64, ws []choice) []choice {
	ws[0].slot = t.Topo.Resolve(h0)
	for j := 1; j < len(ws); j++ {
		ws[j].slot = t.Topo.Resolve(Hash('k', j, key))
	}
	return ws
}

// distinct compacts resolved candidates in place to their distinct
// slots, each keeping the first choice index that resolves to it, and
// returns the distinct count nc together with the rule a conforming
// record follows: the drain filter applies when some but not all
// distinct candidates are draining (a key whose candidates all drain
// still has to live somewhere), and the replica target want is min(R,
// candidates left after the filter).
func (t *Snapshot) distinct(ws []choice) (nc, want int, drainFiltered bool) {
	for j := range ws {
		s := ws[j].slot
		dup := false
		for _, c := range ws[:nc] {
			if c.slot == s {
				dup = true
				break
			}
		}
		if !dup {
			ws[nc] = choice{slot: s, salt: int8(j)}
			nc++
		}
	}
	eligible := nc
	if t.draining > 0 {
		nd := 0
		for _, c := range ws[:nc] {
			if !t.Drain[c.slot] {
				nd++
			}
		}
		if nd > 0 {
			eligible, drainFiltered = nd, nd != nc
		}
	}
	return nc, min(t.R, eligible), drainFiltered
}

// target returns the replica count a conforming record for the key
// must have under t, and whether the drain filter applies to its
// candidates: distinct's rule, for record validation.
func (t *Snapshot) target(key string, h0 uint64) (want int, drainFiltered bool) {
	if t.R == 1 && t.draining == 0 {
		return 1, false // every key has a candidate, and none drains
	}
	var ws [MaxChoices]choice
	_, want, drainFiltered = t.distinct(t.candidates(key, h0, ws[:t.D]))
	return want, drainFiltered
}

// decide is the d-choice decision over a key's resolved candidates
// (ws[j].slot owns choice j; decide reorders ws in place). It keeps
// the replica target's worth of least relatively loaded distinct
// candidates, primary first, with draining candidates excluded while
// an alternative exists; the primary's ties go to the lower choice
// index.
//
// When loads is non-nil it stands in for the live counters (the
// migration planner simulates the moves it has already planned). When
// bounded is set, bounded-load admission applies: candidates whose
// post-placement load would pass ceil(Bound · (m+1) · cap / CapSum)
// are forwarded past and counted in skipped, and if too few admissible
// candidates remain for a full record the decision rejects (ok false)
// with overshoot, the least-loaded candidate's relative load over the
// threshold. Without bounded the decision always succeeds.
// Allocation-free.
func (t *Snapshot) decide(ws []choice, loads []int64, bounded bool) (rec keyRec, skipped int, overshoot float64, ok bool) {
	nc, want, drainFiltered := t.distinct(ws)
	var limit float64
	minRel := math.Inf(1)
	if bounded {
		limit = t.Bound * float64(t.Total.Total()+1) / t.CapSum
	}
	k := 0
	for _, c := range ws[:nc] {
		var load float64
		if loads != nil {
			load = float64(loads[c.slot])
		} else {
			load = float64(t.Loads[c.slot].Total())
		}
		c.rel = load / t.Caps[c.slot]
		if bounded {
			minRel = min(minRel, c.rel)
			if load+1 > math.Ceil(limit*t.Caps[c.slot]) {
				skipped++ // saturated: forward past it
				continue
			}
		}
		if drainFiltered && t.Drain[c.slot] {
			continue // a drained replica would invalidate the record
		}
		ws[k] = c
		k++
	}
	if k < want {
		// Only admission can leave too few: reject rather than place a
		// degraded set (a short record would be "repaired" onto the very
		// servers admission just refused).
		return keyRec{}, skipped, minRel / limit, false
	}
	// Top-want by relative load, selected over the filtered list in
	// choice order: the primary is the first least-loaded candidate, so
	// its ties go to the lower choice index (later picks scan the list
	// as the earlier swaps left it).
	for w := 0; w < want; w++ {
		bi := w
		for i := w + 1; i < k; i++ {
			if ws[i].rel < ws[bi].rel {
				bi = i
			}
		}
		ws[w], ws[bi] = ws[bi], ws[w]
		rec.slots[w], rec.salts[w] = ws[w].slot, ws[w].salt
	}
	rec.n = int8(want)
	return rec, skipped, 0, true
}
