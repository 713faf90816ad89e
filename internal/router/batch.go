// Bulk serving fast path: LocateBatch/PlaceBatch/RemoveBatch amortize
// the per-key costs of the scalar serving path — snapshot load,
// candidate hashing, topology resolution, and (when a journal is
// attached) the group-commit fsync — across a block of keys. This is
// the path a network server's request batches hit (ROADMAP item 1): N
// keys cost one snapshot load, one bulk resolve through the topology's
// block kernel (torus.NearestBatch or jump.LocateBlock), and one
// journal fsync.
//
// Semantics are exactly the scalar paths': each key's block-resolved
// candidates go through the same admission step as a scalar Place
// (admit, then decide in choice.go), so selection, replication,
// draining and bounded-load admission cannot differ, and every record
// commits through the same setRec (pinned by the batch-vs-sequential
// equality tests in batch_test.go). Keys are processed in input order
// with load counters updated between keys, so a batch observes the
// same load evolution a sequential loop over the scalar calls would.
//
// Locking: with no journal attached, a batch commits each key under
// that key's shard lock alone, exactly the scalar Place/Remove
// locking, so concurrent batches contend only where their keys share a
// shard. Each key loads the snapshot under its lock and re-resolves
// the not-yet-committed keys if it moved. It also loads the journal
// pointer there: StartJournal publishes the journal while holding
// every shard, so a key that sees none is in the journal's captured
// state, and once one appears the rest of the batch takes the
// journaled path. With a journal attached, the batch write-locks every
// involved shard in ascending order, collects one recEntry per key and
// holds the shards across the one AppendBatch, so no placement in the
// batch becomes visible before its record is durable; a failed append
// undoes the batch. All multi-shard paths (StartJournal,
// CheckInvariants, and the journaled batches) acquire shards in
// ascending order and single-key paths hold at most one shard, so the
// batch path introduces no lock-order cycle.
package router

import (
	"fmt"

	"geobalance/internal/journal"
	"geobalance/internal/torus"
)

// BatchResult is one key's outcome in a batch operation. Exactly one
// of Server/Err is meaningful: Err nil means the operation succeeded
// and Server names the key's primary. N is the key's replica count
// (placements and removals; 0 for LocateBatch misses and errors).
type BatchResult struct {
	Server string
	N      int
	Err    error
}

// BlockTopology is the optional Topology extension the batch path uses
// to resolve a block of hashes in one call: dst[i] must equal
// Resolve(hs[i]) for every i (pinned by the facades' equality tests).
// Implementations may use the scratch's buffers freely; the router
// pools scratches, so ResolveBlock must not retain them. Topologies
// without the extension are resolved hash-by-hash.
type BlockTopology interface {
	ResolveBlock(sc *ResolveScratch, hs []uint64, dst []int32)
}

// ResolveScratch carries the reusable buffers a BlockTopology needs:
// grow-on-demand float/int blocks plus the torus batch kernel's
// scratch. Zero value ready; buffers grow to the largest batch and are
// reused across calls.
type ResolveScratch struct {
	f64 []float64
	i32 []int32

	// Torus is the cell-sort scratch for torus.NearestBatchInto.
	Torus torus.BatchScratch
}

// Floats returns the scratch's float buffer resized to n.
func (sc *ResolveScratch) Floats(n int) []float64 {
	if cap(sc.f64) < n {
		sc.f64 = make([]float64, n)
	}
	sc.f64 = sc.f64[:n]
	return sc.f64
}

// Ints returns the scratch's int32 buffer resized to n.
func (sc *ResolveScratch) Ints(n int) []int32 {
	if cap(sc.i32) < n {
		sc.i32 = make([]int32, n)
	}
	sc.i32 = sc.i32[:n]
	return sc.i32
}

// batchScratch is the pooled per-call state of a batch operation.
type batchScratch struct {
	h0s  []uint64        // per-key first-choice hash
	hs   []uint64        // q*D candidate hashes, key-major
	cand []int32         // q*D resolved candidate slots
	ws   []choice        // one key's decision working set
	ord  []int32         // key indices grouped by shard (LocateBatch)
	cnt  [65]int32       // shard-bucket counting sort
	ents []journal.Entry // write-ahead records for the batch
	done []int32         // journaled key indices, for rollback
	recs []keyRec        // removed records, for rollback
	res  ResolveScratch
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (r *Router) getBatchScratch() *batchScratch {
	if sc, ok := r.bpool.Get().(*batchScratch); ok {
		return sc
	}
	return new(batchScratch)
}

func (r *Router) putBatchScratch(sc *batchScratch) {
	// Entries reference caller key strings; drop the references so the
	// pool does not pin an old batch's keys.
	for i := range sc.ents {
		sc.ents[i] = journal.Entry{}
	}
	sc.ents = sc.ents[:0]
	r.bpool.Put(sc)
}

// shardMask returns the bitmask of key shards the hashes touch
// (keyShardCount is 64, exactly a uint64 of shards).
func shardMask(h0s []uint64) uint64 {
	var mask uint64
	for _, h := range h0s {
		mask |= 1 << (h & (keyShardCount - 1))
	}
	return mask
}

// allShards is the shard mask of the stop-the-world paths
// (StartJournal, CompactJournal).
const allShards = ^uint64(0)

// lockShards write-locks every shard in mask in ascending order.
func (r *Router) lockShards(mask uint64) {
	for i := 0; i < keyShardCount; i++ {
		if mask&(1<<uint(i)) != 0 {
			r.keys[i].mu.Lock()
		}
	}
}

func (r *Router) unlockShards(mask uint64) {
	for i := 0; i < keyShardCount; i++ {
		if mask&(1<<uint(i)) != 0 {
			r.keys[i].mu.Unlock()
		}
	}
}

// resolveBlock fills sc.cand with every key's D candidate slots
// (key-major) against snapshot t, using the topology's block kernel
// when it has one.
func (r *Router) resolveBlock(sc *batchScratch, t *Snapshot, keys []string, h0s []uint64) {
	d := t.D
	sc.hs = growU64(sc.hs, len(keys)*d)
	hs := sc.hs
	for i, key := range keys {
		hs[i*d] = h0s[i]
		for j := 1; j < d; j++ {
			hs[i*d+j] = Hash('k', j, key)
		}
	}
	sc.cand = growI32(sc.cand, len(keys)*d)
	if bt, ok := t.Topo.(BlockTopology); ok {
		bt.ResolveBlock(&sc.res, hs, sc.cand)
	} else {
		for i, h := range hs {
			sc.cand[i] = t.Topo.Resolve(h)
		}
	}
}

// hashKeys fills sc.h0s with every key's first-choice hash, which
// picks the key's shard, and returns it.
func (sc *batchScratch) hashKeys(keys []string) []uint64 {
	sc.h0s = growU64(sc.h0s, len(keys))
	for i, key := range keys {
		sc.h0s[i] = Hash('k', 0, key)
	}
	return sc.h0s
}

// PlaceBatch places a block of keys with one bulk candidate resolve,
// committing each key under its own shard lock as a scalar Place
// would, or, with a journal attached, under one ascending hold of the
// involved shards and one write-ahead group commit. out[i] reports key
// i's outcome; len(out) must equal len(keys). Each key behaves exactly
// as a scalar Place issued in input order would: sticky-duplicate and
// bounded-load rejections land in out[i].Err (rejections wrap
// ErrOverloaded) without failing the rest of the batch, replication
// and draining rules match, and later keys in the batch observe
// earlier keys' load. A journal append failure rolls back and fails
// every key the group commit covered.
func (r *Router) PlaceBatch(keys []string, out []BatchResult) {
	if len(out) != len(keys) {
		panic(fmt.Sprintf("%s: PlaceBatch with %d results for %d keys", r.name, len(out), len(keys)))
	}
	if len(keys) == 0 {
		return
	}
	sc := r.getBatchScratch()
	defer r.putBatchScratch(sc)
	p := placeRun{r: r, sc: sc, keys: keys, h0s: sc.hashKeys(keys), out: out}
	// Optimistic bulk resolve outside any lock, kept for each key only
	// while the snapshot loaded under its shard lock is unchanged (the
	// scalar path's load-under-lock rule, per key).
	p.t = r.snap.Load()
	if p.t.Live > 0 {
		r.resolveBlock(sc, p.t, keys, p.h0s)
	}
	if d := p.t.D; cap(sc.ws) < d {
		sc.ws = make([]choice, d)
	}
	p.ws = sc.ws[:p.t.D]
	if i := p.placeEach(); i < len(keys) {
		p.placeHeld(i)
	}
	if p.placed > 0 {
		r.nkeys.Add(p.placed)
	}
	if m := r.met.Load(); m != nil {
		if p.placed > 0 {
			m.Places.Add(p.h0s[0], p.placed)
		}
		if p.forwards > 0 {
			m.Forwards.Add(p.h0s[0], p.forwards)
		}
		if p.rejects > 0 {
			m.Rejects.Add(p.h0s[0], p.rejects)
		}
	}
}

// placeRun is one PlaceBatch call in progress: sc.cand holds the
// candidates of keys[base:], resolved against t, and the counters
// accumulate the call's metrics.
type placeRun struct {
	r    *Router
	sc   *batchScratch
	keys []string
	h0s  []uint64
	out  []BatchResult
	ws   []choice
	t    *Snapshot
	base int

	placed, forwards, rejects int64
}

// sync re-resolves keys[i:] if the membership moved since sc.cand was
// resolved. The caller holds key i's shard lock, so the snapshot a key
// is decided against is one loaded under its lock.
func (p *placeRun) sync(i int) {
	if t := p.r.snap.Load(); t != p.t {
		p.t, p.base = t, i
		if t.Live > 0 {
			p.r.resolveBlock(p.sc, t, p.keys[i:], p.h0s[i:])
		}
	}
}

// place admits key i against p.t from its block-resolved candidates
// and commits it through setRec, so later keys (and the bounded-load
// mean) see it exactly as a sequential scalar loop would. The caller
// holds the key's shard lock ks and does any journaling. Failures
// land in out[i].
func (p *placeRun) place(ks *keyShard, i int) (keyRec, bool) {
	t, key := p.t, p.keys[i]
	if t.Live > 0 { // an empty snapshot has no candidates; admit refuses
		cand := p.sc.cand[(i-p.base)*t.D:]
		for j := range p.ws {
			p.ws[j].slot = cand[j]
		}
	}
	rec, skipped, err := p.r.admit(ks, t, key, p.h0s[i], p.ws)
	p.forwards += int64(skipped)
	if err != nil {
		if _, over := err.(*OverloadedError); over {
			p.rejects++
		}
		p.out[i] = BatchResult{Err: err}
		return keyRec{}, false
	}
	ks.setRec(t, key, p.h0s[i], keyRec{}, rec)
	p.placed++
	p.out[i] = BatchResult{Server: t.Names[rec.slots[0]], N: int(rec.n)}
	return rec, true
}

// placeEach commits the keys one at a time, each under only its own
// shard lock, and returns how many it handled. It stops before key i
// if a journal is attached by then: StartJournal publishes the journal
// while holding every shard, so each key committed here is in the
// journal's captured state, and keys[i:] must be journaled.
func (p *placeRun) placeEach() int {
	for i := range p.keys {
		ks := p.r.keyShardFor(p.h0s[i])
		ks.mu.Lock()
		if p.r.jl.Load() != nil {
			ks.mu.Unlock()
			return i
		}
		p.sync(i)
		p.place(ks, i)
		ks.mu.Unlock()
	}
	return len(p.keys)
}

// placeHeld commits keys[from:] under the journaled discipline: every
// shard they touch write-locked in ascending order, and one
// AppendBatch group commit before the unlock, so no placement becomes
// visible before its record is durable. A failed append rolls all of
// them back.
func (p *placeRun) placeHeld(from int) {
	r, sc := p.r, p.sc
	mask := shardMask(p.h0s[from:])
	r.lockShards(mask)
	p.sync(from)
	lg := r.jl.Load()
	ents, done := sc.ents[:0], sc.done[:0]
	for i := from; i < len(p.keys); i++ {
		if rec, ok := p.place(r.keyShardFor(p.h0s[i]), i); ok && lg != nil {
			ents = append(ents, recEntry(p.keys[i], keyRec{}, rec))
			done = append(done, int32(i))
		}
	}
	if len(ents) > 0 {
		if err := lg.AppendBatch(ents); err != nil {
			jerr := fmt.Errorf("%s: journal: %w", r.name, err)
			for _, i := range done {
				ks := r.keyShardFor(p.h0s[i])
				ks.setRec(p.t, p.keys[i], p.h0s[i], ks.m[p.keys[i]], keyRec{})
				p.out[i] = BatchResult{Err: jerr}
			}
			p.placed -= int64(len(done))
		}
	}
	r.unlockShards(mask)
	sc.ents, sc.done = ents, done
}

// groupByShard fills sc.ord with the key indices grouped by ascending
// key shard (a counting sort over the 64 shard buckets), so a batch
// can process each shard's keys contiguously under one lock hold.
func (sc *batchScratch) groupByShard(h0s []uint64) []int32 {
	sc.ord = growI32(sc.ord, len(h0s))
	cnt := &sc.cnt
	for i := range cnt {
		cnt[i] = 0
	}
	for _, h := range h0s {
		cnt[(h&(keyShardCount-1))+1]++
	}
	for s := 1; s < len(cnt); s++ {
		cnt[s] += cnt[s-1]
	}
	for i, h := range h0s {
		s := h & (keyShardCount - 1)
		sc.ord[cnt[s]] = int32(i)
		cnt[s]++
	}
	return sc.ord
}

// LocateBatch looks up a block of placed keys with one read-lock hold
// (and snapshot load) per involved key shard. out[i] receives key
// i's recorded primary (dead or not — the scalar Locate contract) or
// a not-placed error; len(out) must equal len(keys).
func (r *Router) LocateBatch(keys []string, out []BatchResult) {
	if len(out) != len(keys) {
		panic(fmt.Sprintf("%s: LocateBatch with %d results for %d keys", r.name, len(out), len(keys)))
	}
	if len(keys) == 0 {
		return
	}
	sc := r.getBatchScratch()
	defer r.putBatchScratch(sc)
	h0s := sc.hashKeys(keys)
	ord := sc.groupByShard(h0s)
	var served int64
	for a := 0; a < len(ord); {
		shard := h0s[ord[a]] & (keyShardCount - 1)
		b := a
		for b < len(ord) && h0s[ord[b]]&(keyShardCount-1) == shard {
			b++
		}
		ks := &r.keys[shard]
		ks.mu.RLock()
		// Loaded under the lock, so it is at least as new as the
		// snapshot of any record read here (a record re-homed onto a
		// just-added server names a slot older snapshots lack).
		t := r.snap.Load()
		for _, i := range ord[a:b] {
			rec, ok := ks.m[keys[i]]
			if !ok {
				out[i] = BatchResult{Err: fmt.Errorf("%s: key %q not placed", r.name, keys[i])}
				continue
			}
			out[i] = BatchResult{Server: t.Names[rec.slots[0]], N: int(rec.n)}
			served++
		}
		ks.mu.RUnlock()
		a = b
	}
	if m := r.met.Load(); m != nil && served > 0 {
		m.Locates.Add(h0s[0], served)
	}
}

// RemoveBatch deletes a block of placed keys, each under its own
// shard lock as a scalar Remove would, or, with a journal attached,
// under one ascending hold of the involved shards and one write-ahead
// group commit. out[i] reports key i's outcome (Server is the removed
// primary); unplaced keys get a not-placed error without failing the
// rest. A journal append failure rolls back every key the group commit
// covered.
func (r *Router) RemoveBatch(keys []string, out []BatchResult) {
	if len(out) != len(keys) {
		panic(fmt.Sprintf("%s: RemoveBatch with %d results for %d keys", r.name, len(out), len(keys)))
	}
	if len(keys) == 0 {
		return
	}
	sc := r.getBatchScratch()
	defer r.putBatchScratch(sc)
	h0s := sc.hashKeys(keys)
	var removed int64
	i := 0
	// Per-key commit; stop before key i if a journal is attached by
	// then, as placeEach does.
	for ; i < len(keys); i++ {
		ks := r.keyShardFor(h0s[i])
		ks.mu.Lock()
		if r.jl.Load() != nil {
			ks.mu.Unlock()
			break
		}
		rec, ok := ks.m[keys[i]]
		if !ok {
			ks.mu.Unlock()
			out[i] = BatchResult{Err: fmt.Errorf("%s: key %q not placed", r.name, keys[i])}
			continue
		}
		t := r.snap.Load()
		ks.setRec(t, keys[i], h0s[i], rec, keyRec{})
		ks.mu.Unlock()
		out[i] = BatchResult{Server: t.Names[rec.slots[0]], N: int(rec.n)}
		removed++
	}
	if i < len(keys) {
		removed += r.removeHeld(sc, keys[i:], h0s[i:], out[i:])
	}
	if removed > 0 {
		r.nkeys.Add(-removed)
		if m := r.met.Load(); m != nil {
			m.Removes.Add(h0s[0], removed)
		}
	}
}

// removeHeld deletes keys under the journaled discipline (see
// placeHeld) and returns how many it removed.
func (r *Router) removeHeld(sc *batchScratch, keys []string, h0s []uint64, out []BatchResult) int64 {
	mask := shardMask(h0s)
	r.lockShards(mask)
	t := r.snap.Load()
	lg := r.jl.Load()
	ents := sc.ents[:0]
	done := sc.done[:0]
	recs := sc.recs[:0]
	for i, key := range keys {
		ks := r.keyShardFor(h0s[i])
		rec, ok := ks.m[key]
		if !ok {
			out[i] = BatchResult{Err: fmt.Errorf("%s: key %q not placed", r.name, key)}
			continue
		}
		if lg != nil {
			ents = append(ents, recEntry(key, rec, keyRec{}))
		}
		// Hide the record until the append settles, so a repeat of the
		// key later in this batch fails as not placed, while its load
		// stays charged: bounded-load admission must never see a
		// transiently lower load. The setRec below uncharges it.
		delete(ks.m, key)
		done = append(done, int32(i))
		recs = append(recs, rec)
		out[i] = BatchResult{Server: t.Names[rec.slots[0]], N: int(rec.n)}
	}
	if len(ents) > 0 {
		if err := lg.AppendBatch(ents); err != nil {
			jerr := fmt.Errorf("%s: journal: %w", r.name, err)
			for k, i := range done {
				// Reinstate the hidden record: the removal never happened.
				r.keyShardFor(h0s[i]).m[keys[i]] = recs[k]
				out[i] = BatchResult{Err: jerr}
			}
			done = done[:0]
		}
	}
	// Load counters come off only once the removals are journaled (the
	// scalar Remove's journal-then-uncharge order, batch-wide).
	for k, i := range done {
		r.keyShardFor(h0s[i]).setRec(t, keys[i], h0s[i], recs[k], keyRec{})
	}
	r.unlockShards(mask)
	sc.ents, sc.done, sc.recs = ents, done, recs
	return int64(len(done))
}
