// Bulk serving fast path: LocateBatch/PlaceBatch/RemoveBatch amortize
// the per-key costs of the scalar serving path — snapshot load,
// candidate hashing, topology resolution, key-shard lock acquisition,
// and (when a journal is attached) the group-commit fsync — across a
// block of keys. This is the path a network server's request batches
// hit (ROADMAP item 1): N keys cost one snapshot load, one bulk
// resolve through the topology's block kernel (torus.NearestBatch or
// jump.LocateBlock), one lock round over the involved key shards, and
// one journal fsync.
//
// Semantics are exactly the scalar paths': each key's block-resolved
// candidates go through the same decide routine as a scalar Place
// (choice.go), so selection, replication, draining and bounded-load
// admission cannot differ, and the write-ahead journaling rules are
// the same (pinned by the batch-vs-sequential equality tests in
// batch_test.go). Keys are processed in input order with load counters
// updated between keys, so a batch observes the same load evolution a
// sequential loop over the scalar calls would.
//
// Locking: a batch locks every involved key shard in ascending shard
// order before committing and unlocks after the journal write. All
// multi-shard paths (StartJournal, CheckInvariants, and the batches
// here) acquire shards in ascending order and single-key paths hold at
// most one shard, so the batch path introduces no lock-order cycle.
// Holding the shard locks across the journal append preserves the
// write-ahead contract batch-wide: no placement in the batch becomes
// visible before its record is durable.
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
	done []int32         // committed key indices, for rollback
	recs []keyRec        // their records
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

// PlaceBatch places a block of keys with one bulk candidate resolve,
// one lock round over the involved key shards, and one write-ahead
// group commit. out[i] reports key i's outcome; len(out) must equal
// len(keys). Each key behaves exactly as a scalar Place issued in
// input order would: sticky-duplicate and bounded-load rejections land
// in out[i].Err (rejections wrap ErrOverloaded) without failing the
// rest of the batch, replication and draining rules match, and later
// keys in the batch observe earlier keys' load. A journal append
// failure rolls the whole batch back and fails every admitted key.
func (r *Router) PlaceBatch(keys []string, out []BatchResult) {
	if len(out) != len(keys) {
		panic(fmt.Sprintf("%s: PlaceBatch with %d results for %d keys", r.name, len(out), len(keys)))
	}
	if len(keys) == 0 {
		return
	}
	sc := r.getBatchScratch()
	defer r.putBatchScratch(sc)
	sc.h0s = growU64(sc.h0s, len(keys))
	h0s := sc.h0s
	for i, key := range keys {
		h0s[i] = Hash('k', 0, key)
	}
	mask := shardMask(h0s)
	// Optimistic bulk resolve outside the locks; kept only if the
	// snapshot is unchanged when we hold them (the scalar path's
	// load-under-lock rule, batch-wide).
	t := r.snap.Load()
	if t.Live > 0 {
		r.resolveBlock(sc, t, keys, h0s)
	}
	r.lockShards(mask)
	if t2 := r.snap.Load(); t2 != t {
		t = t2
		if t.Live > 0 {
			r.resolveBlock(sc, t, keys, h0s)
		}
	}
	if t.Live == 0 {
		r.unlockShards(mask)
		err := fmt.Errorf("%s: no servers", r.name)
		for i := range out {
			out[i] = BatchResult{Err: err}
		}
		return
	}
	lg := r.jl.Load()
	ents := sc.ents[:0]
	done := sc.done[:0]
	recs := sc.recs[:0]
	d := t.D
	if cap(sc.ws) < d {
		sc.ws = make([]choice, d)
	}
	ws := sc.ws[:d]
	var forwards, rejects int64
	for i, key := range keys {
		ks := r.keyShardFor(h0s[i])
		if _, dup := ks.m[key]; dup {
			out[i] = BatchResult{Err: fmt.Errorf("%s: key %q already placed", r.name, key)}
			continue
		}
		for j := range ws {
			ws[j].slot = sc.cand[i*d+j]
		}
		rec, skipped, overshoot, ok := t.decide(ws, nil, t.Bound > 0)
		forwards += int64(skipped)
		if !ok {
			rejects++
			out[i] = BatchResult{Err: &OverloadedError{
				Router: r.name, Key: key, RetryAfter: retryAfter(overshoot),
			}}
			continue
		}
		// Commit under the shard lock so later batch keys (and the
		// bounded-load mean) see this key's load, exactly as a
		// sequential scalar loop would. Nothing is visible outside
		// until the shards unlock, after the journal append.
		rec.addLoads(t, h0s[i], 1)
		ks.m[key] = rec
		if lg != nil {
			ents = append(ents, journal.Entry{Op: journal.OpPlace, Name: key, Rec: recToJournal(rec)})
		}
		done = append(done, int32(i))
		recs = append(recs, rec)
		out[i] = BatchResult{Server: t.Names[rec.slots[0]], N: int(rec.n)}
	}
	if lg != nil && len(ents) > 0 {
		if err := lg.AppendBatch(ents); err != nil {
			jerr := fmt.Errorf("%s: journal: %w", r.name, err)
			for k, i := range done {
				ks := r.keyShardFor(h0s[i])
				delete(ks.m, keys[i])
				recs[k].addLoads(t, h0s[i], -1)
				out[i] = BatchResult{Err: jerr}
			}
			done = done[:0]
		}
	}
	r.unlockShards(mask)
	if len(done) > 0 {
		r.nkeys.Add(int64(len(done)))
	}
	if m := r.met.Load(); m != nil {
		if len(done) > 0 {
			m.Places.Add(h0s[0], int64(len(done)))
		}
		if forwards > 0 {
			m.Forwards.Add(h0s[0], forwards)
		}
		if rejects > 0 {
			m.Rejects.Add(h0s[0], rejects)
		}
	}
	sc.h0s, sc.ents, sc.done, sc.recs = h0s, ents, done, recs
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

// LocateBatch looks up a block of placed keys with one snapshot load
// and one read-lock hold per involved key shard. out[i] receives key
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
	sc.h0s = growU64(sc.h0s, len(keys))
	h0s := sc.h0s
	for i, key := range keys {
		h0s[i] = Hash('k', 0, key)
	}
	ord := sc.groupByShard(h0s)
	t := r.snap.Load()
	var served int64
	for a := 0; a < len(ord); {
		shard := h0s[ord[a]] & (keyShardCount - 1)
		b := a
		for b < len(ord) && h0s[ord[b]]&(keyShardCount-1) == shard {
			b++
		}
		ks := &r.keys[shard]
		ks.mu.RLock()
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

// RemoveBatch deletes a block of placed keys with one lock round over
// the involved key shards and one write-ahead group commit. out[i]
// reports key i's outcome (Server is the removed primary); unplaced
// keys get a not-placed error without failing the rest. A journal
// append failure rolls the whole batch back.
func (r *Router) RemoveBatch(keys []string, out []BatchResult) {
	if len(out) != len(keys) {
		panic(fmt.Sprintf("%s: RemoveBatch with %d results for %d keys", r.name, len(out), len(keys)))
	}
	if len(keys) == 0 {
		return
	}
	sc := r.getBatchScratch()
	defer r.putBatchScratch(sc)
	sc.h0s = growU64(sc.h0s, len(keys))
	h0s := sc.h0s
	for i, key := range keys {
		h0s[i] = Hash('k', 0, key)
	}
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
			ents = append(ents, journal.Entry{Op: journal.OpRemoveKey, Name: key})
		}
		delete(ks.m, key)
		done = append(done, int32(i))
		recs = append(recs, rec)
		out[i] = BatchResult{Server: t.Names[rec.slots[0]], N: int(rec.n)}
	}
	if lg != nil && len(ents) > 0 {
		if err := lg.AppendBatch(ents); err != nil {
			jerr := fmt.Errorf("%s: journal: %w", r.name, err)
			for k, i := range done {
				ks := r.keyShardFor(h0s[i])
				ks.m[keys[i]] = recs[k]
				out[i] = BatchResult{Err: jerr}
			}
			done = done[:0]
		}
	}
	// Load counters come off only once the removals are journaled (the
	// scalar Remove's journal-then-uncharge order, batch-wide).
	for k, i := range done {
		recs[k].addLoads(t, h0s[i], -1)
	}
	r.unlockShards(mask)
	if len(done) > 0 {
		r.nkeys.Add(-int64(len(done)))
	}
	if m := r.met.Load(); m != nil && len(done) > 0 {
		m.Removes.Add(h0s[0], int64(len(done)))
	}
	sc.h0s, sc.ents, sc.done, sc.recs = h0s, ents, done, recs
}
