package main

import (
	"fmt"
	"sync"
	"time"

	"geobalance/internal/geom"
	"geobalance/internal/journal"
	"geobalance/internal/rng"
	"geobalance/internal/router"
	"geobalance/internal/torus"
)

// client is one closed-loop caller: it issues its stream's calls one
// after another, each as soon as the previous one returned, and checks
// every reply.
type client struct {
	id   int
	sp   spec
	in   *inputs
	s    *stream
	t    target
	want []string
	base time.Time
	out  []router.BatchResult // the current call's replies

	readLat, writeLat []uint32 // sampled call latencies (ns) of the current pass
	failed            int64
	err               error // first failed check

	// Traced mode only.
	tr   *spanRec
	pr   *probes
	pts  []float64
	cand []int32
	tsc  torus.BatchScratch
	ents []journal.Entry
	sink uint64
}

// probes are the per-layer instruments the traced run calls on the
// run's own inputs, beside the router.
type probes struct {
	space   *torus.Space     // the fleet's sites (Geo.Location; seeded coordinates on the ring)
	log     *journal.Log     // buffered scratch log, compacted after each traced pass
	walBase int64            // its WAL size when empty
	slot    map[string]int32 // server name -> slot, for probe records
}

// newProbes builds the traced run's instruments: the probe torus over
// the fleet's live sites and a buffered scratch journal, the flush
// policy of the ring-journal workload's own journal.
func newProbes(sp spec, in *inputs, f *fleet, dir string) (*probes, error) {
	sites := in.coords
	if f.geo != nil {
		sites = make([]geom.Vec, len(in.servers))
		for i, name := range in.servers {
			v, ok := f.geo.Location(name)
			if !ok {
				return nil, fmt.Errorf("server %s has no location", name)
			}
			sites[i] = v
		}
	}
	space, err := torus.FromSites(sites, sp.dim)
	if err != nil {
		return nil, err
	}
	lg, err := journal.Create(dir, journal.Header{Kind: "probe", Dim: sp.dim, D: sp.d}, nil, journal.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	slot := make(map[string]int32, len(in.servers))
	for i, name := range in.servers {
		slot[name] = int32(i)
	}
	return &probes{space: space, log: lg, walBase: lg.WALSize(), slot: slot}, nil
}

func newClient(id int, sp spec, in *inputs, f *fleet, base time.Time) *client {
	s := &in.clients[id]
	reads, writes := 0, 0
	for i, o := range s.ops {
		if i%sp.stride != 0 {
			continue
		}
		if o.kind == opRead {
			reads++
		} else {
			writes++
		}
	}
	return &client{
		id: id, sp: sp, in: in, s: s, t: f.t, want: f.want, base: base,
		out:      make([]router.BatchResult, sp.batch),
		readLat:  make([]uint32, 0, reads),
		writeLat: make([]uint32, 0, writes),
	}
}

// keysPerPass counts the keys one pass of the stream touches: every
// key of a batch call is one op.
func (s *stream) keysPerPass(batch int) int64 { return int64(len(s.ops) * batch) }

// writesPerPass counts the keys one pass places or removes.
func (s *stream) writesPerPass(batch int) int64 {
	var n int64
	for _, o := range s.ops {
		if o.kind != opRead {
			n += int64(batch)
		}
	}
	return n
}

func (c *client) fail(err error) {
	c.failed++
	if c.err == nil {
		c.err = fmt.Errorf("client %d: %w", c.id, err)
	}
}

// keysOf returns the keys call o carries.
func (c *client) keysOf(o op) []string {
	b := c.sp.batch
	switch {
	case o.kind != opRead:
		return c.s.fresh[int(o.ref)*b : int(o.ref+1)*b]
	case b == 1:
		return c.in.preload[o.ref : o.ref+1]
	}
	return c.s.readKeys[int(o.ref)*b : int(o.ref+1)*b]
}

// exec issues call o and checks its reply: a read returns the primary
// the key's acked Place returned, a write succeeds, and on batch
// workloads every key carries the configured replica count. The
// replies are left in c.out.
func (c *client) exec(o op) {
	keys := c.keysOf(o)
	if len(keys) == 1 {
		c.execScalar(o, keys[0])
		return
	}
	switch o.kind {
	case opRead:
		c.t.LocateBatch(keys, c.out)
	case opPlace:
		c.t.PlaceBatch(keys, c.out)
	case opRemove:
		c.t.RemoveBatch(keys, c.out)
	}
	lo := int(o.ref) * len(keys)
	for i := range c.out {
		res := &c.out[i]
		if res.Err != nil {
			c.fail(res.Err)
			continue
		}
		wantN, want := c.s.freshN[lo+i], ""
		if o.kind == opRead {
			ref := c.s.readRefs[lo+i]
			wantN, want = c.in.preN[ref], c.want[ref]
		}
		switch {
		case res.N != int(wantN):
			c.fail(fmt.Errorf("key %q holds %d replicas, want %d", keys[i], res.N, wantN))
		case o.kind == opRead && res.Server != want:
			c.fail(fmt.Errorf("key %q read on %s, placed on %s", keys[i], res.Server, want))
		}
	}
}

func (c *client) execScalar(o op, key string) {
	var (
		srv string
		err error
	)
	switch o.kind {
	case opRead:
		srv, err = c.t.Locate(key)
		if err == nil && srv != c.want[o.ref] {
			err = fmt.Errorf("key %q read on %s, placed on %s", key, srv, c.want[o.ref])
		}
	case opPlace:
		srv, err = c.t.Place(key)
	case opRemove:
		err = c.t.Remove(key)
	}
	if err != nil {
		c.fail(err)
	}
	c.out[0].Server = srv
}

// run issues one pass untraced, sampling the latency of every
// stride-th call (stride is a power of two).
func (c *client) run() {
	c.readLat, c.writeLat = c.readLat[:0], c.writeLat[:0]
	mask := c.sp.stride - 1
	for i, o := range c.s.ops {
		if i&mask != 0 {
			c.exec(o)
			continue
		}
		t0 := time.Since(c.base)
		c.exec(o)
		lat := uint32(time.Since(c.base) - t0)
		if o.kind == opRead {
			c.readLat = append(c.readLat, lat)
		} else {
			c.writeLat = append(c.writeLat, lat)
		}
	}
}

// callSpan names the router call of each op kind, scalar and batch.
var callSpan = [2][3]spanName{
	{spLocate, spPlace, spRemove},
	{spLocateBatch, spPlaceBatch, spRemoveBatch},
}

// runTraced issues one pass with spans around every layer call plus
// the probes: a router.Hash of every key, the torus kernels on every
// placed key's d candidate points, and a journal append of every write
// to the scratch log.
func (c *client) runTraced(pass int) {
	tr := c.tr
	tr.spans = tr.spans[:0]
	batch := 0
	if c.sp.batch > 1 {
		batch = 1
	}
	for i, o := range c.s.ops {
		id := uint32((pass*numClients+c.id)*len(c.s.ops) + i)
		keys := c.keysOf(o)
		root := tr.begin(spOp, id, -1)
		h := tr.begin(spHash, id, root)
		for _, k := range keys {
			c.sink += router.Hash('k', 0, k)
		}
		tr.end(h, len(keys))
		if o.kind == opPlace {
			c.probeTorus(keys, id, root)
		}
		s := tr.begin(callSpan[batch][o.kind], id, root)
		c.exec(o)
		tr.end(s, len(keys))
		if o.kind != opRead {
			c.probeJournal(o.kind, keys, id, root)
		}
		tr.end(root, len(keys))
	}
}

// probeTorus decodes each key's d candidate points exactly as
// router.Geo resolves them and times the scalar kernel (NearestShared
// per point) and the batch kernel (one NearestBatchInto over all of
// them) on the probe space. The two must agree point for point.
func (c *client) probeTorus(keys []string, id uint32, root int32) {
	d, dim := c.sp.d, c.sp.dim
	n := len(keys) * d
	pts, cand := c.pts[:n*dim], c.cand[:n]
	for i, k := range keys {
		for j := 0; j < d; j++ {
			st := router.Hash('k', j, k)
			for x := 0; x < dim; x++ {
				pts[(i*d+j)*dim+x] = router.UnitFloat(rng.SplitMix64(&st))
			}
		}
	}
	tr := c.tr
	s := tr.begin(spNearestBatch, id, root)
	c.pr.space.NearestBatchInto(&c.tsc, pts, cand)
	tr.end(s, len(keys))
	s = tr.begin(spNearest, id, root)
	for q := 0; q < n; q++ {
		best, _ := c.pr.space.NearestShared(geom.Vec(pts[q*dim : (q+1)*dim]))
		if int32(best) != cand[q] {
			c.fail(fmt.Errorf("torus kernels disagree on a candidate of %q: scalar %d, batch %d", keys[q/d], best, cand[q]))
		}
	}
	tr.end(s, n)
}

// probeJournal appends the call's records — what the router journals
// for it, with every replica on the primary's slot — to the scratch
// log.
func (c *client) probeJournal(kind opKind, keys []string, id uint32, root int32) {
	ents := c.ents[:0]
	for i, k := range keys {
		e := journal.Entry{Op: journal.OpRemoveKey, Name: k}
		if kind == opPlace {
			e.Op = journal.OpPlace
			e.Rec.N = c.sp.r
			slot := c.pr.slot[c.out[i].Server]
			for x := 0; x < c.sp.r; x++ {
				e.Rec.Slots[x] = slot
			}
		}
		ents = append(ents, e)
	}
	s := c.tr.begin(spAppend, id, root)
	var err error
	if len(ents) == 1 {
		err = c.pr.log.Append(ents[0])
	} else {
		err = c.pr.log.AppendBatch(ents)
	}
	c.tr.end(s, len(ents))
	if err != nil {
		c.fail(fmt.Errorf("probe journal: %w", err))
	}
	c.ents = ents
}

// armTrace gives the client its span buffer and probe scratch.
func (c *client) armTrace(pr *probes) {
	const spansPerCall = 6
	c.pr = pr
	c.tr = newSpanRec(c.base, len(c.s.ops)*spansPerCall)
	n := c.sp.batch * c.sp.d
	c.pts = make([]float64, n*c.sp.dim)
	c.cand = make([]int32, n)
	c.ents = make([]journal.Entry, 0, c.sp.batch)
}

// runAll runs fn on every client concurrently and returns the wall
// time until the last one finished.
func runAll(clients []*client, fn func(c *client)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			<-start
			fn(c)
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// syncAppend appends a record for each of the client's first n fresh
// keys to lg, one Append each. Run from every client at once on a log
// in group-commit fsync mode, it measures the journal's durable append
// path, which no workload serves with: fsync latency on a shared disk
// swings too far for an end-to-end bound.
func (c *client) syncAppend(lg *journal.Log, n int, id0 uint32) {
	tr := c.tr
	tr.spans = tr.spans[:0]
	for i, k := range c.s.fresh[:min(n, len(c.s.fresh))] {
		s := tr.begin(spSyncAppend, id0+uint32(c.id*n+i), -1)
		err := lg.Append(journal.Entry{Op: journal.OpPlace, Name: k, Rec: journal.Rec{N: 1}})
		tr.end(s, 1)
		if err != nil {
			c.fail(fmt.Errorf("durable probe journal: %w", err))
		}
	}
}

// crossForm times, after the passes, the call form the workload does
// not use, on the run's own keys: batch-of-one calls on scalar
// workloads and scalar calls on batch workloads. It reads up to n of
// the stream's read keys, then places and removes up to n fresh keys
// that are not placed, so the router ends as it started. Op ids start
// at id0. It returns the number of calls issued.
func (c *client) crossForm(n int, id0 uint32) int {
	tr := c.tr
	tr.spans = tr.spans[:0]
	scalar := c.sp.batch > 1
	var refs []int32
	if scalar {
		refs = c.s.readRefs[:min(n, len(c.s.readRefs))]
	} else {
		for _, o := range c.s.ops {
			if o.kind == opRead && len(refs) < n {
				refs = append(refs, o.ref)
			}
		}
	}
	one := c.out[:1]
	id := id0
	call := func(name spanName, keys []string, fn func()) {
		root := tr.begin(spOp, id, -1)
		s := tr.begin(name, id, root)
		fn()
		tr.end(s, len(keys))
		tr.end(root, len(keys))
		id++
	}
	for _, ref := range refs {
		keys := c.in.preload[ref : ref+1]
		var (
			srv string
			err error
		)
		if scalar {
			call(spLocate, keys, func() { srv, err = c.t.Locate(keys[0]) })
		} else {
			call(spLocateBatch, keys, func() { c.t.LocateBatch(keys, one) })
			srv, err = one[0].Server, one[0].Err
		}
		if err == nil && srv != c.want[ref] {
			err = fmt.Errorf("key %q read on %s, placed on %s", keys[0], srv, c.want[ref])
		}
		if err != nil {
			c.fail(err)
		}
	}
	fresh := c.s.fresh[:min(n, c.s.primed*c.sp.batch)]
	for i := range fresh {
		wantN := int(c.s.freshN[i])
		keys := fresh[i : i+1]
		if scalar {
			var err error
			call(spPlace, keys, func() { _, err = c.t.Place(keys[0]) })
			if err != nil {
				c.fail(err)
			}
			call(spRemove, keys, func() { err = c.t.Remove(keys[0]) })
			if err != nil {
				c.fail(err)
			}
			continue
		}
		for _, w := range []struct {
			name spanName
			fn   func([]string, []router.BatchResult)
		}{{spPlaceBatch, c.t.PlaceBatch}, {spRemoveBatch, c.t.RemoveBatch}} {
			call(w.name, keys, func() { w.fn(keys, one) })
			if one[0].Err != nil {
				c.fail(one[0].Err)
			} else if one[0].N != wantN {
				c.fail(fmt.Errorf("key %q holds %d replicas, want %d", keys[0], one[0].N, wantN))
			}
		}
	}
	return int(id - id0)
}
