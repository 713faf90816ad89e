package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"geobalance/internal/journal"
	"geobalance/internal/metrics"
	"geobalance/internal/router"
)

// bench is one run: its inputs, its fleets and clients, and what the
// run measured.
type bench struct {
	sp     spec
	in     *inputs
	traced bool
	res    *result
	live   []string // keys placed at every pass boundary
	work   string   // scratch directory, removed when the run ends
	base   time.Time

	f       *fleet // the serving fleet
	snap    *fleet // torus: snapshot source and recovery reference
	clients []*client
	pr      *probes
	rmet    *router.Metrics

	passes, tracedPasses       int
	keysPerPass, writesPerPass int64

	memMB         float64
	setups, recs  []float64 // set-up and recovery times (s)
	replayNs      []float64 // recovery time per replayed entry (ns)
	ents          int       // entries the last recovery replayed
	rspans        *spanRec  // recovery spans
	tput, ttput   []float64 // plain and traced pass throughput
	reads, writes latencies
	mallocs, gcs  uint64 // over the plain passes
	walGrow       int64  // serving WAL bytes the plain passes appended
	probeBytes    int64  // scratch WAL bytes the traced passes appended
	syncFsyncs    int64  // fsyncs of the durable journal probe
	agg           spanAgg
	dump          [][]span // span buffers written out when the run ends
}

// runWorkload sets up, runs and checks one workload. The result is
// partially filled on error.
func runWorkload(sp spec, seed uint64, seconds int, traced bool) (*result, error) {
	b := &bench{sp: sp, traced: traced, res: &result{}}
	var err error
	if b.in, err = generate(sp, seed); err != nil {
		return b.res, err
	}
	b.live = liveKeys(sp, b.in)
	b.work = filepath.Join(workRoot, "run", fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return b.res, err
	}
	defer os.RemoveAll(b.work)
	b.passes = max(3, seconds*sp.passesPerSec)
	if traced {
		b.tracedPasses = max(3, b.passes/4)
	}
	if err := b.prepare(); err != nil {
		return b.res, err
	}
	defer b.f.close()
	if b.pr != nil {
		defer b.pr.log.Close()
	}
	if err := b.runPasses(); err != nil {
		return b.res, err
	}
	balance, err := b.checkLive()
	if err != nil {
		return b.res, err
	}
	if traced {
		if err := b.probeAfter(); err != nil {
			return b.res, err
		}
	}
	if traced {
		b.res.metrics, err = b.perLayer(seed)
	} else {
		b.res.metrics = b.endToEnd(balance)
	}
	return b.res, err
}

func (b *bench) jdir() string { return filepath.Join(b.work, "journal") }
func (b *bench) sdir() string { return filepath.Join(b.work, "snapshot") }

// prepare sets up the serving fleet (the first timed set-up; mem_mb is
// the heap it left live), the torus workloads' snapshot fleet, the
// clients and, traced, the probes.
func (b *bench) prepare() error {
	sp, in := b.sp, b.in
	before := liveHeap()
	var err error
	if b.f, err = b.setup(b.jdir()); err != nil {
		return err
	}
	b.memMB = float64(liveHeap()-before) / (1 << 20)

	// The torus workloads have no journal: they recover a snapshot of
	// a second, identically set-up fleet, which is also the reference
	// the recovered router must match.
	b.base = time.Now()
	b.rspans = newSpanRec(b.base, recoverReps)
	if !sp.journaled {
		if b.snap, err = b.setup(""); err != nil {
			return err
		}
		lg, err := b.snap.t.StartJournal(b.sdir(), journal.Options{})
		if err != nil {
			return err
		}
		if err := lg.Close(); err != nil {
			return err
		}
	}

	b.clients = make([]*client, numClients)
	for i := range b.clients {
		b.clients[i] = newClient(i, sp, in, b.f, b.base)
		b.keysPerPass += in.clients[i].keysPerPass(sp.batch)
		b.writesPerPass += in.clients[i].writesPerPass(sp.batch)
	}
	if b.traced {
		if b.pr, err = newProbes(sp, in, b.f, filepath.Join(b.work, "probe-journal")); err != nil {
			return err
		}
		b.rmet = router.NewMetrics(metrics.NewRegistry())
		for _, c := range b.clients {
			c.armTrace(b.pr)
		}
	}
	return nil
}

// setup times one fleet set-up.
func (b *bench) setup(jdir string) (*fleet, error) {
	if err := os.RemoveAll(jdir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	f, err := buildFleet(b.sp, b.in, jdir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return f, nil
}

// recoverOnce times one recovery and checks the recovered router
// against its reference: the serving fleet when recovering the run's
// own journal, the snapshot fleet otherwise.
func (b *bench) recoverOnce() error {
	dir, ref := b.sdir(), b.snap
	if b.sp.journaled {
		if err := b.f.t.Journal().Sync(); err != nil {
			return err
		}
		dir, ref = b.jdir(), b.f
	}
	runtime.GC()
	// Recovery op ids count down from the top of the id space, clear
	// of the clients' op ids.
	s := b.rspans.begin(spRecover, ^uint32(len(b.recs)), -1)
	rc, err := recoverFrom(b.sp, dir)
	if err != nil {
		return fmt.Errorf("%s: %w", errCheckFailed, err)
	}
	b.rspans.spans[s].end = b.rspans.spans[s].start + int64(rc.dur)
	b.rspans.spans[s].keys = uint32(rc.entries)
	b.recs = append(b.recs, rc.dur.Seconds())
	b.replayNs = append(b.replayNs, float64(rc.dur.Nanoseconds())/float64(rc.entries))
	b.ents = rc.entries
	err = checkRecovered(ref.t, rc.t, b.live)
	if cerr := rc.t.Journal().Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", errCheckFailed, err)
	}
	return nil
}

// due returns how many of k events spread evenly over n passes fall
// after pass p.
func due(k, n, p int) int { return (p+1)*k/n - p*k/n }

// runPasses runs a warm-up pass (caches, pools, the journal file),
// then the measured passes. A traced run follows every fourth plain
// pass with a traced pass over the same calls. The spare set-ups and
// the recoveries run between passes, spread over the run so slow
// drifts in host speed average out of their medians too.
func (b *bench) runPasses() error {
	spareSetups := setupReps - len(b.setups)
	runtime.GC()
	runAll(b.clients, (*client).run)
	b.res.attempted += b.keysPerPass
	for p := 0; p < b.passes; p++ {
		if err := b.plainPass(); err != nil {
			return err
		}
		if due(b.tracedPasses, b.passes, p) > 0 {
			if err := b.tracedPass(p); err != nil {
				return err
			}
		}
		extra := false
		for k := due(spareSetups, b.passes, p); k > 0; k-- {
			f, err := b.setup(filepath.Join(b.work, "spare-journal"))
			if err != nil {
				return err
			}
			if err := f.close(); err != nil {
				return err
			}
			extra = true
		}
		for k := due(recoverReps, b.passes, p); k > 0; k-- {
			if err := b.recoverOnce(); err != nil {
				return err
			}
			extra = true
		}
		if extra {
			runtime.GC() // collect the spare routers before the next pass
		}
		// The ring-journal WAL is compacted every few passes, which
		// bounds its size, and before each pass a recovery follows, so
		// every recovery replays a snapshot plus one pass of records.
		if b.sp.journaled && p < b.passes-1 && (p%compactEvery == compactEvery-1 || due(recoverReps, b.passes, p+1) > 0) {
			if err := b.f.t.CompactJournal(); err != nil {
				return err
			}
		}
	}
	for _, c := range b.clients {
		b.res.failed += c.failed
		if c.err != nil {
			return fmt.Errorf("%s: %w", errCheckFailed, c.err)
		}
	}
	return nil
}

func (b *bench) plainPass() error {
	w0, err := walBytes(b.f.t.Journal())
	if err != nil {
		return err
	}
	m0 := memStats()
	el := runAll(b.clients, (*client).run)
	m1 := memStats()
	w1, err := walBytes(b.f.t.Journal())
	if err != nil {
		return err
	}
	b.mallocs += m1.Mallocs - m0.Mallocs
	b.gcs += uint64(m1.NumGC - m0.NumGC)
	b.walGrow += w1 - w0
	b.res.attempted += b.keysPerPass
	b.tput = append(b.tput, float64(b.keysPerPass)/el.Seconds())
	c0, c1 := b.clients[0], b.clients[1]
	b.reads.addPass(0.50, 0.99, c0.readLat, c1.readLat)
	b.writes.addPass(0.50, 0.90, c0.writeLat, c1.writeLat)
	return nil
}

// tracedPass replays pass p's calls with spans and probes, router
// metrics attached.
func (b *bench) tracedPass(p int) error {
	b.f.t.SetMetrics(b.rmet)
	el := runAll(b.clients, func(c *client) { c.runTraced(p) })
	b.f.t.SetMetrics(nil)
	b.res.attempted += b.keysPerPass
	b.ttput = append(b.ttput, float64(b.keysPerPass)/el.Seconds())
	c0 := b.clients[0]
	b.agg.addPass(c0.tr.spans, b.clients[1].tr.spans)
	if len(b.ttput) == b.tracedPasses {
		b.dump = append(b.dump, slices.Clone(c0.tr.spans[:min(len(c0.tr.spans), maxDumpSpans)]))
	}
	n, err := walBytes(b.pr.log)
	if err != nil {
		return err
	}
	b.probeBytes += n - b.pr.walBase
	return b.pr.log.Compact(nil)
}

// checkLive checks the serving router after the passes and returns its
// balance.
func (b *bench) checkLive() (float64, error) {
	t := b.f.t
	if err := t.CheckInvariants(); err != nil {
		return 0, fmt.Errorf("%s: after the run: %w", errCheckFailed, err)
	}
	if n := t.NumKeys(); n != len(b.live) {
		return 0, fmt.Errorf("%s: router holds %d keys, want %d", errCheckFailed, n, len(b.live))
	}
	return maxOverMean(t), nil
}

// probeAfter runs the traced run's after-pass probes: the cross-form
// calls, then the durable journal probe from both clients at once.
func (b *bench) probeAfter() error {
	// Op ids continue after the passes' ids.
	id := uint32(b.passes * numClients * b.sp.calls)
	c := b.clients[0]
	n := c.crossForm(crossFormKeys, id)
	id += uint32(n)
	b.res.attempted += int64(n)
	if c.err != nil {
		b.res.failed += c.failed
		return fmt.Errorf("%s: %w", errCheckFailed, c.err)
	}
	b.agg.addPass(c.tr.spans)
	b.dump = append(b.dump, slices.Clone(c.tr.spans))

	met := journal.NewMetrics(metrics.NewRegistry())
	lg, err := journal.Create(filepath.Join(b.work, "sync-journal"), journal.Header{Kind: "probe"}, nil,
		journal.Options{Metrics: met})
	if err != nil {
		return err
	}
	runAll(b.clients, func(c *client) { c.syncAppend(lg, syncAppends, id) })
	if err := lg.Close(); err != nil {
		return err
	}
	b.syncFsyncs = met.Fsyncs.Value()
	for _, c := range b.clients {
		b.res.attempted += int64(len(c.tr.spans))
		b.res.failed += c.failed
		if c.err != nil {
			return fmt.Errorf("%s: %w", errCheckFailed, c.err)
		}
	}
	b.agg.addPass(c.tr.spans, b.clients[1].tr.spans)
	b.dump = append(b.dump, c.tr.spans)
	return nil
}

func (b *bench) endToEnd(balance float64) []metric {
	res := b.res
	ok := res.attempted - res.failed
	samples := func(l *latencies) string { return fmt.Sprintf("median over passes; %d samples", l.n) }
	return []metric{
		{"throughput_ops_s", "1/s", median(b.tput), fmt.Sprintf("median of %d passes x %d keys", b.passes, b.keysPerPass)},
		{"read_p50_ns", "ns", median(b.reads.lo), samples(&b.reads)},
		{"read_p99_ns", "ns", median(b.reads.tail), samples(&b.reads)},
		{"write_p50_ns", "ns", median(b.writes.lo), samples(&b.writes)},
		{"write_p90_ns", "ns", median(b.writes.tail), samples(&b.writes)},
		{"ok_frac", "frac", float64(ok) / float64(res.attempted), fmt.Sprintf("%d of %d ops", ok, res.attempted)},
		{"max_over_mean", "ratio", balance, fmt.Sprintf("%d servers, %d keys", numServers, len(b.live))},
		{"setup_s", "s", median(b.setups), fmt.Sprintf("median of %d set-ups", len(b.setups))},
		{"mem_mb", "MB", b.memMB, "live heap of the serving fleet"},
		{"recover_s", "s", median(b.recs), fmt.Sprintf("median of %d recoveries, %d entries", len(b.recs), b.ents)},
	}
}

// perLayer derives the per-layer metrics from the spans, probes and
// counters, and writes the spans out.
func (b *bench) perLayer(seed uint64) ([]metric, error) {
	agg := &b.agg
	dump := append(b.dump, b.rspans.spans)
	path := filepath.Join(workRoot, "trace", fmt.Sprintf("%s-seed%d.tsv", b.sp.name, seed))
	if err := dumpSpans(path, dump...); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)

	rc := routerCounters(b.rmet) // attached during the traced passes only
	served := rc[0] + rc[1] + rc[2]
	var batchCalls, batchKeys int64
	for _, n := range []spanName{spLocateBatch, spPlaceBatch, spRemoveBatch} {
		batchCalls += agg.layers[n].calls
		batchKeys += agg.layers[n].keys
	}
	bytesPerWrite := float64(b.walGrow) / float64(int64(b.passes)*b.writesPerPass)
	if !b.sp.journaled {
		bytesPerWrite = float64(b.probeBytes) / float64(agg.layers[spAppend].keys)
	}
	plain, withTrace := median(b.tput), median(b.ttput)
	calls := func(n spanName) string { return fmt.Sprintf("%d calls", agg.layers[n].calls) }
	return []metric{
		{"router.hash_ns", "ns", agg.perKey(spHash), "probe, per key"},
		{"router.locate_ns", "ns", agg.perKey(spLocate), calls(spLocate)},
		{"router.place_ns", "ns", agg.perKey(spPlace), calls(spPlace)},
		{"router.remove_ns", "ns", agg.perKey(spRemove), calls(spRemove)},
		{"router.place_batch_ns_per_key", "ns", agg.perKey(spPlaceBatch), calls(spPlaceBatch)},
		{"router.remove_batch_ns_per_key", "ns", agg.perKey(spRemoveBatch), calls(spRemoveBatch)},
		{"router.locate_batch_ns_per_key", "ns", agg.perKey(spLocateBatch), calls(spLocateBatch)},
		{"router.keys_per_call", "count", float64(batchKeys) / float64(batchCalls), "batch calls"},
		{"router.rejects", "count", float64(rc[3]), "router.Metrics, traced passes"},
		{"router.errors", "count", float64(int64(b.tracedPasses)*b.keysPerPass - served), "traced keys router.Metrics did not count as served"},
		{"torus.nearest_ns", "ns", agg.perKey(spNearest), "probe, per point"},
		{"torus.nearest_batch_ns_per_key", "ns", agg.perKey(spNearestBatch), "probe, per key"},
		{"journal.append_ns", "ns", agg.perKey(spAppend), "buffered probe, per record"},
		{"journal.sync_append_ns", "ns", agg.perKey(spSyncAppend), "group-commit fsync probe, per record"},
		{"journal.fsyncs_per_write", "count", float64(b.syncFsyncs) / float64(agg.layers[spSyncAppend].keys), "group-commit fsync probe"},
		{"journal.bytes_per_write", "B", bytesPerWrite, ""},
		{"journal.replay_ns_per_record", "ns", median(b.replayNs), fmt.Sprintf("median of %d recoveries", len(b.replayNs))},
		{"go.allocs_per_op", "count", float64(b.mallocs) / float64(int64(b.passes)*b.keysPerPass), "plain passes"},
		{"go.gc_cycles", "count", float64(b.gcs), "plain passes"},
		{"trace.overhead_pct", "%", 100 * (plain - withTrace) / plain, fmt.Sprintf("plain %.0f vs traced %.0f ops/s", plain, withTrace)},
		{"trace.clock_ns", "ns", clockNs(b.base), "cost of an empty span"},
	}, nil
}

// routerCounters reads places, locates, removes and rejects.
func routerCounters(m *router.Metrics) [4]int64 {
	return [4]int64{m.Places.Value(), m.Locates.Value(), m.Removes.Value(), m.Rejects.Value()}
}

// walBytes flushes lg and returns its WAL size (zero without a log).
func walBytes(lg *journal.Log) (int64, error) {
	if lg == nil {
		return 0, nil
	}
	err := lg.Sync()
	return lg.WALSize(), err
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	ms := memStats()
	return int64(ms.HeapAlloc)
}
