// Command benchjson runs the repository's hot-path micro-benchmarks and
// prints the results as JSON, one stable record per named case. The
// committed BENCH_baseline.json snapshot at the repository root is
// produced by
//
//	go run ./cmd/benchjson -out BENCH_baseline.json
//
// so future changes can diff their perf against the recorded baseline
// (machine-dependent — regenerate the baseline when the hardware
// changes; compare like with like).
//
// The suite is one table of cases (see cases). The runner goes through
// the table reps times at a fixed per-run benchtime, and a case's record
// is its fastest run: single runs on a shared or virtualized host swing
// by tens of percent, and the minimum is the run the noise disturbed
// least.
//
// # Regression gate
//
// With -compare, benchjson re-runs the suite and exits nonzero when any
// record regresses past the tolerance (25%) against the given baseline:
//
//	go run ./cmd/benchjson -compare BENCH_baseline.json
//
// A record regresses when its ns/ball grows, its allocs/op grow, or its
// ops/sec shrinks by more than the tolerance fraction (an alloc count
// whose baseline is 0 regresses on ANY allocation — the zero-alloc hot
// paths are load-bearing). Records present in only one side are
// reported but do not fail the gate, so adding benchmarks does not
// break CI. -out writes the fresh JSON to a file for archiving (CI
// uploads it as an artifact).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"geobalance/internal/core"
	"geobalance/internal/geom"
	"geobalance/internal/hashring"
	"geobalance/internal/journal"
	"geobalance/internal/loadgen"
	"geobalance/internal/metrics"
	"geobalance/internal/ring"
	"geobalance/internal/rng"
	"geobalance/internal/router"
	"geobalance/internal/sim"
	"geobalance/internal/torus"
)

const (
	// reps is N of the min-of-N: every record is the fastest of reps runs.
	reps = 10
	// benchtime is the testing.Benchmark budget of one run.
	benchtime = "100ms"
	// tolerance is the fractional regression -compare allows per metric.
	tolerance = 0.25

	// n is the ball count of the simulation cases.
	n = 1 << 16
)

type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// PerBall divides ns_per_op by the number of balls an op places
	// (1 for single-key router ops, zero when the op places nothing).
	NsPerBall float64 `json:"ns_per_ball,omitempty"`
	// Procs records GOMAXPROCS for parallel benchmarks.
	Procs int `json:"procs,omitempty"`
	// OpsPerSec is reported by throughput benchmarks (parallel router
	// ops, loadgen runs).
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	// P99Ns is the sampled p99 latency of loadgen lookup traffic.
	P99Ns int64 `json:"p99_ns,omitempty"`
}

// A bench is one row of the suite: a testing.Benchmark body, or a
// loadgen configuration whose run is one op.
type bench struct {
	name  string
	balls int // balls or keys one op handles: ns_per_ball = ns_per_op / balls
	procs int // GOMAXPROCS for the run, recorded with ops/sec; 0 keeps the host's
	fn    func(b *testing.B)
	load  *loadgen.Config
}

// measure runs the cases round-robin, reps times over, and keeps each
// case's fastest run. Interleaving spreads a case's runs over the whole
// suite, so a burst of host noise costs it one run, not all of them.
func measure(cs []bench) ([]result, error) {
	best := make([]result, len(cs))
	for i := 0; i < reps; i++ {
		for j, c := range cs {
			r, err := runOnce(c)
			if err != nil {
				return nil, err
			}
			if i == 0 || r.NsPerOp < best[j].NsPerOp {
				best[j] = r
			}
		}
	}
	return best, nil
}

func runOnce(c bench) (result, error) {
	if c.load != nil {
		return loadgenRecord(c.name, *c.load)
	}
	if c.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
	}
	r := testing.Benchmark(c.fn)
	if r.N == 0 {
		return result{}, fmt.Errorf("benchjson: %s failed", c.name)
	}
	out := result{
		Name:        c.name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Procs:       c.procs,
	}
	out.NsPerBall = out.NsPerOp / float64(c.balls)
	if c.procs > 0 && r.T > 0 {
		out.OpsPerSec = float64(r.N) / r.T.Seconds()
	}
	return out, nil
}

// loadgenRecord runs one loadgen configuration and reports its
// aggregate throughput and sampled lookup p99.
func loadgenRecord(name string, cfg loadgen.Config) (result, error) {
	res, err := loadgen.Run(cfg)
	if err != nil {
		return result{}, err
	}
	out := result{
		Name:      name,
		NsPerOp:   1e9 / res.Throughput,
		NsPerBall: 1e9 / res.Throughput,
		Procs:     res.Procs,
		OpsPerSec: res.Throughput,
	}
	if res.Lookup.N() > 0 {
		out.P99Ns = res.Lookup.Quantile(0.99)
	}
	if res.Errors > 0 || res.LostKeys > 0 {
		err = fmt.Errorf("loadgen %s: %d op errors, %d keys lost after repair", name, res.Errors, res.LostKeys)
	}
	return out, err
}

// preload places key-0 … key-16383 and returns the keys.
func preload(place func(string) (string, error)) ([]string, error) {
	keys := make([]string, 1<<14)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if _, err := place(keys[i]); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// newBenchGeo builds a torus-backed geo router with servers at
// deterministic random coordinates and a preloaded key set.
func newBenchGeo(servers, dim, d int) (*router.Geo, []string, error) {
	geo, err := router.NewGeo(dim, d)
	if err != nil {
		return nil, nil, err
	}
	r := rng.New(17)
	at := make(geom.Vec, dim)
	for i := 0; i < servers; i++ {
		for j := range at {
			at[j] = r.Float64()
		}
		if err := geo.AddServer(fmt.Sprintf("dc-%d", i), at); err != nil {
			return nil, nil, err
		}
	}
	keys, err := preload(geo.Place)
	return geo, keys, err
}

func torusSpace(n, dim int) func(*rng.Rand) (core.Space, error) {
	return func(r *rng.Rand) (core.Space, error) { return torus.NewRandom(n, dim, r) }
}

// placeBatch builds a core allocator case: one op resets the allocator
// and places n balls with d=2 into the space space builds. procs > 0
// runs PlaceBatchParallel over that many workers instead (its worker
// handoff allocates per call at procs > 1). The sequential path's zero
// allocs are part of the gate, so a warm-up call sizes the pipeline
// scratch before the clock starts.
func placeBatch(name string, n int, seed uint64, procs int, space func(*rng.Rand) (core.Space, error)) bench {
	return bench{name: name, balls: n, procs: procs, fn: func(b *testing.B) {
		r := rng.New(seed)
		sp, err := space(r)
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.New(sp, core.Config{D: 2})
		if err != nil {
			b.Fatal(err)
		}
		place := a.PlaceBatch
		if procs > 0 {
			place = func(m int, r *rng.Rand) { a.PlaceBatchParallel(m, 0, r) }
		}
		place(n, r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Reset()
			place(n, r)
		}
	}}
}

// nearest builds the scalar torus nearest-site case at dim.
func nearest(dim int) bench {
	return bench{name: fmt.Sprintf("torus_nearest/n=65536/dim=%d", dim), balls: 1, fn: func(b *testing.B) {
		r := rng.New(5)
		sp, err := torus.NewRandom(n, dim, r)
		if err != nil {
			b.Fatal(err)
		}
		q := sp.Sample(r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.SampleInto(q, r)
			sp.Nearest(q)
		}
	}}
}

// locate builds a single-key read case cycling through keys.
func locate(name string, keys []string, read func(string) (string, error)) bench {
	return bench{name: name, balls: 1, fn: func(b *testing.B) {
		b.ReportAllocs()
		j := 0
		for i := 0; i < b.N; i++ {
			if _, err := read(keys[j]); err != nil {
				b.Fatal(err)
			}
			if j++; j == len(keys) {
				j = 0
			}
		}
	}}
}

// cycle builds a scalar write case over the first 4096 keys. A key must
// be removed before it can be re-placed, so one op is a REMOVE+PLACE
// cycle: compare these records with each other, not with a lone
// placement. On a replicated router Place writes the whole replica set.
func cycle(name string, rt *router.Router, keys []string) bench {
	return bench{name: name, balls: 1, fn: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key := keys[i&4095]
			if err := rt.Remove(key); err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Place(key); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// closeOffClock closes lg with the timer stopped, once a run ends.
func closeOffClock(b *testing.B, lg *journal.Log) {
	b.StopTimer()
	if err := lg.Close(); err != nil {
		b.Error(err)
	}
}

// batch builds a bulk case of bsz keys: one op is a LocateBatch, or
// with write set a RemoveBatch plus a PlaceBatch of the same keys (the
// bulk REMOVE+PLACE cycle). ns/ball is per key and compares with the
// scalar Locate and cycle records. A warm-up op sizes the pooled
// scratch before the clock starts.
func batch(label string, rt *router.Router, keys []string, bsz int, write bool) bench {
	name, mask := "router_locate_batch", len(keys)-1
	ops := []func([]string, []router.BatchResult){rt.LocateBatch}
	if write {
		name, mask = "router_place_batch", 4095
		ops = []func([]string, []router.BatchResult){rt.RemoveBatch, rt.PlaceBatch}
	}
	out := make([]router.BatchResult, bsz)
	return bench{name: fmt.Sprintf("%s/%s/batch=%d", name, label, bsz), balls: bsz, fn: func(b *testing.B) {
		for _, op := range ops {
			op(keys[:bsz], out)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ks := keys[(i*bsz)&mask:][:bsz]
			for _, op := range ops {
				op(ks, out)
				for j := range out {
					if out[j].Err != nil {
						b.Fatal(out[j].Err)
					}
				}
			}
		}
	}}
}

// parallel builds one b.RunParallel case per proc count: 1, and nprocs
// when the host has more.
func parallel(name string, nprocs int, fn func(b *testing.B)) []bench {
	rows := []bench{{name: name + "/procs=1", balls: 1, procs: 1, fn: fn}}
	if nprocs > 1 {
		rows = append(rows, bench{name: fmt.Sprintf("%s/procs=%d", name, nprocs), balls: 1, procs: nprocs, fn: fn})
	}
	return rows
}

func locateParallel(rt *router.Router, keys []string) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := rt.Locate(keys[i&(len(keys)-1)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

// geoParallel builds the parallel Locate and Place/Remove cases on geo.
// Each place goroutine cycles Place/Remove over its own key range so
// writes never collide. testing.Benchmark re-invokes the body with
// growing b.N against the SAME router, and a goroutine may end its run
// with a key still placed, so key ranges must be unique across
// invocations too: every place case shares ONE worker counter. A fresh
// counter per proc count would hand the procs=N case the keys the
// procs=1 case left placed, failing its first Place.
func geoParallel(rt *router.Router, keys []string, label string, nprocs int) []bench {
	var worker atomic.Int64
	place := func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			w := worker.Add(1)
			own := make([]string, 256)
			for i := range own {
				own[i] = fmt.Sprintf("pw%d-%d", w, i)
			}
			i := 0
			for pb.Next() {
				key := own[(i>>1)&255] // place at even i, remove the SAME key at odd i
				if i&1 == 0 {
					if _, err := rt.Place(key); err != nil {
						b.Fatal(err)
					}
				} else if err := rt.Remove(key); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
	return append(parallel("router_geo_locate_parallel/"+label, nprocs, locateParallel(rt, keys)),
		parallel("router_geo_place_parallel/"+label, nprocs, place)...)
}

// cases builds the suite. Cases share a router only when they leave
// its configuration as they found it: the journaled case attaches its
// journal for one run at a time, and a case that arms a setting for
// good (the metrics hook, bounded load, replication, a crash) gets a
// router of its own, so no setting leaks into another case's numbers.
// The routers are built identically, so a delta between two of them is
// the cost of the one setting. Journal files go under dir; reg is the
// registry the instrumented case's router reports to.
func cases(dir string, reg *metrics.Registry) ([]bench, error) {
	nprocs := runtime.GOMAXPROCS(0)
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("server-%d", i)
	}
	hr, err := hashring.New(names, hashring.WithChoices(2))
	if err != nil {
		return nil, err
	}
	keys, ferr := preload(hr.Place)
	// fixture builds a geo router and applies setups in order. Errors
	// collect in ferr and are checked once, before any case is built.
	fixture := func(dim, d int, setups ...func(g *router.Geo) error) *router.Geo {
		g, _, err := newBenchGeo(1024, dim, d)
		for i := 0; err == nil && i < len(setups); i++ {
			err = setups[i](g)
		}
		ferr = errors.Join(ferr, err)
		return g
	}
	replicate := func(g *router.Geo) error {
		err := g.SetReplication(2)
		g.Repair() // every preloaded record takes its second replica
		return err
	}
	geo := fixture(2, 2)
	geo3 := fixture(3, 2)
	inst := fixture(2, 2, func(g *router.Geo) error { g.Instrument(reg); return nil })
	bounded := fixture(2, 2, func(g *router.Geo) error { return g.SetBoundedLoad(2) })
	// The parallel place cases leave keys placed behind them.
	par := fixture(2, 2)
	repl := fixture(2, 3, replicate)
	// 1/16 of the fleet crashes un-repaired, so LocateAny routes around
	// dead primaries.
	crashed := fixture(2, 3, replicate, func(g *router.Geo) error {
		for _, name := range g.Servers()[:64] {
			if err := g.RemoveServer(name); err != nil {
				return err
			}
		}
		return nil
	})
	sched, err := loadgen.ConstantRate(25_000, 400*time.Millisecond)
	if ferr = errors.Join(ferr, err); ferr != nil {
		return nil, ferr
	}
	// A read whose every replica died returns an allocated error by
	// design, so the failover case reads only keys with a live replica.
	var fkeys []string
	for _, key := range keys {
		if _, err := crashed.LocateAny(key); err == nil {
			fkeys = append(fkeys, key)
		}
	}

	cs := []bench{
		{name: "ring_locate/n=65536", balls: 1, fn: func(b *testing.B) {
			r := rng.New(1)
			sp, err := ring.NewRandom(n, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += sp.Locate(r.Float64())
			}
			_ = sink
		}},
		{name: "ring_reseed/n=65536", balls: n, fn: func(b *testing.B) {
			r := rng.New(2)
			sp, err := ring.NewRandom(n, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.Reseed(r)
			}
		}},
		// The steady state the sim workers run in: the space and
		// allocator are built once (warmed before the timer) and the
		// per-trial generator is re-seeded in place.
		{name: "ring_trial_reused/n=65536/d=2", balls: n, fn: func(b *testing.B) {
			trial := sim.RingTrialPooled(n, n, 2, core.TieRandom, false)()
			var r rng.Rand
			r.SeedStream(3, 0)
			if _, err := trial(&r); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.SeedStream(3, uint64(i))
				if _, err := trial(&r); err != nil {
					b.Fatal(err)
				}
			}
		}},
		placeBatch("ring_place_batch/n=65536/d=2", n, 4, 0, func(r *rng.Rand) (core.Space, error) { return ring.NewRandom(n, r) }),
		nearest(2),
		nearest(3),
		placeBatch("torus_place_batch/n=65536/dim=2/d=2", n, 7, 0, torusSpace(n, 2)),
		placeBatch("torus_place_batch/n=65536/dim=3/d=2", n, 8, 0, torusSpace(n, 3)),
		// No specialized nearest kernel exists for dim >= 4, so this
		// tracks the generic path. It runs a quarter of n: the generic
		// kernel costs several times the specialized dims per ball, and
		// ns/ball is batch-size-insensitive.
		placeBatch("torus_place_batch/n=16384/dim=4/d=2", 1<<14, 8, 0, torusSpace(1<<14, 4)),
		// The cell-sorted bulk-nearest kernel on its own: one op is one
		// 4096-query batch.
		{name: "torus_nearest_batch/n=65536/dim=2", balls: 4096, fn: func(b *testing.B) {
			r := rng.New(9)
			sp, err := torus.NewRandom(n, 2, r)
			if err != nil {
				b.Fatal(err)
			}
			pts := make([]float64, 4096*2)
			for i := range pts {
				pts[i] = r.Float64()
			}
			out := make([]int32, 4096)
			sp.NearestBatch(pts, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.NearestBatch(pts, out)
			}
		}},
		placeBatch("uniform_place_batch/n=65536/d=2", n, 6, 0, func(*rng.Rand) (core.Space, error) { return core.NewUniform(n) }),
		// The parallel pipeline shards the bulk-nearest phase over
		// GOMAXPROCS workers; the proc count in the name keeps baselines
		// like-for-like.
		placeBatch(fmt.Sprintf("torus_place_batch_parallel/n=65536/dim=2/d=2/procs=%d", nprocs), n, 7, nprocs, torusSpace(n, 2)),

		locate("hashring_locate/servers=1024", keys, hr.Locate),
		cycle("hashring_place_remove/servers=1024", hr.Router, keys),
		locate("router_geo_locate/servers=1024/dim=2", keys, geo.Locate),
		cycle("router_geo_place/servers=1024/dim=2", geo.Router, keys),
		// The full router_* instrument set attached: the delta against
		// router_geo_locate is the metrics hook, one atomic pointer load,
		// a branch and one sharded atomic add.
		locate("router_geo_locate_instrumented/servers=1024/dim=2", keys, inst.Locate),
		// Bounded-load admission armed: c=2 leaves the preloaded d-choice
		// equilibrium far under the ceiling, so no op is rejected and the
		// delta against router_geo_place is the admission check.
		cycle("router_place_bounded/servers=1024/dim=2/c=2", bounded.Router, keys),
		// A NoSync journal attached: the delta against router_geo_place
		// is encoding, CRC-framing and buffering two WAL records per
		// cycle (the fsync is the disk's price, group-committed across
		// writers). Each run appends to a fresh journal on the plain
		// router, detached when the run ends, so the WAL stays bounded.
		{name: "router_place_journaled/servers=1024/dim=2", balls: 1, fn: func(b *testing.B) {
			body := cycle("", geo.Router, keys).fn
			lg, err := geo.StartJournal(filepath.Join(dir, "wal"), journal.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer closeOffClock(b, lg)
			defer geo.SetJournal(nil)
			b.ResetTimer()
			body(b)
		}},
		// The raw append on its own: one OpPlace record encoded, framed
		// and buffered per op into a fresh journal per run, compacted off
		// the clock so the WAL stays bounded at large b.N.
		{name: "journal_append", balls: 1, fn: func(b *testing.B) {
			lg, err := journal.Create(filepath.Join(dir, "append"), journal.Header{Kind: "geo", Dim: 2, D: 2}, nil, journal.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer closeOffClock(b, lg)
			e := journal.Entry{Op: journal.OpPlace, Name: "key-00001234", Rec: journal.Rec{N: 1, Slots: [journal.MaxReplicas]int32{271}}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lg.Append(e); err != nil {
					b.Fatal(err)
				}
				if i&(1<<18-1) == 1<<18-1 {
					b.StopTimer()
					if err := lg.Compact(nil); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		}},
		// r=2 of d=3 candidates: each cycle writes and un-writes two
		// replica records and two load counters.
		cycle("router_place_replicated/servers=1024/dim=2/r=2", repl.Router, keys),
		locate("router_locate_failover/servers=1024/dim=2/r=2", fkeys, crashed.LocateAny),

		{name: "loadgen_zipf/servers=64/workers=4", load: &loadgen.Config{
			Servers: 64, Workers: 4, Ops: 300_000, Keys: 1 << 12, Dist: "zipf", LookupFrac: 0.9, Seed: 42,
		}},
		{name: "loadgen_zipf_churn/servers=64/workers=4", load: &loadgen.Config{
			Servers: 64, Workers: 4, Ops: 300_000, Keys: 1 << 12, Dist: "zipf", LookupFrac: 0.9, Seed: 43,
			ChurnEvery: 5 * time.Millisecond, Rebalance: true,
		}},
		{name: "loadgen_zipf_torus/servers=64/workers=4/dim=2", load: &loadgen.Config{
			Space: "torus", Dim: 2, Servers: 64, Workers: 4, Ops: 300_000, Keys: 1 << 12,
			Dist: "zipf", LookupFrac: 0.9, Seed: 44,
		}},
		// A replicated fleet with a scripted crash, zone outage and
		// graceful leave landing mid-run; any key lost after repair
		// fails the run.
		{name: "loadgen_failover_torus/servers=64/workers=4/dim=2/r=2", load: &loadgen.Config{
			Space: "torus", Dim: 2, Servers: 64, Choices: 3, KeyReplicas: 2, Workers: 4,
			Duration: 400 * time.Millisecond, Keys: 1 << 12, Dist: "zipf", LookupFrac: 0.9, Seed: 45,
			Failures: loadgen.FailureScript{
				{After: 50 * time.Millisecond, Kind: loadgen.FailCrash, Frac: 0.1},
				{After: 150 * time.Millisecond, Kind: loadgen.FailZone, Frac: 0.2},
				{After: 250 * time.Millisecond, Kind: loadgen.FailLeave, Frac: 0.1},
			},
		}},
		// Open-loop arrivals well under capacity with the registry
		// attached: ns/op is dominated by scheduled inter-arrival sleep,
		// so ops/sec only drops when the harness falls behind.
		{name: "loadgen_openloop_torus/servers=64/workers=4/dim=2", load: &loadgen.Config{
			Space: "torus", Dim: 2, Servers: 64, Workers: 4, Keys: 1 << 12,
			Dist: "zipf", LookupFrac: 0.9, Seed: 46,
			Arrivals: sched, Registry: metrics.NewRegistry(),
		}},
		// The overload lab: bounded-load admission, a cascade brownout
		// of a third of the fleet, client retries with backoff, and
		// hedged reads over the simulated service model.
		{name: "loadgen_overload_torus/servers=64/workers=4/dim=2/r=2", load: &loadgen.Config{
			Space: "torus", Dim: 2, Servers: 64, Choices: 3, KeyReplicas: 2, Workers: 4,
			Duration: 400 * time.Millisecond, Keys: 1 << 10, Dist: "zipf", LookupFrac: 0.5, Seed: 47,
			BoundedLoad: 1.5, ServiceRate: 50_000, Retries: 3,
			RetryBase: 500 * time.Microsecond, RetryCap: 8 * time.Millisecond,
			HedgeAfter: 2 * time.Millisecond,
			Failures: loadgen.FailureScript{
				{After: 50 * time.Millisecond, Kind: loadgen.FailCascade, Frac: 0.3},
			},
		}},
	}
	cs = append(cs, parallel("hashring_locate_parallel/servers=1024", nprocs, locateParallel(hr.Router, keys))...)
	cs = append(cs, geoParallel(par.Router, keys, "servers=1024/dim=2", nprocs)...)
	// The bulk serving path swept over batch sizes: one op is one bulk
	// call, and ns/ball is per key. The dim-3 cases ride the
	// 3x3x3-brick torus batch kernel.
	for _, g := range []*router.Geo{geo, geo3} {
		label := fmt.Sprintf("servers=1024/dim=%d", g.Dim())
		for _, bsz := range []int{1, 4, 16, 64, 256} {
			cs = append(cs, batch(label, g.Router, keys, bsz, false), batch(label, g.Router, keys, bsz, true))
		}
	}
	return cs, nil
}

// collect runs every case of the suite and returns their records.
func collect() ([]result, error) {
	dir, err := os.MkdirTemp("", "benchjson")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cs, err := cases(dir, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	return measure(cs)
}

type report struct {
	Schema  int      `json:"schema"`
	Results []result `json:"results"`
}

// compare checks fresh against the baseline file and returns the number
// of regressions, printing one line per comparison failure to stderr.
func compare(baselinePath string, tol float64, fresh []result) (int, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return 0, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return 0, fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	baseByName := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	freshNames := make(map[string]bool, len(fresh))
	regressions := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "REGRESSION: "+format+"\n", args...)
		regressions++
	}
	for _, f := range fresh {
		freshNames[f.Name] = true
		b, ok := baseByName[f.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "note: %s has no baseline record (new benchmark)\n", f.Name)
			continue
		}
		if b.NsPerBall > 0 && f.NsPerBall > b.NsPerBall*(1+tol) {
			fail("%s: ns/ball %.1f vs baseline %.1f (+%.0f%% > %.0f%% tolerance)",
				f.Name, f.NsPerBall, b.NsPerBall, 100*(f.NsPerBall/b.NsPerBall-1), 100*tol)
		}
		if f.AllocsPerOp > b.AllocsPerOp &&
			float64(f.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol) {
			fail("%s: allocs/op %d vs baseline %d",
				f.Name, f.AllocsPerOp, b.AllocsPerOp)
		}
		if b.OpsPerSec > 0 && f.OpsPerSec < b.OpsPerSec*(1-tol) {
			fail("%s: ops/sec %.0f vs baseline %.0f (-%.0f%% > %.0f%% tolerance)",
				f.Name, f.OpsPerSec, b.OpsPerSec, 100*(1-f.OpsPerSec/b.OpsPerSec), 100*tol)
		}
	}
	for _, b := range base.Results {
		if !freshNames[b.Name] {
			fmt.Fprintf(os.Stderr, "note: baseline record %s missing from this run\n", b.Name)
		}
	}
	return regressions, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	compareFlag := flag.String("compare", "", "baseline JSON to gate against; exit 1 on regression")
	out := flag.String("out", "", "also write the fresh JSON to this file")
	flag.Parse()
	// testing.Benchmark reads its budget from the test.benchtime flag;
	// registering the testing flags after Parse keeps them off the
	// command line.
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}
	results, err := collect()
	if err != nil {
		return err
	}
	encoded, err := json.MarshalIndent(report{Schema: 2, Results: results}, "", "  ")
	if err != nil {
		return err
	}
	encoded = append(encoded, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, encoded, 0o644); err != nil {
			return err
		}
	}
	os.Stdout.Write(encoded)
	if *compareFlag == "" {
		return nil
	}
	n, err := compare(*compareFlag, tolerance, results)
	if err != nil {
		return err
	}
	if n > 0 {
		return fmt.Errorf("%d benchmark regression(s) past %.0f%% tolerance", n, 100*tolerance)
	}
	fmt.Fprintf(os.Stderr, "benchmark gate passed (%d records compared against %s)\n",
		len(results), *compareFlag)
	return nil
}
