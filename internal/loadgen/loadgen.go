// Package loadgen drives the concurrent serving layer with the skewed
// traffic the paper's applications face in production: N worker
// goroutines issuing Zipf-, Pareto-, or uniform-keyed Locate traffic
// plus Place/Remove write churn, optionally racing a membership
// churner that adds and removes servers (with Rebalance) while the
// workers run.
//
// The harness drives the serving core, *router.Router, directly. The
// facade that owns it is selected by Config.Space — the ring-backed
// hashring facade (the default) or the torus-backed geographic router
// router.Geo, whose churned servers join at random torus coordinates —
// and only supplies membership and geometry. Fleet (fleet.go) carries
// the core and its facade; a journaled run's kill event swaps in a
// whole recovered Fleet.
//
// Each worker draws from its own deterministic rng stream
// (rng.NewStream(seed, worker)), keeps its own latency histograms, and
// merges them at the end, so a run is reproducible given (Config, Seed)
// up to OS scheduling of the op interleaving — throughput and latency
// are measured, correctness is asserted by the router invariants.
package loadgen

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geobalance/internal/hashring"
	"geobalance/internal/journal"
	"geobalance/internal/metrics"
	"geobalance/internal/rng"
	"geobalance/internal/router"
	"geobalance/internal/stats"
	"geobalance/internal/workload"
)

// Config parameterizes one load-test run. Zero fields take the
// documented defaults.
type Config struct {
	Space       string        // "ring" (default) or "torus"
	Dim         int           // torus dimension (default 2; torus space only)
	Servers     int           // fleet size (default 64)
	Choices     int           // d (default 2)
	Replicas    int           // ring: positions per server; torus: alias for KeyReplicas (default 1)
	KeyReplicas int           // replicas per key, <= Choices (default 1; >1 pins each key to its top-r candidates)
	Workers     int           // traffic goroutines (default GOMAXPROCS)
	Ops         int64         // total op budget; used when Duration == 0
	Duration    time.Duration // wall-clock bound; 0 = ops-bound
	Keys        int           // preloaded hot-key space (default 8192)
	Dist        string        // "zipf", "pareto", or "uniform" (default zipf)
	ZipfS       float64       // Zipf exponent (default 1.1)
	ParetoAlpha float64       // Pareto shape (default 1.2)
	LookupFrac  float64       // fraction of ops that are Locate; 0 = pure write traffic (the CLI defaults to 0.9)
	ChurnEvery  time.Duration // membership change period; 0 = no churn
	Rebalance   bool          // rebalance after every churn event
	Failures    FailureScript // scripted failure events racing the traffic; see failures.go
	SampleEvery int           // measure latency on every k-th op (default 8)
	Batch       int           // ops per bulk call; > 1 drives the batch serving path (batch.go), 0/1 the scalar path
	ReportEvery time.Duration // interim load reports to ReportTo; 0 = none
	ReportTo    io.Writer     // destination for interim reports (required when ReportEvery > 0)
	Seed        uint64

	// Overload protection. BoundedLoad > 1 arms the router's
	// bounded-load admission (router.SetBoundedLoad); Capacities
	// assigns heterogeneous per-server capacity weights to the initial
	// fleet (see ParseCapacities); ServiceRate > 0 attaches the
	// simulated per-server service-time model (ops/sec a capacity-1
	// server serves — see serviceModel), which the sojourn histogram,
	// hedging, and the breaker all hang off.
	BoundedLoad float64
	Capacities  []CapacityClass
	ServiceRate float64

	// Client retry discipline for placements rejected with
	// router.ErrOverloaded: up to Retries retries with full-jitter
	// capped exponential backoff (RetryBase doubling up to RetryCap,
	// floored at the rejection's retry-after hint). An op that exhausts
	// its retries — or would blow through OpDeadline — is SHED: counted
	// in Result.Shed, never silently dropped, so open-loop goodput
	// stays coordination-omission-free. Retries = 0 sheds on first
	// rejection.
	Retries    int
	RetryBase  time.Duration // default 1ms
	RetryCap   time.Duration // default 50ms
	OpDeadline time.Duration // wall-clock budget per op incl. retries; 0 = none

	// HedgeAfter > 0 arms hedged reads (needs ServiceRate > 0 and key
	// replication to matter): a read whose primary sojourn exceeds
	// HedgeAfter issues a second read to an alternate replica and keeps
	// the faster of the two. Slow reads also feed a per-server circuit
	// breaker (BreakerTrip consecutive slow reads open it for
	// BreakerCooldown) that routes reads straight to the alternate
	// while open.
	HedgeAfter      time.Duration
	BreakerTrip     int           // consecutive slow reads to open (default 8)
	BreakerCooldown time.Duration // how long an open breaker holds (default 100ms)

	// Arrivals switches the run from closed loop (workers issue ops
	// back to back against the Ops/Duration budget) to open loop: the
	// schedule fixes every arrival's timestamp, workers claim arrival
	// indices from a shared counter and sleep until each is due, and
	// the run ends when the schedule is exhausted (or Duration, when
	// set, cuts it short). Ops is ignored. See arrivals.go.
	Arrivals *ArrivalSchedule

	// Registry, when set, instruments the run: the router under test
	// gets the full router_* instrument set (Router.Instrument) and the
	// harness counts its own traffic under loadgen_* (NewLoadMetrics).
	// Nil runs stay on the zero-alloc uninstrumented paths.
	Registry *metrics.Registry

	// JournalDir, when set, makes the run durable: after the hot keys
	// are preloaded the target starts a write-ahead journal in that
	// directory (snapshot at attach, every later mutation logged), and a
	// scripted kill event crashes the router mid-traffic and recovers it
	// from that journal. Required by kill events; useful on its own to
	// measure journaled-placement overhead under live load.
	JournalDir string

	// ReportFunc, when set, replaces the default interim report line:
	// it is called every ReportEvery with the elapsed time and the
	// current fleet (the -watch terminal view hangs off this hook).
	// Called from the reporting goroutine, holding the fleet's read
	// lock in a journaled run; it must not block for long.
	ReportFunc func(elapsed time.Duration, f Fleet)
}

// Result aggregates one run. The latency histograms hold sampled
// latencies (every SampleEvery-th op), the counters hold every op.
type Result struct {
	Elapsed    time.Duration
	Ops        int64
	Throughput float64 // ops per second, all types
	Lookups    int64
	Places     int64
	Removes    int64
	Errors     int64

	// FailedReads counts lookups that found no live replica — the
	// window between a crash and its repair. Kept apart from Errors:
	// they are the degradation a failure script inflicts on purpose.
	FailedReads int64
	// Failures records each scripted failure event's outcome in order.
	Failures []FailureOutcome
	// LostKeys counts hot keys unreadable after the final repair — the
	// zero-lost-keys acceptance check. Only populated when the run used
	// replication or a failure script.
	LostKeys int

	// Overload discipline tallies. Rejections counts every
	// ErrOverloaded a placement attempt received; Retries the backoff
	// sleeps taken; Recovered the ops that succeeded after at least one
	// retry; Shed the ops abandoned after exhausting retries or their
	// deadline (shed ops are NOT in Ops/Places — they never completed);
	// DeadlineMisses the ops cut off by OpDeadline; Hedges the hedged
	// second reads issued; BreakerOpens the breaker trip transitions.
	Rejections     int64
	Retries        int64
	Recovered      int64
	Shed           int64
	DeadlineMisses int64
	Hedges         int64
	BreakerOpens   int64

	// Simulated service-time results (ServiceRate > 0 only): the
	// sampled sojourn histogram, the deepest virtual backlog at the end
	// of the run, and the router's final max relative (per-capacity)
	// load.
	Sojourn    stats.LatencyHist
	MaxBacklog time.Duration
	WorstQueue string
	MaxRelLoad float64

	Lookup stats.LatencyHist
	Place  stats.LatencyHist
	Remove stats.LatencyHist

	// Open-loop runs only: the arrivals the schedule offered and the
	// issue-lag histogram (how far behind schedule each op started —
	// the open-loop stand-in for queueing delay).
	Offered int64
	Lag     stats.LatencyHist

	ChurnEvents int
	MovedKeys   int

	FinalKeys int
	MaxLoad   int64
	MeanLoad  float64
	Workers   int
	Procs     int

	// Router is the fleet after the run (the recovered one, when a kill
	// event fired), for invariant checks.
	Router Fleet
}

func (cfg *Config) applyDefaults() error {
	if cfg.Space == "" {
		cfg.Space = "ring"
	}
	if cfg.Dim == 0 {
		cfg.Dim = 2
	}
	if cfg.Servers == 0 {
		cfg.Servers = 64
	}
	if cfg.Choices == 0 {
		cfg.Choices = 2
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1 << 13
	}
	if cfg.Dist == "" {
		cfg.Dist = "zipf"
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.ParetoAlpha == 0 {
		cfg.ParetoAlpha = 1.2
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 8
	}
	if cfg.Batch == 0 {
		cfg.Batch = 1
	}
	if cfg.Batch < 1 || cfg.Batch > 1<<16 {
		return fmt.Errorf("loadgen: batch size %d out of [1, %d]", cfg.Batch, 1<<16)
	}
	// On the torus, Replicas is an alias for KeyReplicas: the ring's
	// "positions per server" meaning does not exist there, and key
	// replication is the torus-native reading of an r-way request.
	if cfg.Space == "torus" && cfg.Replicas != 1 {
		if cfg.KeyReplicas != 0 && cfg.KeyReplicas != cfg.Replicas {
			return fmt.Errorf("loadgen: replicas=%d conflicts with key replicas=%d (on the torus they are the same knob)",
				cfg.Replicas, cfg.KeyReplicas)
		}
		cfg.KeyReplicas = cfg.Replicas
	}
	if cfg.KeyReplicas == 0 {
		cfg.KeyReplicas = 1
	}
	if cfg.KeyReplicas < 1 || cfg.KeyReplicas > cfg.Choices || cfg.KeyReplicas > router.MaxReplicas {
		return fmt.Errorf("loadgen: need 1 <= key replicas <= min(choices=%d, %d), got %d",
			cfg.Choices, router.MaxReplicas, cfg.KeyReplicas)
	}
	// A script event past the run horizon would silently never fire:
	// reject it loudly instead when the horizon is knowable up front.
	horizon := cfg.Duration
	if horizon <= 0 && cfg.Arrivals != nil {
		horizon = cfg.Arrivals.Duration()
	}
	for i := range cfg.Failures {
		if err := cfg.Failures[i].validate(); err != nil {
			return err
		}
		if horizon > 0 && cfg.Failures[i].After >= horizon {
			return fmt.Errorf("loadgen: failure %s at offset %v would never fire (run horizon %v)",
				cfg.Failures[i].Kind, cfg.Failures[i].After, horizon)
		}
		if cfg.Failures[i].Kind == FailKill && cfg.JournalDir == "" {
			return fmt.Errorf("loadgen: kill failure needs a journal to recover from (set JournalDir)")
		}
	}
	if cfg.BoundedLoad != 0 && !(cfg.BoundedLoad > 1) {
		return fmt.Errorf("loadgen: bounded-load factor %v: need c > 1 (or 0 to disable)", cfg.BoundedLoad)
	}
	if cfg.ServiceRate < 0 || cfg.Retries < 0 {
		return fmt.Errorf("loadgen: service rate and retries must be >= 0")
	}
	if cfg.HedgeAfter > 0 && cfg.ServiceRate <= 0 {
		return fmt.Errorf("loadgen: hedged reads need the service-time model (set ServiceRate > 0)")
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryCap == 0 {
		cfg.RetryCap = 50 * time.Millisecond
	}
	if cfg.RetryBase <= 0 || cfg.RetryCap < cfg.RetryBase {
		return fmt.Errorf("loadgen: need 0 < retry base <= retry cap, got %v, %v", cfg.RetryBase, cfg.RetryCap)
	}
	if cfg.BreakerTrip == 0 {
		cfg.BreakerTrip = 8
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 100 * time.Millisecond
	}
	if cfg.BreakerTrip < 1 || cfg.BreakerCooldown < 0 {
		return fmt.Errorf("loadgen: need breaker trip >= 1 and cooldown >= 0")
	}
	if cfg.Servers < 1 || cfg.Workers < 1 || cfg.Keys < 2 {
		return fmt.Errorf("loadgen: need servers >= 1, workers >= 1, keys >= 2")
	}
	if cfg.LookupFrac < 0 || cfg.LookupFrac > 1 {
		return fmt.Errorf("loadgen: lookup fraction %v out of [0,1]", cfg.LookupFrac)
	}
	if cfg.Ops <= 0 && cfg.Duration <= 0 && cfg.Arrivals == nil {
		return fmt.Errorf("loadgen: need an op budget, a duration, or an arrival schedule")
	}
	if cfg.ReportEvery > 0 && cfg.ReportTo == nil && cfg.ReportFunc == nil {
		return fmt.Errorf("loadgen: ReportEvery set without a ReportTo writer or ReportFunc")
	}
	return nil
}

// buildFleet constructs the router under test with its initial fleet,
// applies the capacity bands, and returns the per-server capacity map
// the service model seeds from.
func (cfg *Config) buildFleet() (Fleet, map[string]float64, error) {
	names := make([]string, cfg.Servers)
	for i := range names {
		names[i] = "server-" + strconv.Itoa(i)
	}
	var f Fleet
	switch cfg.Space {
	case "ring":
		ring, err := hashring.New(names,
			hashring.WithChoices(cfg.Choices), hashring.WithReplicas(cfg.Replicas))
		if err != nil {
			return Fleet{}, nil, err
		}
		f = ringFleet(ring)
	case "torus":
		geo, err := router.NewGeo(cfg.Dim, cfg.Choices)
		if err != nil {
			return Fleet{}, nil, err
		}
		f = geoFleet(geo)
		// Deterministic server placement from a stream the workers and
		// churner never touch.
		sr := rng.NewStream(cfg.Seed, 1<<33)
		for _, name := range names {
			if err := f.join(name, sr); err != nil {
				return Fleet{}, nil, err
			}
		}
	default:
		return Fleet{}, nil, fmt.Errorf("loadgen: unknown space %q (want ring or torus)", cfg.Space)
	}
	caps, err := assignCapacities(f.Router, names, cfg.Capacities)
	if err != nil {
		return Fleet{}, nil, err
	}
	return f, caps, nil
}

func (cfg *Config) ranker() (workload.Ranker, error) {
	switch cfg.Dist {
	case "zipf":
		return workload.NewZipf(cfg.ZipfS, uint64(cfg.Keys))
	case "pareto":
		return workload.NewParetoRanks(cfg.ParetoAlpha, uint64(cfg.Keys))
	case "uniform":
		return workload.NewUniformRanks(uint64(cfg.Keys))
	default:
		return nil, fmt.Errorf("loadgen: unknown key distribution %q (want zipf, pareto, or uniform)", cfg.Dist)
	}
}

// workerStats is one goroutine's private tally, merged after the run.
type workerStats struct {
	lookups, places, removes, errors int64
	failedReads                      int64
	rejections, retries, recovered   int64
	shed, deadlineMisses, hedges     int64
	lookup, place, remove, lag       stats.LatencyHist
	sojourn                          stats.LatencyHist
}

// opBatch is how many ops a worker claims from the shared budget at a
// time, bounding both contention on the budget counter and overshoot.
const opBatch = 64

// Run executes one load-test run.
func Run(cfg Config) (*Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	rk, err := cfg.ranker()
	if err != nil {
		return nil, err
	}
	fl, caps, err := cfg.buildFleet()
	if err != nil {
		return nil, err
	}
	lv := &liveFleet{f: fl}
	if cfg.KeyReplicas > 1 {
		if err := fl.SetReplication(cfg.KeyReplicas); err != nil {
			return nil, err
		}
	}
	// Optional instrumentation: router_* on the router, loadgen_* for
	// the harness's own traffic. Nil stays on the uninstrumented paths.
	var lm *LoadMetrics
	if cfg.Registry != nil {
		fl.Instrument(cfg.Registry)
		lm = NewLoadMetrics(cfg.Registry)
		lm.Workers.Set(int64(cfg.Workers))
	}
	// Failover mode: replicated placement or scripted failures switch
	// the read path to LocateAny and enable the post-run repair audit.
	failover := cfg.KeyReplicas > 1 || len(cfg.Failures) > 0

	// Preload the hot-key space the Locate traffic reads. The bound is
	// armed only afterwards: preloaded keys are the pre-existing data
	// set, not the admission-controlled arrivals.
	hot := make([]string, cfg.Keys)
	for i := range hot {
		hot[i] = "hot:" + strconv.Itoa(i)
		if _, err := fl.Place(hot[i]); err != nil {
			return nil, err
		}
	}
	if cfg.BoundedLoad > 0 {
		if err := fl.SetBoundedLoad(cfg.BoundedLoad); err != nil {
			return nil, err
		}
	}

	// Durable mode: attach the write-ahead journal after the preload —
	// the snapshot carries the initial fleet and hot-key set, the WAL
	// records only the run's own mutations — and arm the fleet cell's
	// read lock, which kill events swap a recovered fleet under.
	if cfg.JournalDir != "" {
		opts := journal.Options{}
		if cfg.Registry != nil {
			opts.Metrics = journal.NewMetrics(cfg.Registry)
		}
		if err := fl.startJournal(cfg.JournalDir, opts); err != nil {
			return nil, err
		}
		lv.durable, lv.opts = true, opts
		// Flush and close whichever journal the final fleet holds (reads
		// keep working; further journaled writes would fail).
		defer func() { lv.f.Journal().Close() }()
	}

	var (
		budget   atomic.Int64 // remaining ops (ops-bound mode)
		traffic  sync.WaitGroup
		allStats = make([]workerStats, cfg.Workers)
	)
	budget.Store(cfg.Ops)
	opsBound := cfg.Duration <= 0

	start := time.Now()
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	// The optional client-side overload machinery: the per-server
	// service-time model and the read-path circuit breaker.
	var model *serviceModel
	if cfg.ServiceRate > 0 {
		model = newServiceModel(cfg.ServiceRate, caps, start)
	}
	var br *breakerSet
	if cfg.HedgeAfter > 0 {
		br = newBreakerSet(cfg.BreakerTrip, cfg.BreakerCooldown)
	}

	var nextArrival atomic.Int64 // open-loop arrival index claims
	for w := 0; w < cfg.Workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			st := newOpState(lv, &cfg, rk, rng.NewStream(cfg.Seed, uint64(w)), w,
				&allStats[w], lm, hot, failover)
			st.model, st.br = model, br
			switch {
			case cfg.Arrivals != nil && cfg.Batch > 1:
				runOpenBatchWorker(st, cfg.Arrivals, &nextArrival, start, deadline)
			case cfg.Arrivals != nil:
				runOpenWorker(st, cfg.Arrivals, &nextArrival, start, deadline)
			case cfg.Batch > 1:
				runBatchWorker(st, &budget, opsBound, deadline)
			default:
				runWorker(st, &budget, opsBound, deadline)
			}
		}(w)
	}

	// Optional scripted failures, racing the traffic.
	var (
		failDone chan struct{}
		outcomes []FailureOutcome
	)
	failStop := make(chan struct{})
	if len(cfg.Failures) > 0 {
		failDone = make(chan struct{})
		go func() {
			defer close(failDone)
			outcomes = runFailures(lv, &cfg, lm, model, caps, failStop)
		}()
	}

	// Optional membership churner, racing the traffic.
	var (
		churnDone   chan struct{}
		churnEvents int
		moved       int
	)
	churnStop := make(chan struct{})
	if cfg.ChurnEvery > 0 {
		churnDone = make(chan struct{})
		go func() {
			defer close(churnDone)
			tick := time.NewTicker(cfg.ChurnEvery)
			defer tick.Stop()
			var added []string
			next := 0
			cr := rng.NewStream(cfg.Seed, 1<<32)
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
				}
				f := lv.acquire()
				if len(added) == 0 || (len(added) < 8 && cr.Intn(2) == 0) {
					name := "churn-" + strconv.Itoa(next)
					next++
					if f.join(name, cr) == nil {
						added = append(added, name)
						churnEvents++
						if lm != nil {
							lm.ChurnEvents.Inc(0)
						}
					}
				} else {
					name := added[0]
					added = added[1:]
					if f.leave(name) == nil {
						churnEvents++
						if lm != nil {
							lm.ChurnEvents.Inc(0)
						}
					}
				}
				if cfg.Rebalance {
					moved += f.Rebalance()
				}
				lv.release()
			}
		}()
	}

	// Optional reporting loop: folds the live load counters into a
	// reused map (the allocation-free LoadsInto path) every tick and
	// prints an interim imbalance line.
	var reportDone chan struct{}
	reportStop := make(chan struct{})
	if cfg.ReportEvery > 0 {
		reportDone = make(chan struct{})
		go func() {
			defer close(reportDone)
			tick := time.NewTicker(cfg.ReportEvery)
			defer tick.Stop()
			loads := make(map[string]int64, cfg.Servers+8)
			for {
				select {
				case <-reportStop:
					return
				case <-tick.C:
				}
				f := lv.acquire()
				if cfg.ReportFunc != nil {
					cfg.ReportFunc(time.Since(start), f)
					lv.release()
					continue
				}
				f.LoadsInto(loads)
				lv.release()
				var total, max int64
				for _, l := range loads {
					total += l
					if l > max {
						max = l
					}
				}
				mean := float64(total) / float64(len(loads))
				ratio := 0.0
				if mean > 0 {
					ratio = float64(max) / mean
				}
				fmt.Fprintf(cfg.ReportTo, "  [%7.3fs] %d keys on %d servers   max load %d (%.2fx mean)\n",
					time.Since(start).Seconds(), total, len(loads), max, ratio)
			}
		}()
	}

	traffic.Wait()
	close(churnStop)
	if churnDone != nil {
		<-churnDone
	}
	close(failStop)
	if failDone != nil {
		<-failDone
	}
	close(reportStop)
	if reportDone != nil {
		<-reportDone
	}
	elapsed := time.Since(start)

	// Every goroutine that could swap or lock the fleet has stopped.
	fl = lv.f
	res := &Result{
		Elapsed:     elapsed,
		ChurnEvents: churnEvents,
		MovedKeys:   moved,
		Workers:     cfg.Workers,
		Procs:       runtime.GOMAXPROCS(0),
		Router:      fl,
	}
	res.Failures = outcomes
	for i := range allStats {
		ws := &allStats[i]
		res.Lookups += ws.lookups
		res.Places += ws.places
		res.Removes += ws.removes
		res.Errors += ws.errors
		res.FailedReads += ws.failedReads
		res.Rejections += ws.rejections
		res.Retries += ws.retries
		res.Recovered += ws.recovered
		res.Shed += ws.shed
		res.DeadlineMisses += ws.deadlineMisses
		res.Hedges += ws.hedges
		res.Lookup.Merge(&ws.lookup)
		res.Place.Merge(&ws.place)
		res.Remove.Merge(&ws.remove)
		res.Lag.Merge(&ws.lag)
		res.Sojourn.Merge(&ws.sojourn)
	}
	if br != nil {
		res.BreakerOpens = br.openCount()
	}
	if model != nil {
		res.WorstQueue, res.MaxBacklog = model.maxBacklog()
	}
	res.MaxRelLoad = fl.MaxRelLoad()
	if cfg.Arrivals != nil {
		res.Offered = cfg.Arrivals.Total()
	}
	res.Ops = res.Lookups + res.Places + res.Removes
	if elapsed > 0 {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
	}
	// The zero-lost-keys audit: after a final repair converges, every
	// preloaded hot key must still be readable somewhere.
	if failover {
		fl.Repair()
		for _, key := range hot {
			if _, err := fl.LocateAny(key); err != nil {
				res.LostKeys++
			}
		}
	}
	res.FinalKeys = fl.NumKeys()
	loads := make(map[string]int64, cfg.Servers+8)
	fl.LoadsInto(loads)
	var total int64
	for _, l := range loads {
		total += l
		if l > res.MaxLoad {
			res.MaxLoad = l
		}
	}
	if len(loads) > 0 {
		res.MeanLoad = float64(total) / float64(len(loads))
	}
	return res, nil
}

// opState is one traffic goroutine's working set: the shared run
// parameters plus the worker-private key pool and tallies. doOp issues
// one operation against it; the closed- and open-loop drivers differ
// only in how they pace the doOp calls.
type opState struct {
	lv       *liveFleet
	cfg      *Config
	rk       workload.Ranker
	r        *rng.Rand
	ws       *workerStats
	lm       *LoadMetrics
	hot      []string
	failover bool
	hint     uint64 // metric shard hint (the worker index)

	own                []string // worker-private write-churn key pool
	head, tail, placed int      // own[tail:head) (mod len) are currently placed
	opCount            int
	gen                int // shed-key regeneration counter (fresh candidate sets)

	// Overload machinery (nil when the run doesn't arm it).
	model     *serviceModel
	br        *breakerSet
	ownersBuf []string // reusable Owners scratch for hedged reads

	// Batch-mode scratch (Batch > 1 only; see batch.go): reusable key
	// blocks and result buffers so a steady-state batch allocates
	// nothing beyond what the router's own batch path does.
	blook, bplace, bremove, bpend []string
	bout                          []router.BatchResult
}

func newOpState(lv *liveFleet, cfg *Config, rk workload.Ranker, r *rng.Rand,
	w int, ws *workerStats, lm *LoadMetrics, hot []string, failover bool) *opState {
	st := &opState{
		lv: lv, cfg: cfg, rk: rk, r: r, ws: ws, lm: lm,
		hot: hot, failover: failover, hint: uint64(w),
		own:       make([]string, 256),
		ownersBuf: make([]string, 0, router.MaxChoices),
	}
	for i := range st.own {
		st.own[i] = "w" + strconv.Itoa(w) + ":" + strconv.Itoa(i)
	}
	if b := cfg.Batch; b > 1 {
		st.blook = make([]string, 0, b)
		st.bplace = make([]string, 0, b)
		st.bremove = make([]string, 0, b)
		st.bpend = make([]string, 0, b)
		st.bout = make([]router.BatchResult, b)
	}
	return st
}

// doOp issues one operation: Zipf/Pareto/uniform-keyed Locate traffic
// at LookupFrac, the rest an even mix of Place and Remove over the
// worker's own pre-generated key pool (so write ops never collide
// across workers and the steady state allocates nothing).
func (st *opState) doOp() {
	ws, lm := st.ws, st.lm
	measured := st.opCount%st.cfg.SampleEvery == 0
	st.opCount++
	if st.r.Float64() < st.cfg.LookupFrac {
		// Pick the key before starting the clock: the Zipf rank draw is
		// a rejection-sampling loop whose cost would otherwise dominate
		// the ~50ns router op being measured.
		key := st.hot[st.rk.Next(st.r)]
		var t0 time.Time
		if measured {
			t0 = time.Now()
		}
		var (
			err error
			srv string
		)
		f := st.lv.acquire()
		if st.failover {
			srv, err = f.LocateAny(key)
		} else {
			srv, err = f.Locate(key)
		}
		st.lv.release()
		// The failover read: a dead primary is routed around, and a key
		// with NO live replica is the scripted degradation a failure
		// inflicts on purpose, not a harness error.
		if st.failover && errors.Is(err, router.ErrNoLiveReplica) {
			ws.failedReads++
			if lm != nil {
				lm.FailedReads.Inc(st.hint)
			}
			err, srv = nil, ""
		}
		if st.model != nil && srv != "" {
			st.observeRead(key, srv)
		}
		ws.lookups++
		if lm != nil {
			lm.Lookups.Inc(st.hint)
		}
		if err != nil {
			ws.errors++
			if lm != nil {
				lm.Errors.Inc(st.hint)
			}
		}
		if measured {
			lat := time.Since(t0).Nanoseconds()
			ws.lookup.Add(lat)
			if lm != nil {
				lm.LookupLatency.Observe(lat)
			}
		}
		return
	}
	doPlace := st.placed == 0 || (st.placed < len(st.own) && st.r.Uint64()&1 == 0)
	var t0 time.Time
	if measured || st.cfg.OpDeadline > 0 {
		t0 = time.Now()
	}
	if doPlace {
		srv, err := st.placeWithRetry(st.own[st.head], t0)
		if err != nil && errors.Is(err, router.ErrOverloaded) {
			// Shed: retries (or the deadline) ran out. The pool cursor
			// does NOT advance — the key was never placed — and the op is
			// counted as shed, not as a completed place, so goodput
			// reflects the refusal instead of hiding it. The slot gets a
			// FRESH key name: a key's candidate set is fixed by its hash,
			// so retrying the identical key against a saturated candidate
			// set would wedge the worker's write path for good (the
			// client-side analogue of giving up on a request instead of
			// hammering the same overloaded shard).
			st.gen++
			st.own[st.head] = "w" + strconv.Itoa(int(st.hint)) + ":" +
				strconv.Itoa(st.head) + "#" + strconv.Itoa(st.gen)
			ws.shed++
			if lm != nil {
				lm.Shed.Inc(st.hint)
			}
			return
		}
		st.head = (st.head + 1) % len(st.own)
		st.placed++
		ws.places++
		if lm != nil {
			lm.Places.Inc(st.hint)
		}
		if err != nil {
			ws.errors++
			if lm != nil {
				lm.Errors.Inc(st.hint)
			}
		} else if st.model != nil {
			// The accepted write consumes service time on the server that
			// took it — write demand is demand.
			soj := st.model.observe(srv, st.r)
			ws.sojourn.Add(int64(soj))
			if lm != nil {
				lm.Sojourn.Observe(int64(soj))
			}
		}
		if measured {
			ws.place.Add(time.Since(t0).Nanoseconds())
		}
	} else {
		f := st.lv.acquire()
		err := f.Remove(st.own[st.tail])
		st.lv.release()
		st.tail = (st.tail + 1) % len(st.own)
		st.placed--
		ws.removes++
		if lm != nil {
			lm.Removes.Inc(st.hint)
		}
		if err != nil {
			ws.errors++
			if lm != nil {
				lm.Errors.Inc(st.hint)
			}
		}
		if measured {
			ws.remove.Add(time.Since(t0).Nanoseconds())
		}
	}
}

// observeRead routes one read through the service-time model: observe
// the serving server's virtual queue, hedge to an alternate replica
// when the sojourn crosses HedgeAfter (or the server's breaker is
// already open), keep the faster of the two, and feed the breaker.
func (st *opState) observeRead(key, srv string) {
	ws, lm := st.ws, st.lm
	now := time.Now()
	var (
		soj    time.Duration
		hedged bool
	)
	if st.br != nil && st.br.open(srv, now) {
		// Breaker open: go straight to an alternate replica, sparing the
		// struggling server the sample entirely. No alternate (single
		// replica, or every owner is srv) means eating the slow read.
		if alt := st.altReplica(key, srv); alt != "" {
			soj, hedged = st.model.observe(alt, st.r), true
		} else {
			soj = st.model.observe(srv, st.r)
		}
	} else {
		soj = st.model.observe(srv, st.r)
		if st.br != nil {
			slow := soj > st.cfg.HedgeAfter
			if slow {
				// Hedge: a second read to an alternate replica, keeping
				// whichever finishes first.
				if alt := st.altReplica(key, srv); alt != "" {
					if s2 := st.model.observe(alt, st.r); s2 < soj {
						soj = s2
					}
					hedged = true
				}
			}
			if st.br.record(srv, slow, now) && lm != nil {
				lm.BreakerOpens.Inc(st.hint)
			}
		}
	}
	if hedged {
		ws.hedges++
		if lm != nil {
			lm.Hedges.Inc(st.hint)
		}
	}
	ws.sojourn.Add(int64(soj))
	if lm != nil {
		lm.Sojourn.Observe(int64(soj))
	}
	if st.cfg.OpDeadline > 0 && soj > st.cfg.OpDeadline {
		ws.deadlineMisses++
		if lm != nil {
			lm.DeadlineMisses.Inc(st.hint)
		}
	}
}

// altReplica returns one of key's owners other than srv, or "".
func (st *opState) altReplica(key, srv string) string {
	f := st.lv.acquire()
	owners, err := f.Owners(key, st.ownersBuf[:0])
	st.lv.release()
	if err != nil {
		return ""
	}
	for _, o := range owners {
		if o != srv {
			return o
		}
	}
	return ""
}

// placeWithRetry is the client-side retry discipline: on
// ErrOverloaded, back off (full jitter, doubling from RetryBase up to
// RetryCap, floored at the rejection's retry-after hint) and try
// again, up to Retries times and never past OpDeadline. Any other
// error returns immediately; a still-overloaded error after the loop
// means the caller sheds the op.
func (st *opState) placeWithRetry(key string, t0 time.Time) (string, error) {
	ws, lm := st.ws, st.lm
	attempt := 0
	for {
		f := st.lv.acquire()
		srv, err := f.Place(key)
		st.lv.release()
		if err == nil {
			if attempt > 0 {
				ws.recovered++
				if lm != nil {
					lm.Recovered.Inc(st.hint)
				}
			}
			return srv, nil
		}
		if !errors.Is(err, router.ErrOverloaded) {
			return srv, err
		}
		ws.rejections++
		if attempt >= st.cfg.Retries {
			return srv, err
		}
		var hint time.Duration
		var oe *router.OverloadedError
		if errors.As(err, &oe) {
			hint = oe.RetryAfter
		}
		attempt++
		sleep := backoff(st.r, attempt, st.cfg.RetryBase, st.cfg.RetryCap, hint)
		if st.cfg.OpDeadline > 0 && time.Since(t0)+sleep > st.cfg.OpDeadline {
			ws.deadlineMisses++
			if lm != nil {
				lm.DeadlineMisses.Inc(st.hint)
			}
			return srv, err
		}
		ws.retries++
		if lm != nil {
			lm.Retries.Inc(st.hint)
		}
		time.Sleep(sleep)
	}
}

// runWorker is the closed-loop driver: issue ops back to back against
// the shared budget (ops-bound) or until the deadline (time-bound).
func runWorker(st *opState, budget *atomic.Int64, opsBound bool, deadline time.Time) {
	for {
		n := opBatch
		if opsBound {
			claimed := budget.Add(-opBatch)
			if claimed <= -opBatch {
				return
			}
			if claimed < 0 {
				n = opBatch + int(claimed)
			}
		} else if !time.Now().Before(deadline) {
			return
		}
		for i := 0; i < n; i++ {
			st.doOp()
		}
	}
}

// runOpenWorker is the open-loop driver: claim arrival indices from
// the shared counter, sleep until each claimed arrival is due, record
// how far behind schedule the op actually issued, and stop when the
// schedule (or the optional deadline) is exhausted. Issue lag is
// recorded for EVERY op, not sampled — lag is the open-loop harness's
// primary signal and costs no clock read beyond the one it needs.
func runOpenWorker(st *opState, sched *ArrivalSchedule, next *atomic.Int64,
	start, deadline time.Time) {
	total := sched.Total()
	for {
		k := next.Add(1) - 1
		if k >= total {
			return
		}
		due := start.Add(sched.TimeOf(k))
		now := time.Now()
		if d := due.Sub(now); d > 0 {
			time.Sleep(d)
			now = time.Now()
		}
		if !deadline.IsZero() && now.After(deadline) {
			return
		}
		lag := now.Sub(due).Nanoseconds()
		if lag < 0 {
			lag = 0
		}
		st.ws.lag.Add(lag)
		if st.lm != nil {
			st.lm.Lag.Observe(lag)
		}
		st.doOp()
	}
}

// Report renders the run in the human-readable form the loadtest
// subcommand prints.
func (r *Result) Report(w io.Writer) {
	fmt.Fprintf(w, "elapsed %v   %d ops (%.0f ops/sec)   workers %d   GOMAXPROCS %d\n",
		r.Elapsed.Round(time.Millisecond), r.Ops, r.Throughput, r.Workers, r.Procs)
	fmt.Fprintf(w, "  lookups %d   places %d   removes %d   errors %d\n",
		r.Lookups, r.Places, r.Removes, r.Errors)
	if r.Offered > 0 {
		fmt.Fprintf(w, "  open loop: %d of %d scheduled arrivals issued\n", r.Ops, r.Offered)
		if r.Lag.N() > 0 {
			fmt.Fprintf(w, "  issue lag: %v\n", r.Lag.String())
		}
	}
	if r.FailedReads > 0 {
		fmt.Fprintf(w, "  failed reads (no live replica, pre-repair): %d\n", r.FailedReads)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f.String())
	}
	if len(r.Failures) > 0 || r.FailedReads > 0 {
		fmt.Fprintf(w, "  lost keys after final repair: %d\n", r.LostKeys)
	}
	if r.Rejections > 0 || r.Shed > 0 || r.Retries > 0 {
		fmt.Fprintf(w, "  overload: %d rejections   %d retries   %d recovered   %d shed\n",
			r.Rejections, r.Retries, r.Recovered, r.Shed)
		good := r.Ops - r.Errors - r.FailedReads
		if r.Elapsed > 0 {
			line := fmt.Sprintf("  goodput: %.0f ops/sec", float64(good)/r.Elapsed.Seconds())
			if r.Offered > 0 {
				line += fmt.Sprintf(" (%.1f%% of %d offered)", 100*float64(good)/float64(r.Offered), r.Offered)
			}
			fmt.Fprintf(w, "%s\n", line)
		}
	}
	if r.Hedges > 0 || r.BreakerOpens > 0 || r.DeadlineMisses > 0 {
		fmt.Fprintf(w, "  hedged reads %d   breaker opens %d   deadline misses %d\n",
			r.Hedges, r.BreakerOpens, r.DeadlineMisses)
	}
	if r.Sojourn.N() > 0 {
		fmt.Fprintf(w, "  sojourn (simulated service): %v\n", r.Sojourn.String())
		if r.MaxBacklog > 0 {
			fmt.Fprintf(w, "  deepest virtual queue at end: %v on %s\n",
				r.MaxBacklog.Round(time.Millisecond), r.WorstQueue)
		}
	}
	if r.MaxRelLoad > 0 && (r.Rejections > 0 || r.Shed > 0) {
		fmt.Fprintf(w, "  max relative load (load/capacity): %.2f\n", r.MaxRelLoad)
	}
	if r.Lookup.N() > 0 {
		fmt.Fprintf(w, "  locate  latency: %v\n", r.Lookup.String())
	}
	if r.Place.N() > 0 {
		fmt.Fprintf(w, "  place   latency: %v\n", r.Place.String())
	}
	if r.Remove.N() > 0 {
		fmt.Fprintf(w, "  remove  latency: %v\n", r.Remove.String())
	}
	if r.ChurnEvents > 0 {
		fmt.Fprintf(w, "  churn: %d membership events, %d keys moved by rebalance\n",
			r.ChurnEvents, r.MovedKeys)
	}
	if r.MeanLoad > 0 {
		fmt.Fprintf(w, "  final: %d keys on %d servers   max load %d (%.2fx mean)\n",
			r.FinalKeys, r.Router.NumServers(), r.MaxLoad, float64(r.MaxLoad)/r.MeanLoad)
	}
}
