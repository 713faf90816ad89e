package router

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// checkGeoSnapshot asserts the structural invariants every published
// geo snapshot must satisfy regardless of when a reader loads it:
// coherent slot tables and a torus index + site<->slot bijection
// matching the live set. Readers racing membership churn call this on
// freshly loaded snapshots to prove no half-applied change — and no
// half-spliced torus index — is ever visible.
func checkGeoSnapshot(s *Snapshot) error {
	if len(s.Names) != len(s.Caps) || len(s.Names) != len(s.Dead) ||
		len(s.Names) != len(s.Loads) {
		return fmt.Errorf("slot tables disagree: %d names, %d caps, %d dead, %d loads",
			len(s.Names), len(s.Caps), len(s.Dead), len(s.Loads))
	}
	live := 0
	for _, d := range s.Dead {
		if !d {
			live++
		}
	}
	if live != s.Live {
		return fmt.Errorf("live = %d, dead table says %d", s.Live, live)
	}
	if s.Live == 0 {
		if s.Topo != nil {
			return fmt.Errorf("empty router with a topology")
		}
		return nil
	}
	topo, ok := s.Topo.(*geoTopo)
	if !ok {
		return fmt.Errorf("snapshot topology is %T", s.Topo)
	}
	return topo.CheckTopology(s.Names, s.Dead, s.Live)
}

// TestGeoSnapshotConsistencyUnderChurn races membership churn (each
// event an incremental WithSite/WithoutSite torus snapshot) against
// readers that validate every snapshot they load and resolve lookups
// against it. Run under -race this also proves the copy-on-write path
// publishes only fully built topologies.
func TestGeoSnapshotConsistencyUnderChurn(t *testing.T) {
	g := newTestGeo(t, 16, 2, 2, 21)
	var stop atomic.Bool
	var readers, churn sync.WaitGroup
	errc := make(chan error, 16)

	churn.Add(1)
	go func() {
		defer churn.Done()
		cr := rng.New(99)
		at := make(geom.Vec, 2)
		for i := 0; !stop.Load(); i++ {
			name := fmt.Sprintf("churn-%d", i%8)
			at[0], at[1] = cr.Float64(), cr.Float64()
			if err := g.AddServer(name, at); err != nil {
				errc <- err
				return
			}
			if i%4 == 0 {
				g.Rebalance()
			}
			if err := g.RemoveServer(name); err != nil {
				errc <- err
				return
			}
			if i%16 == 15 {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	nReaders := runtime.GOMAXPROCS(0) + 2
	for w := 0; w < nReaders; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			rr := rng.NewStream(98, uint64(w))
			for i := 0; i < 1500; i++ {
				snap := g.Snapshot()
				if err := checkGeoSnapshot(snap); err != nil {
					errc <- fmt.Errorf("reader %d iter %d: %w", w, i, err)
					return
				}
				// Resolve a lookup wholly against this snapshot: the d
				// candidates must all be live in it.
				key := fmt.Sprintf("key-%d", rr.Intn(4096))
				for j := 0; j < snap.D; j++ {
					s := snap.Topo.Resolve(Hash('k', j, key))
					if snap.Dead[s] {
						errc <- fmt.Errorf("reader %d: candidate on dead server", w)
						return
					}
				}
			}
		}(w)
	}
	readers.Wait()
	stop.Store(true)
	churn.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestGeoConcurrentTrafficWithChurn races Place/Locate/Remove traffic
// from many goroutines against membership churn, then checks global
// invariants after a final Rebalance — the torus mirror of hashring's
// TestConcurrentTrafficWithChurn.
func TestGeoConcurrentTrafficWithChurn(t *testing.T) {
	g := newTestGeo(t, 8, 2, 2, 22)
	workers := runtime.GOMAXPROCS(0) + 3
	const opsPerWorker = 1200
	var traffic, churn sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, workers+1)

	churn.Add(1)
	go func() { // churner: paced so it doesn't starve the traffic goroutines
		defer churn.Done()
		cr := rng.New(77)
		at := make(geom.Vec, 2)
		for i := 0; !stop.Load(); i++ {
			name := fmt.Sprintf("flaky-%d", i%4)
			at[0], at[1] = cr.Float64(), cr.Float64()
			if err := g.AddServer(name, at); err != nil {
				errc <- err
				return
			}
			g.Rebalance()
			if err := g.RemoveServer(name); err != nil {
				errc <- err
				return
			}
			g.Rebalance()
			time.Sleep(500 * time.Microsecond)
		}
	}()

	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			rr := rng.NewStream(17, uint64(w))
			placed := make([]string, 0, opsPerWorker)
			for i := 0; i < opsPerWorker; i++ {
				switch rr.Intn(3) {
				case 0:
					key := fmt.Sprintf("w%d-k%d", w, i)
					if _, err := g.Place(key); err != nil {
						errc <- err
						return
					}
					placed = append(placed, key)
				case 1:
					if len(placed) > 0 {
						key := placed[rr.Intn(len(placed))]
						if _, err := g.Locate(key); err != nil {
							errc <- fmt.Errorf("lost key %q: %w", key, err)
							return
						}
					}
				case 2:
					if len(placed) > 0 {
						key := placed[len(placed)-1]
						placed = placed[:len(placed)-1]
						if err := g.Remove(key); err != nil {
							errc <- err
							return
						}
					}
				}
			}
			for _, key := range placed { // everything we kept must resolve
				if _, err := g.Locate(key); err != nil {
					errc <- fmt.Errorf("lost key %q: %w", key, err)
					return
				}
			}
		}(w)
	}

	traffic.Wait()
	stop.Store(true)
	churn.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	g.Rebalance()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after concurrent churn: %v", err)
	}
}

// TestGeoRebalanceRacingTraffic hammers Rebalance back to back against
// live traffic (see hashring's TestRebalanceRacingTraffic for the
// rationale); runs under the CI -race job.
func TestGeoRebalanceRacingTraffic(t *testing.T) {
	g := newTestGeo(t, 12, 2, 2, 23)
	workers := runtime.GOMAXPROCS(0) + 2
	const opsPerWorker = 1000
	var traffic, balancer sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, workers+1)

	balancer.Add(1)
	go func() {
		defer balancer.Done()
		cr := rng.New(55)
		at := make(geom.Vec, 2)
		for i := 0; !stop.Load(); i++ {
			if i%8 == 0 {
				name := fmt.Sprintf("flap-%d", i%3)
				at[0], at[1] = cr.Float64(), cr.Float64()
				if err := g.AddServer(name, at); err != nil {
					errc <- err
					return
				}
				g.Rebalance()
				if err := g.RemoveServer(name); err != nil {
					errc <- err
					return
				}
			}
			g.Rebalance()
		}
	}()

	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			rr := rng.NewStream(33, uint64(w))
			placed := make([]string, 0, opsPerWorker)
			for i := 0; i < opsPerWorker; i++ {
				switch rr.Intn(4) {
				case 0, 1:
					key := fmt.Sprintf("rb-w%d-k%d", w, i)
					if _, err := g.Place(key); err != nil {
						errc <- err
						return
					}
					placed = append(placed, key)
				case 2:
					if len(placed) > 0 {
						key := placed[rr.Intn(len(placed))]
						if _, err := g.Locate(key); err != nil {
							errc <- fmt.Errorf("key %q lost mid-rebalance: %w", key, err)
							return
						}
					}
				case 3:
					if len(placed) > 0 {
						key := placed[len(placed)-1]
						placed = placed[:len(placed)-1]
						if err := g.Remove(key); err != nil {
							errc <- err
							return
						}
					}
				}
			}
			for _, key := range placed {
				if _, err := g.Locate(key); err != nil {
					errc <- fmt.Errorf("retained key %q lost: %w", key, err)
					return
				}
			}
		}(w)
	}

	traffic.Wait()
	stop.Store(true)
	balancer.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	g.Rebalance()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after racing rebalance: %v", err)
	}
}

// TestGeoConcurrentPlaceDistinctKeys checks that racing placements
// neither lose nor double-count keys on the torus router.
func TestGeoConcurrentPlaceDistinctKeys(t *testing.T) {
	g := newTestGeo(t, 32, 2, 2, 24)
	workers := 8
	const perWorker = 800
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := g.Place(fmt.Sprintf("w%d-%d", w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if g.NumKeys() != workers*perWorker {
		t.Fatalf("NumKeys = %d, want %d", g.NumKeys(), workers*perWorker)
	}
	var total int64
	for _, l := range g.Loads() {
		total += l
	}
	if total != int64(workers*perWorker) {
		t.Fatalf("loads sum to %d, want %d", total, workers*perWorker)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGeoLocateParallel measures concurrent torus-router lookup
// throughput (the benchjson router_geo_locate parallel record's
// in-package twin).
func BenchmarkGeoLocateParallel(b *testing.B) {
	g := newTestGeo(b, 1024, 2, 2, 25)
	keys := make([]string, 1<<12)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d", i)
		if _, err := g.Place(keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := g.Locate(keys[i&(len(keys)-1)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
