package router

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"geobalance/internal/geom"
)

func TestPlanMigrationCompleteAndNonOverlapping(t *testing.T) {
	g := newTestGeo(t, 16, 2, 3, 321)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	const n = 1200
	for i := 0; i < n; i++ {
		if _, _, err := g.PlaceReplicated(fmt.Sprintf("mg-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Strand keys: remove two servers, add one (no rebalance, no repair).
	for _, name := range g.Servers()[:2] {
		if err := g.RemoveServer(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddServer("dc-new", geom.Vec{0.42, 0.87}); err != nil {
		t.Fatal(err)
	}

	p := g.PlanMigration(0)
	if p.Truncated() {
		t.Fatal("unbounded plan reports truncation")
	}
	if p.Len() == 0 {
		t.Fatal("membership change stranded no keys; strengthen the scenario")
	}
	// Non-overlapping: every delta names a distinct key, and no delta is
	// a no-op.
	seen := map[string]bool{}
	for _, d := range p.Moves() {
		if seen[d.Key] {
			t.Fatalf("key %q planned twice", d.Key)
		}
		seen[d.Key] = true
		if len(d.To) == 0 {
			t.Fatalf("delta %v moves key nowhere", d)
		}
	}
	applied, skipped := p.ApplyAll()
	if skipped != 0 {
		t.Fatalf("quiescent apply skipped %d deltas", skipped)
	}
	if applied != p.Len() {
		t.Fatalf("applied %d of %d deltas", applied, p.Len())
	}
	// Complete: after applying, nothing remains to move and every
	// invariant (including replica-set invariants) holds.
	if rest := g.PlanMigration(0); rest.Len() != 0 {
		t.Fatalf("plan incomplete: %d keys still stranded, e.g. %v", rest.Len(), rest.Moves()[0])
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if moved := g.Rebalance(); moved != 0 {
		t.Fatalf("Rebalance moved %d keys after a complete migration", moved)
	}
}

func TestPlanMigrationBounded(t *testing.T) {
	g := newTestGeo(t, 12, 2, 3, 77)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, _, err := g.PlaceReplicated(fmt.Sprintf("bd-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.RemoveServer(g.Servers()[0]); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for {
		p := g.PlanMigration(50)
		if p.Len() > 50 {
			t.Fatalf("bounded plan holds %d deltas", p.Len())
		}
		if p.Len() == 0 {
			break
		}
		p.ApplyAll()
		rounds++
		if !p.Truncated() {
			break
		}
		if rounds > 100 {
			t.Fatal("bounded migration not converging")
		}
	}
	if rounds < 2 {
		t.Fatalf("scenario too small to exercise truncation (%d rounds)", rounds)
	}
	if rest := g.PlanMigration(0); rest.Len() != 0 {
		t.Fatalf("%d keys still stranded after bounded migration", rest.Len())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchSkipsStaleDeltas(t *testing.T) {
	g := newTestGeo(t, 10, 2, 3, 13)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, _, err := g.PlaceReplicated(fmt.Sprintf("st-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.RemoveServer(g.Servers()[0]); err != nil {
		t.Fatal(err)
	}
	p := g.PlanMigration(0)
	if p.Len() == 0 {
		t.Fatal("no stranded keys")
	}
	// A racing Repair fixes every stranded key first: the whole plan is
	// now stale and must be skipped, not misapplied.
	g.Repair()
	applied, skipped := p.ApplyAll()
	if applied != 0 {
		t.Fatalf("stale plan applied %d deltas", applied)
	}
	if skipped != p.Len() {
		t.Fatalf("skipped %d of %d stale deltas", skipped, p.Len())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchRevalidatesAfterMembershipChange(t *testing.T) {
	g := newTestGeo(t, 10, 2, 3, 29)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, _, err := g.PlaceReplicated(fmt.Sprintf("mv-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.RemoveServer(g.Servers()[0]); err != nil {
		t.Fatal(err)
	}
	p := g.PlanMigration(0)
	// A second crash AFTER planning: deltas whose destination died (or
	// no longer matches the new topology) must be skipped.
	if err := g.RemoveServer(g.Servers()[0]); err != nil {
		t.Fatal(err)
	}
	p.ApplyAll()
	// The plan may be partially stale, but nothing it did may violate an
	// invariant; a fresh plan finishes the job.
	if rest := g.PlanMigration(0); rest.Len() > 0 {
		if a, s := rest.ApplyAll(); a+s != rest.Len() {
			t.Fatalf("fresh plan attempted %d of %d deltas", a+s, rest.Len())
		}
	}
	if rest := g.PlanMigration(0); rest.Len() != 0 {
		t.Fatalf("%d keys still stranded", rest.Len())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceMatchesMigration pins Rebalance to the migration engine
// applied at once: on twin routers stranded by the same membership
// change, Rebalance() and PlanMigration(0).ApplyAll() must move the
// same keys to the same records and leave the same loads.
func TestRebalanceMatchesMigration(t *testing.T) {
	for _, rep := range []int{1, 2} {
		for _, drain := range []bool{false, true} {
			t.Run(fmt.Sprintf("R=%d/drain=%v", rep, drain), func(t *testing.T) {
				var twins [2]*Geo
				for i := range twins {
					g := newTestGeo(t, 24, 2, 3, 99)
					if err := g.SetReplication(rep); err != nil {
						t.Fatal(err)
					}
					for k := 0; k < 3000; k++ {
						if _, _, err := g.PlaceReplicated(fmt.Sprintf("rm-%d", k)); err != nil {
							t.Fatal(err)
						}
					}
					for _, name := range g.Servers()[:3] {
						if err := g.RemoveServer(name); err != nil {
							t.Fatal(err)
						}
					}
					if err := g.AddServer("dc-new", geom.Vec{0.31, 0.64}); err != nil {
						t.Fatal(err)
					}
					if drain {
						if err := g.SetDraining(g.Servers()[5], true); err != nil {
							t.Fatal(err)
						}
					}
					twins[i] = g
				}
				reb, mig := twins[0], twins[1]
				moved := reb.Rebalance()
				applied, skipped := mig.PlanMigration(0).ApplyAll()
				t.Logf("%d keys moved", moved)
				if moved == 0 {
					t.Fatal("membership change stranded no keys; strengthen the scenario")
				}
				if moved != applied || skipped != 0 {
					t.Fatalf("Rebalance moved %d keys; migration applied %d, skipped %d", moved, applied, skipped)
				}
				for i := range reb.keys {
					if !reflect.DeepEqual(reb.keys[i].m, mig.keys[i].m) {
						t.Fatalf("key shard %d: records differ after Rebalance vs migration", i)
					}
				}
				if !reflect.DeepEqual(reb.Loads(), mig.Loads()) {
					t.Fatalf("loads differ:\nrebalance %v\nmigration %v", reb.Loads(), mig.Loads())
				}
				if err := reb.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDualReadWindow holds concurrent readers on every key while a
// migration applies in small batches: at no instant may a placed key be
// unlocatable or read from a dead server — before its delta commits the
// old owner answers, afterwards the new one.
func TestDualReadWindow(t *testing.T) {
	g := newTestGeo(t, 14, 2, 3, 1001)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	const n = 1500
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("dw-%d", i)
		if _, _, err := g.PlaceReplicated(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	victim := g.Servers()[0]
	if err := g.SetDraining(victim, true); err != nil {
		t.Fatal(err)
	}
	p := g.PlanMigration(0)
	if p.Len() == 0 {
		t.Fatal("draining stranded no keys")
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i = (i + 7) % n {
				if _, err := g.LocateAny(keys[i]); err != nil {
					errc <- fmt.Errorf("key %q unlocatable mid-migration: %w", keys[i], err)
					return
				}
			}
		}(w)
	}
	for !p.Done() {
		p.ApplyBatch(16)
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if load := g.Loads()[victim]; load != 0 {
		t.Fatalf("draining server still holds %d replicas after migration", load)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzMigrationPlan drives an arbitrary membership-op sequence and then
// asserts the planner's contract: deltas are non-overlapping (one per
// key), applying them all leaves nothing stranded, and every invariant
// holds afterwards.
func FuzzMigrationPlan(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{3, 0, 7, 1, 12, 5})
	f.Add([]byte{9, 9, 4, 255, 16, 2, 31, 64, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		g := newTestGeo(t, 8, 2, 3, 2024)
		if err := g.SetReplication(2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if _, _, err := g.PlaceReplicated(fmt.Sprintf("fz-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		coord := func(b byte, phase float64) float64 {
			return (float64(b) + phase) / 256
		}
		extra := 0
		for i, b := range ops {
			switch b % 4 {
			case 0: // add a fresh server
				name := fmt.Sprintf("fz-srv-%d", extra)
				extra++
				if err := g.AddServer(name, []float64{coord(b, 0.25), coord(byte(i), 0.75)}); err != nil {
					t.Fatal(err)
				}
			case 1: // crash an arbitrary live server (keep at least 2)
				if srv := g.Servers(); len(srv) > 2 {
					if err := g.RemoveServer(srv[int(b/4)%len(srv)]); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // toggle draining
				srv := g.Servers()
				name := srv[int(b/4)%len(srv)]
				if err := g.SetDraining(name, b&0x40 == 0); err != nil {
					t.Fatal(err)
				}
			case 3: // change the replication factor (1..3, d=3)
				if err := g.SetReplication(1 + int(b/4)%3); err != nil {
					t.Fatal(err)
				}
			}
		}
		p := g.PlanMigration(0)
		seen := make(map[string]bool, p.Len())
		for _, d := range p.Moves() {
			if seen[d.Key] {
				t.Fatalf("key %q planned twice", d.Key)
			}
			seen[d.Key] = true
			if len(d.To) == 0 {
				t.Fatalf("delta %v moves key nowhere", d)
			}
		}
		applied, skipped := p.ApplyAll()
		if skipped != 0 {
			t.Fatalf("quiescent apply skipped %d deltas", skipped)
		}
		if applied != p.Len() {
			t.Fatalf("applied %d of %d", applied, p.Len())
		}
		if rest := g.PlanMigration(0); rest.Len() != 0 {
			t.Fatalf("plan incomplete: %d keys still stranded after ops %v", rest.Len(), ops)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("after ops %v: %v", ops, err)
		}
	})
}
