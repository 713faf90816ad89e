package router

import (
	"errors"
	"fmt"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/journal"
)

// churnGeo drives every journaled mutation kind against g: replicated
// and plain placements, removals, capacity changes, draining, a server
// death with repair, rebalancing, and bounded-load toggling. Returns
// the set of keys that should survive.
func churnGeo(t *testing.T, g *Geo) map[string]bool {
	t.Helper()
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	live := make(map[string]bool)
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if _, _, err := g.PlaceReplicated(k); err != nil {
			t.Fatal(err)
		}
		live[k] = true
	}
	for i := 0; i < 120; i += 5 {
		k := fmt.Sprintf("key-%03d", i)
		if err := g.Remove(k); err != nil {
			t.Fatal(err)
		}
		delete(live, k)
	}
	if err := g.SetCapacity("srv-1", 3.5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetDraining("srv-2", true); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveServer("srv-3"); err != nil {
		t.Fatal(err)
	}
	if _, lost := g.Repair(); lost != 0 {
		t.Fatalf("repair lost %d keys", lost)
	}
	g.Rebalance()
	if err := g.SetBoundedLoad(8); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 220; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if _, _, err := g.PlaceReplicated(k); err != nil {
			t.Fatal(err)
		}
		live[k] = true
	}
	return live
}

// assertGeoEqual asserts that b is state-for-state identical to a:
// membership, locations, loads, policy knobs, and the owner set of
// every surviving key.
func assertGeoEqual(t *testing.T, a, b *Geo, keys map[string]bool) {
	t.Helper()
	if got, want := b.NumKeys(), a.NumKeys(); got != want {
		t.Fatalf("NumKeys = %d, want %d", got, want)
	}
	if got, want := fmt.Sprint(b.Servers()), fmt.Sprint(a.Servers()); got != want {
		t.Fatalf("Servers = %s, want %s", got, want)
	}
	if got, want := b.Replication(), a.Replication(); got != want {
		t.Fatalf("Replication = %d, want %d", got, want)
	}
	if got, want := b.BoundedLoad(), a.BoundedLoad(); got != want {
		t.Fatalf("BoundedLoad = %v, want %v", got, want)
	}
	if got, want := fmt.Sprint(b.Loads()), fmt.Sprint(a.Loads()); got != want {
		t.Fatalf("Loads = %s, want %s", got, want)
	}
	for _, name := range a.Servers() {
		wa, _ := a.Location(name)
		wb, ok := b.Location(name)
		if !ok || fmt.Sprint(wa) != fmt.Sprint(wb) {
			t.Fatalf("Location(%s) = %v ok=%v, want %v", name, wb, ok, wa)
		}
	}
	var oa, ob []string
	for k := range keys {
		var err error
		if oa, err = a.Owners(k, oa[:0]); err != nil {
			t.Fatalf("original Owners(%s): %v", k, err)
		}
		if ob, err = b.Owners(k, ob[:0]); err != nil {
			t.Fatalf("recovered Owners(%s): %v", k, err)
		}
		if fmt.Sprint(oa) != fmt.Sprint(ob) {
			t.Fatalf("Owners(%s) = %v, want %v", k, ob, oa)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("recovered invariants: %v", err)
	}
}

// TestGeoJournalRecoveryRoundTrip runs the full mutation mix against a
// journaled torus router, recovers from the journal, and asserts the
// recovered router is state-for-state identical — then appends through
// the recovered journal and recovers once more to prove the log stays
// writable across generations.
func TestGeoJournalRecoveryRoundTrip(t *testing.T) {
	g := newTestGeo(t, 12, 2, 3, 7)
	// newTestGeo names servers s0..; rename via fresh build instead: add
	// the churn targets explicitly so churnGeo's names exist.
	for i := 0; i < 4; i++ {
		if err := g.AddServerWithCapacity(fmt.Sprintf("srv-%d", i), geom.Vec{0.1 * float64(i+1), 0.2}, 1+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	lg, err := g.StartJournal(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := churnGeo(t, g)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	g2, rec, err := RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Header.Kind != "geo" || rec.Header.Dim != 2 || rec.Header.D != 3 {
		t.Fatalf("recovered header = %+v", rec.Header)
	}
	if rec.WALRecords == 0 {
		t.Fatal("expected WAL records from churn")
	}
	assertGeoEqual(t, g, g2, keys)

	// Generation 2: the recovered journal must accept appends.
	if _, _, err := g2.PlaceReplicated("gen2-key"); err != nil {
		t.Fatal(err)
	}
	if err := g2.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	g3, _, err := RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g3.Locate("gen2-key"); err != nil {
		t.Fatalf("gen2 key lost across second recovery: %v", err)
	}
	keys["gen2-key"] = true
	assertGeoEqual(t, g2, g3, keys)
}

// TestGeoJournalCompaction compacts mid-churn and asserts recovery
// equality plus the physical effect: the WAL shrinks to its magic and
// pre-compaction records are absorbed into the snapshot.
func TestGeoJournalCompaction(t *testing.T) {
	g := newTestGeo(t, 8, 2, 3, 11)
	for i := 0; i < 4; i++ {
		if err := g.AddServerWithCapacity(fmt.Sprintf("srv-%d", i), geom.Vec{0.3, 0.1 * float64(i+1)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	lg, err := g.StartJournal(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := churnGeo(t, g)
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	before := lg.WALSize()
	if err := g.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	if lg.WALSize() >= before {
		t.Fatalf("WAL did not shrink: %d -> %d", before, lg.WALSize())
	}
	// Post-compaction mutations land in the fresh WAL.
	if _, _, err := g.PlaceReplicated("post-compact"); err != nil {
		t.Fatal(err)
	}
	keys["post-compact"] = true
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	g2, rec, err := RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLSN == 0 {
		t.Fatal("expected a compacted snapshot LSN")
	}
	assertGeoEqual(t, g, g2, keys)
}

// TestJournalMembershipOrdering pins the write-ahead ordering contract:
// a membership change appends before any placement routed against the
// new topology, so replay never sees a key pointing at a slot the log
// hasn't introduced yet.
func TestJournalMembershipOrdering(t *testing.T) {
	g := newTestGeo(t, 4, 2, 2, 13)
	dir := t.TempDir()
	lg, err := g.StartJournal(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddServer("late", geom.Vec{0.9, 0.9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := g.Place(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.ScanWAL(lg.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Entry.Op != journal.OpAddServer || recs[0].Entry.Name != "late" {
		t.Fatalf("first WAL record = %+v, want the AddServer(late) membership append", recs[0].Entry)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Entry.Op == journal.OpAddServer {
			t.Fatalf("unexpected extra membership record at %d", i)
		}
	}
}

// TestJournalOffPlaceAllocs guards the durability-off fast path: with
// no journal attached the added hook is one atomic nil-check, and the
// steady-state Place/Remove cycle must stay allocation-free.
func TestJournalOffPlaceAllocs(t *testing.T) {
	g := newTestGeo(t, 16, 2, 3, 17)
	if _, err := g.Place("cycle"); err != nil {
		t.Fatal(err)
	}
	if err := g.Remove("cycle"); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(2000, func() {
		if _, err := g.Place("cycle"); err != nil {
			t.Fatal(err)
		}
		if err := g.Remove("cycle"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("journal-off Place/Remove cycle allocates %v per run; want 0", got)
	}
}

// TestRecoverGeoRejectsRingJournal pins the kind check.
func TestRecoverGeoRejectsRingJournal(t *testing.T) {
	dir := t.TempDir()
	lg, err := journal.Create(dir, journal.Header{Kind: "ring", D: 2, Replicas: 1}, nil, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverGeo(dir, journal.Options{}); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

// TestJournalDeadRejectsEveryMutation extends the batch path's
// dead-journal check to every other key-record writer: once the log is
// closed, scalar writes fail with an error wrapping journal.ErrClosed,
// and the background passes (Rebalance, Repair, migration apply) move
// nothing, so no state change outruns its journal.
func TestJournalDeadRejectsEveryMutation(t *testing.T) {
	g := newTestGeo(t, 16, 2, 3, 61)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, _, err := g.PlaceReplicated(fmt.Sprintf("dj-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	lg, err := g.StartJournal(t.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Strand keys: the new server captures part of the torus.
	if err := g.AddServer("dc-new", geom.Vec{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	p := g.PlanMigration(0)
	if p.Len() == 0 {
		t.Fatal("AddServer stranded no keys; strengthen the scenario")
	}
	wantLoads, wantKeys := fmt.Sprint(g.Loads()), g.NumKeys()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := g.Place("dj-fresh"); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("Place past a closed journal: %v, want ErrClosed", err)
	}
	if err := g.Remove("dj-0"); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("Remove past a closed journal: %v, want ErrClosed", err)
	}
	if moved := g.Rebalance(); moved != 0 {
		t.Fatalf("Rebalance moved %d keys past a closed journal", moved)
	}
	if repaired, lost := g.Repair(); repaired != 0 || lost != 0 {
		t.Fatalf("Repair moved %d keys (%d lost) past a closed journal", repaired, lost)
	}
	if applied, skipped := p.ApplyAll(); applied != 0 || skipped != p.Len() {
		t.Fatalf("ApplyAll past a closed journal: applied %d, skipped %d of %d", applied, skipped, p.Len())
	}
	if got := fmt.Sprint(g.Loads()); got != wantLoads {
		t.Fatalf("loads changed past a closed journal:\nbefore %s\nafter  %s", wantLoads, got)
	}
	if g.NumKeys() != wantKeys {
		t.Fatalf("NumKeys = %d past a closed journal, want %d", g.NumKeys(), wantKeys)
	}
}

// TestReplayKeyOpCorruption pins restore's presence rule: replaying a
// placement of a present key, or an update or removal of an absent
// one, fails with an error wrapping journal.ErrCorrupt and leaves the
// router's records and loads as they were.
func TestReplayKeyOpCorruption(t *testing.T) {
	g := newTestGeo(t, 8, 2, 2, 3)
	if _, err := g.Place("here"); err != nil {
		t.Fatal(err)
	}
	var rec journal.Rec
	rec.N, rec.Slots[0] = 1, 0
	for _, e := range []journal.Entry{
		{Op: journal.OpPlace, Name: "here", Rec: rec},
		{Op: journal.OpUpdateRec, Name: "absent", Rec: rec},
		{Op: journal.OpRemoveKey, Name: "absent"},
	} {
		wantLoads := fmt.Sprint(g.Loads())
		err := g.Replay([]journal.Entry{e}, nil, nil)
		if !errors.Is(err, journal.ErrCorrupt) {
			t.Fatalf("replaying %v of %q: %v, want ErrCorrupt", e.Op, e.Name, err)
		}
		if g.NumKeys() != 1 || fmt.Sprint(g.Loads()) != wantLoads {
			t.Fatalf("rejected %v of %q changed state: %d keys, loads %v", e.Op, e.Name, g.NumKeys(), g.Loads())
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
