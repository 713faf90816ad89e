package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geobalance/internal/metrics"
	"geobalance/internal/router"
)

func writeBaseline(t *testing.T, rep report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGate(t *testing.T) {
	base := writeBaseline(t, report{Schema: 2, Results: []result{
		{Name: "fine", NsPerBall: 100},
		{Name: "slow", NsPerBall: 100},
		{Name: "allocs", NsPerBall: 100, AllocsPerOp: 0},
		{Name: "throughput", OpsPerSec: 1000},
		{Name: "gone", NsPerBall: 1},
	}})
	fresh := []result{
		{Name: "fine", NsPerBall: 124},                   // within 25% tolerance
		{Name: "slow", NsPerBall: 130},                   // ns/ball regression
		{Name: "allocs", NsPerBall: 100, AllocsPerOp: 1}, // zero-alloc baseline: any alloc fails
		{Name: "throughput", OpsPerSec: 700},             // ops/sec regression
		{Name: "brand-new", NsPerBall: 5},                // no baseline: note only
	}
	n, err := compare(base, 0.25, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("compare found %d regressions, want 3 (slow, allocs, throughput)", n)
	}
}

func TestCompareGateClean(t *testing.T) {
	base := writeBaseline(t, report{Schema: 2, Results: []result{
		{Name: "a", NsPerBall: 100, AllocsPerOp: 2, OpsPerSec: 1000},
	}})
	fresh := []result{
		// Faster, fewer allocs, more throughput: all improvements.
		{Name: "a", NsPerBall: 50, AllocsPerOp: 1, OpsPerSec: 2000},
	}
	n, err := compare(base, 0.25, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("clean run flagged %d regressions", n)
	}
}

func TestCompareGateErrors(t *testing.T) {
	if _, err := compare(filepath.Join(t.TempDir(), "missing.json"), 0.25, nil); err == nil {
		t.Error("missing baseline accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compare(bad, 0.25, nil); err == nil {
		t.Error("malformed baseline accepted")
	}
}

// TestGeoParallelRecordsBackToBack runs the procs=1 and procs=2 geo
// parallel records back to back on one small router, the sequence
// collect runs on a multi-core host. The second place record must not
// reuse a key the first left placed.
func TestGeoParallelRecordsBackToBack(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "200x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", old) })
	geo, keys, err := newBenchGeo(16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := geoParallelRecords(geo, keys, "servers=16/dim=2", 2)
	if len(recs) != 4 {
		t.Fatalf("%d records, want 4", len(recs))
	}
	for _, r := range recs {
		if !(r.OpsPerSec > 0) || math.IsNaN(r.NsPerOp) {
			t.Errorf("%s: no completed run (ns/op %v, ops/s %v)", r.Name, r.NsPerOp, r.OpsPerSec)
		}
	}
	if err := geo.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// geoParallelRecords runs the geo parallel cases on their own, in table
// order. A failed run comes back as no records.
func geoParallelRecords(geo *router.Geo, keys []string, label string, nprocs int) []result {
	recs, _ := measure(geoParallel(geo.Router, keys, label, nprocs))
	return recs
}

// oneIteration runs every testing.Benchmark body of the test at b.N=1.
func oneIteration(t *testing.T) {
	t.Helper()
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", old) })
}

// TestEveryCaseRuns runs each non-loadgen case of the suite once, so a
// broken case fails here and not only in the benchmark job.
func TestEveryCaseRuns(t *testing.T) {
	oneIteration(t)
	cs, err := cases(t.TempDir(), metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(cs))
	for _, c := range cs {
		if seen[c.name] {
			t.Errorf("case name %s is not unique", c.name)
		}
		seen[c.name] = true
		if c.load != nil {
			continue
		}
		r, err := runOnce(c)
		if err != nil {
			t.Error(err)
			continue
		}
		if _, err := json.Marshal(r); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestInstrumentedRouterIsolated pins that the metrics hook on the
// instrumented case's router does not ride along into the bounded and
// journaled cases, whose records are deltas against the hook-free
// router_geo_place.
func TestInstrumentedRouterIsolated(t *testing.T) {
	oneIteration(t)
	reg := metrics.NewRegistry()
	cs, err := cases(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	places := reg.Counter("router_places_total", "keys placed")
	locates := reg.Counter("router_locates_total", "lookups served (Locate and LocateAny)")
	ran := 0
	for _, c := range cs {
		switch {
		case strings.HasPrefix(c.name, "router_geo_locate_instrumented/"):
			before := locates.Value()
			if _, err := runOnce(c); err != nil {
				t.Fatal(err)
			}
			if locates.Value() == before {
				t.Errorf("%s: router_locates_total did not move; the registry is not the instrumented router's", c.name)
			}
		case strings.HasPrefix(c.name, "router_place_bounded/"), strings.HasPrefix(c.name, "router_place_journaled/"):
			ran++
			before := places.Value()
			if _, err := runOnce(c); err != nil {
				t.Fatal(err)
			}
			if got := places.Value(); got != before {
				t.Errorf("%s: router_places_total moved %d -> %d; the metrics hook leaked into it", c.name, before, got)
			}
		}
	}
	if ran != 2 {
		t.Fatalf("ran %d of the bounded and journaled cases, want 2", ran)
	}
}
