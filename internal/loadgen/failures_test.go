package loadgen

import (
	"strings"
	"testing"
	"time"
)

func TestParseFailureScript(t *testing.T) {
	script, err := ParseFailureScript("crash@100ms:0.1, zone@250ms:0.3,leave@400ms")
	if err != nil {
		t.Fatal(err)
	}
	want := FailureScript{
		{After: 100 * time.Millisecond, Kind: FailCrash, Frac: 0.1},
		{After: 250 * time.Millisecond, Kind: FailZone, Frac: 0.3},
		{After: 400 * time.Millisecond, Kind: FailLeave, Frac: 0.1}, // default fraction
	}
	if len(script) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(script), len(want))
	}
	for i := range want {
		if script[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, script[i], want[i])
		}
	}
	if s, err := ParseFailureScript("  "); err != nil || s != nil {
		t.Errorf("blank script = %v, %v; want nil, nil", s, err)
	}
	for _, bad := range []string{
		"crash",            // no offset
		"meteor@100ms",     // unknown kind
		"crash@later",      // bad duration
		"crash@100ms:x",    // bad fraction
		"crash@100ms:0",    // zero fraction
		"crash@100ms:1.5",  // fraction over 1
		"crash@-100ms:0.1", // negative offset
	} {
		if _, err := ParseFailureScript(bad); err == nil {
			t.Errorf("script %q accepted", bad)
		}
	}
}

// TestTorusReplicasLifted: Replicas on the torus is now the key
// replication factor (PR 5 rejected it outright).
func TestTorusReplicasLifted(t *testing.T) {
	res, err := Run(Config{
		Space: "torus", Servers: 16, Choices: 3, Replicas: 3, Workers: 4,
		Ops: 10000, Keys: 512, LookupFrac: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d op errors", res.Errors)
	}
	if got := res.Router.Geo.Replication(); got != 3 {
		t.Fatalf("router replication = %d, want 3", got)
	}
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverTorus is the acceptance scenario: a scripted crash,
// a torus zone outage, and a graceful leave all land mid-run on a
// replicated fleet under Zipf traffic; the run must finish with zero
// harness errors and zero lost keys after repair converges.
func TestFailoverTorus(t *testing.T) {
	res, err := Run(Config{
		Space: "torus", Dim: 2, Servers: 30, Choices: 3, KeyReplicas: 2,
		Workers: 4, Duration: 400 * time.Millisecond, Keys: 1 << 10,
		LookupFrac: 0.8, Dist: "zipf", Seed: 12,
		Failures: FailureScript{
			{After: 50 * time.Millisecond, Kind: FailCrash, Frac: 0.1},
			{After: 150 * time.Millisecond, Kind: FailZone, Frac: 0.25},
			{After: 250 * time.Millisecond, Kind: FailLeave, Frac: 0.1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d harness errors during failures", res.Errors)
	}
	if res.LostKeys != 0 {
		t.Fatalf("%d keys lost after repair", res.LostKeys)
	}
	if len(res.Failures) != 3 {
		t.Fatalf("fired %d of 3 events: %+v", len(res.Failures), res.Failures)
	}
	killed := 0
	for _, f := range res.Failures {
		killed += len(f.Killed)
	}
	if killed == 0 {
		t.Fatal("failure script killed nobody; the scenario exercised nothing")
	}
	if res.Failures[0].Kind != FailCrash || len(res.Failures[0].Killed) != 3 {
		t.Fatalf("crash event killed %d servers, want ceil(30/10)=3: %+v",
			len(res.Failures[0].Killed), res.Failures[0])
	}
	// A graceful leave must not lose replicas: whatever it killed was
	// migrated away first.
	leave := res.Failures[2]
	if leave.Kind != FailLeave {
		t.Fatalf("events fired out of order: %+v", res.Failures)
	}
	if len(leave.Killed) > 0 && leave.Moved == 0 {
		t.Errorf("leave removed %d servers without migrating anything", len(leave.Killed))
	}
	// Quiescent repair already ran inside Run; the fleet must be fully
	// consistent again.
	res.Router.Repair()
	res.Router.Rebalance()
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatalf("fleet inconsistent after failures: %v", err)
	}
	var sb strings.Builder
	res.Report(&sb)
	if out := sb.String(); !strings.Contains(out, "failure:") || !strings.Contains(out, "lost keys after final repair: 0") {
		t.Errorf("report missing failure lines:\n%s", out)
	}
}

// TestFailoverRing drives the same failure machinery through the
// ring-backed facade.
func TestFailoverRing(t *testing.T) {
	res, err := Run(Config{
		Space: "ring", Servers: 20, Choices: 3, KeyReplicas: 2,
		Workers: 4, Duration: 250 * time.Millisecond, Keys: 1 << 9,
		LookupFrac: 0.8, Dist: "zipf", Seed: 13,
		Failures: FailureScript{
			{After: 40 * time.Millisecond, Kind: FailCrash, Frac: 0.1},
			{After: 120 * time.Millisecond, Kind: FailZone, Frac: 0.2}, // degrades to a crash on the ring
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d harness errors", res.Errors)
	}
	if res.LostKeys != 0 {
		t.Fatalf("%d keys lost after repair", res.LostKeys)
	}
	if len(res.Failures) != 2 {
		t.Fatalf("fired %d of 2 events", len(res.Failures))
	}
	res.Router.Repair()
	res.Router.Rebalance()
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatalf("ring inconsistent after failures: %v", err)
	}
}

// TestFailoverWithChurn piles the membership churner on top of the
// failure script — the worst case the CI race job runs.
func TestFailoverWithChurn(t *testing.T) {
	res, err := Run(Config{
		Space: "torus", Dim: 2, Servers: 20, Choices: 3, KeyReplicas: 2,
		Workers: 4, Duration: 300 * time.Millisecond, Keys: 1 << 9,
		LookupFrac: 0.8, Dist: "zipf", Seed: 14,
		ChurnEvery: 20 * time.Millisecond, Rebalance: true,
		Failures: FailureScript{
			{After: 60 * time.Millisecond, Kind: FailCrash, Frac: 0.1},
			{After: 180 * time.Millisecond, Kind: FailZone, Frac: 0.2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d harness errors", res.Errors)
	}
	if res.LostKeys != 0 {
		t.Fatalf("%d keys lost", res.LostKeys)
	}
	res.Router.Repair()
	res.Router.Rebalance()
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatalf("fleet inconsistent after churn + failures: %v", err)
	}
}
