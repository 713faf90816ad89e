package loadgen

import (
	"strings"
	"testing"
	"time"
)

func TestRunOpsBound(t *testing.T) {
	res, err := Run(Config{
		Servers: 16, Workers: 4, Ops: 20000, Keys: 1024, LookupFrac: 0.9,
		Dist: "zipf", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 20000 {
		t.Fatalf("ran %d ops, want exactly 20000", res.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("%d op errors", res.Errors)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput recorded")
	}
	if res.Lookups == 0 || res.Places == 0 {
		t.Fatalf("op mix degenerate: %d lookups, %d places", res.Lookups, res.Places)
	}
	if res.Lookup.N() == 0 {
		t.Fatal("no lookup latencies sampled")
	}
	if res.Lookup.Quantile(0.99) < res.Lookup.Quantile(0.5) {
		t.Fatal("latency quantiles not monotone")
	}
	// Preloaded keys plus every worker's net placements must be intact.
	if res.FinalKeys != int(1024+res.Places-res.Removes) {
		t.Fatalf("FinalKeys = %d, want %d", res.FinalKeys, 1024+res.Places-res.Removes)
	}
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatalf("ring inconsistent after run: %v", err)
	}
}

func TestRunWithChurn(t *testing.T) {
	res, err := Run(Config{
		Servers: 8, Workers: 4, Ops: 30000, Keys: 512, LookupFrac: 0.9,
		Dist: "uniform", ChurnEvery: time.Millisecond, Rebalance: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d op errors under churn", res.Errors)
	}
	// The run must survive membership churn and still satisfy every
	// invariant after a final rebalance.
	res.Router.Rebalance()
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatalf("ring inconsistent after churn: %v", err)
	}
	if res.FinalKeys != int(512+res.Places-res.Removes) {
		t.Fatalf("keys lost under churn: %d vs %d", res.FinalKeys, 512+res.Places-res.Removes)
	}
}

func TestRunDurationBound(t *testing.T) {
	res, err := Run(Config{
		Servers: 8, Workers: 2, Duration: 50 * time.Millisecond, Keys: 256, LookupFrac: 0.8,
		Dist: "pareto", Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("duration-bound run did no work")
	}
	if res.Elapsed < 50*time.Millisecond {
		t.Fatalf("run ended after %v, before the deadline", res.Elapsed)
	}
}

func TestRunPureWrite(t *testing.T) {
	// LookupFrac 0 is a valid configuration meaning no Locate traffic
	// at all — it must not be silently replaced by a default.
	res, err := Run(Config{
		Servers: 8, Workers: 2, Ops: 5000, Keys: 64, LookupFrac: 0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookups != 0 {
		t.Fatalf("pure-write run did %d lookups", res.Lookups)
	}
	if res.Places == 0 || res.Removes == 0 {
		t.Fatalf("write mix degenerate: %d places, %d removes", res.Places, res.Removes)
	}
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTorusSpace(t *testing.T) {
	// The same harness drives the torus-backed geographic router, with
	// churned servers joining at random torus coordinates.
	res, err := Run(Config{
		Space: "torus", Dim: 2, Servers: 16, Workers: 4, Ops: 20000, Keys: 1024,
		LookupFrac: 0.9, Dist: "zipf", ChurnEvery: time.Millisecond, Rebalance: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 20000 {
		t.Fatalf("ran %d ops, want exactly 20000", res.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("%d op errors on the torus router", res.Errors)
	}
	if res.Router.Geo == nil {
		t.Fatalf("Router has no geo facade, want the torus router")
	}
	res.Router.Rebalance()
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatalf("geo router inconsistent after churn: %v", err)
	}
	if res.FinalKeys != int(1024+res.Places-res.Removes) {
		t.Fatalf("keys lost: %d vs %d", res.FinalKeys, 1024+res.Places-res.Removes)
	}
}

func TestRunTorusDim3(t *testing.T) {
	res, err := Run(Config{
		Space: "torus", Dim: 3, Servers: 8, Workers: 2, Ops: 4000, Keys: 256,
		LookupFrac: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d op errors", res.Errors)
	}
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReportLoop(t *testing.T) {
	var sb strings.Builder
	res, err := Run(Config{
		Servers: 8, Workers: 2, Duration: 60 * time.Millisecond, Keys: 256,
		LookupFrac: 0.9, Seed: 8, ReportEvery: 10 * time.Millisecond, ReportTo: &sb,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no work done")
	}
	out := sb.String()
	if !strings.Contains(out, "max load") || !strings.Contains(out, "servers") {
		t.Fatalf("interim report missing load lines:\n%s", out)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("missing budget accepted")
	}
	if _, err := Run(Config{Ops: 100, Dist: "nope"}); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := Run(Config{Ops: 100, Space: "klein-bottle"}); err == nil {
		t.Error("unknown space accepted")
	}
	if _, err := Run(Config{Ops: 100, Space: "torus", Replicas: 3}); err == nil {
		t.Error("torus key replicas over the hash-choice count accepted")
	}
	if _, err := Run(Config{Ops: 100, Space: "torus", Replicas: 3, KeyReplicas: 2}); err == nil {
		t.Error("conflicting Replicas/KeyReplicas on the torus accepted")
	}
	if _, err := Run(Config{Ops: 100, Choices: 3, KeyReplicas: 5}); err == nil {
		t.Error("key replicas over MaxReplicas accepted")
	}
	if _, err := Run(Config{Ops: 100, ReportEvery: time.Second}); err == nil {
		t.Error("ReportEvery without ReportTo accepted")
	}
	if _, err := Run(Config{Ops: 100, LookupFrac: 1.5}); err == nil {
		t.Error("lookup fraction > 1 accepted")
	}
}

func TestReport(t *testing.T) {
	res, err := Run(Config{Servers: 8, Workers: 2, Ops: 5000, Keys: 128, LookupFrac: 0.9, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Report(&sb)
	out := sb.String()
	for _, want := range []string{"ops/sec", "lookups", "latency", "max load"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
