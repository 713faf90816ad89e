// Batch-mode harness tests: the bulk serving path under the same
// accounting contracts the scalar drivers pin — op budgets, open-loop
// offered/shed conservation, and kill recovery.
package loadgen

import (
	"fmt"
	"testing"
	"time"

	"geobalance/internal/metrics"
)

// TestBatchRunTorus: a closed-loop batched run on the dim-3 torus
// spends exactly its op budget through the bulk calls and leaves the
// router consistent.
func TestBatchRunTorus(t *testing.T) {
	res, err := Run(Config{
		Space: "torus", Dim: 3, Servers: 32, Choices: 2, Workers: 4,
		Ops: 20000, Keys: 1 << 9, LookupFrac: 0.7, Seed: 7, Batch: 32,
		Registry: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 20000 {
		t.Fatalf("ops = %d, want the full 20000 budget", res.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("%d harness errors", res.Errors)
	}
	if res.Lookups == 0 || res.Places == 0 || res.Removes == 0 {
		t.Fatalf("op mix collapsed: %d lookups, %d places, %d removes",
			res.Lookups, res.Places, res.Removes)
	}
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchOpenLoopShedAccounting is TestOpenLoopShedAccounting's
// batch twin: a batch claims Batch arrival slots at once, every
// claimed slot records its own issue lag, and each ends as exactly one
// completed op or one shed — ops + shed == offered must survive the
// block claiming.
func TestBatchOpenLoopShedAccounting(t *testing.T) {
	sched, err := ConstantRate(20000, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Space: "torus", Dim: 2, Servers: 16, Choices: 2, Workers: 4,
		Keys: 1 << 9, LookupFrac: 0.2, Seed: 31, Arrivals: sched, Batch: 16,
		BoundedLoad: 1.1, Retries: 1, RetryBase: 200 * time.Microsecond,
		RetryCap: time.Millisecond,
		Failures: FailureScript{
			{After: 50 * time.Millisecond, Kind: FailCascade, Frac: 0.3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops+res.Shed != res.Offered {
		t.Fatalf("arrivals leak: ops %d + shed %d != offered %d", res.Ops, res.Shed, res.Offered)
	}
	if got := res.Lag.N(); got != res.Offered {
		t.Fatalf("lag samples %d != offered %d: a claimed slot skipped its lag record", got, res.Offered)
	}
	if res.LostKeys != 0 {
		t.Fatalf("%d keys lost", res.LostKeys)
	}
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchKillRecovery drives the kill lab through the bulk write
// path: batched placements are group-committed write-ahead, so a
// mid-run crash plus journal recovery must still lose zero keys.
func TestBatchKillRecovery(t *testing.T) {
	// Batch 32 is the size the CI race loadtests run.
	for _, tc := range []struct{ dim, batch int }{{3, 16}, {2, 32}} {
		t.Run(fmt.Sprintf("dim=%d/batch=%d", tc.dim, tc.batch), func(t *testing.T) {
			res, err := Run(Config{
				Space: "torus", Dim: tc.dim, Servers: 24, Choices: 3, KeyReplicas: 2,
				Workers: 4, Duration: 400 * time.Millisecond, Keys: 1 << 9,
				LookupFrac: 0.7, Dist: "zipf", Seed: 21, Batch: tc.batch,
				JournalDir: t.TempDir(), Registry: metrics.NewRegistry(),
				Failures: FailureScript{
					{After: 60 * time.Millisecond, Kind: FailCrash, Frac: 0.1},
					{After: 180 * time.Millisecond, Kind: FailKill},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d harness errors across the kill", res.Errors)
			}
			if res.LostKeys != 0 {
				t.Fatalf("%d keys lost after recovery", res.LostKeys)
			}
			kill := res.Failures[1]
			if kill.Kind != FailKill || kill.Err != "" || kill.Replayed == 0 {
				t.Fatalf("kill outcome: %+v", kill)
			}
			res.Router.Repair()
			res.Router.Rebalance()
			if err := res.Router.CheckInvariants(); err != nil {
				t.Fatalf("recovered fleet inconsistent: %v", err)
			}
		})
	}
}
