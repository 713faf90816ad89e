// Metrics watch: the observability layer end to end — an instrumented
// torus fleet under an open-loop flash crowd, a mid-run zone outage,
// and the three ways to read what happened: the live instrument
// objects, a terminal heatmap of the post-outage load map, and a
// Prometheus text scrape. Everything here is the same machinery behind
// `geobalance loadtest -arrivals ... -watch -metrics prom`; this
// example wires it up in code, where the pieces are visible.
//
// Run it with:
//
//	go run ./examples/metrics-watch
//
// For the live refreshing view of the same scenario, use the CLI:
//
//	go run ./cmd/geobalance loadtest -space torus -servers 96 -d 3 -key-replicas 2 \
//	    -arrivals 'spike:4000x6@400ms+300ms' -duration 1200ms \
//	    -failures 'zone@500ms:0.25' -watch
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"geobalance/internal/loadgen"
	"geobalance/internal/metrics"
	"geobalance/internal/viz"
)

const rows, cols = 10, 20

func main() {
	// One registry holds every instrument: the harness registers its
	// loadgen_* set and attaches the router_* set to the router it
	// builds (Config.Registry does both). The registry is also an
	// http.Handler — http.ListenAndServe(":9090", reg) would serve
	// live scrapes while the run executes.
	reg := metrics.NewRegistry()

	// An open-loop schedule fixes every arrival's timestamp up front:
	// 2000/s base rate with a 6x flash crowd in the middle. Workers
	// sleep until each arrival is due, so the issue-lag histogram
	// measures how far behind schedule the system fell — the honest
	// form of queueing delay that closed-loop generators hide.
	sched, err := loadgen.Spike(2000, 6, 400*time.Millisecond, 300*time.Millisecond, 1200*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %s\n", sched)

	res, err := loadgen.Run(loadgen.Config{
		Space:       "torus",
		Dim:         2,
		Servers:     128,
		Choices:     3,
		KeyReplicas: 2, // each key pinned to the 2 least-loaded of its 3 candidates
		Keys:        1 << 13,
		Dist:        "zipf",
		LookupFrac:  0.9,
		Seed:        7,
		Arrivals:    sched,
		Registry:    reg,
		// A quarter of the torus dies mid-spike; failover reads and
		// the post-outage repair carry the traffic through it.
		Failures: loadgen.FailureScript{
			{After: 500 * time.Millisecond, Kind: loadgen.FailZone, Frac: 0.25},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Reading 1: the instrument objects directly. Registration is
	// idempotent, so re-registering the named sets returns the very
	// instruments the run updated.
	lm := loadgen.NewLoadMetrics(reg)
	fmt.Printf("\nissued %d of %d scheduled arrivals (%d lookups, %d writes)\n",
		res.Ops, res.Offered, res.Lookups, res.Places+res.Removes)
	fmt.Printf("issue lag p50 %v  p99 %v\n",
		time.Duration(res.Lag.Quantile(0.5)), time.Duration(res.Lag.Quantile(0.99)))
	fmt.Printf("failure events %d, failed reads before repair %d\n",
		lm.FailureEvents.Value(), lm.FailedReads.Value())

	// Reading 2: the load map as the -watch view draws it — live
	// servers binned by their actual torus coordinates, so the dead
	// zone is an empty hole in the grid.
	loads := make(map[string]int64)
	res.Router.LoadsInto(loads)
	cells := make([]float64, rows*cols)
	for i := range cells {
		cells[i] = math.NaN()
	}
	for name, load := range loads {
		at, ok := res.Router.Location(name)
		if !ok {
			continue
		}
		idx := int(at[1]*rows)%rows*cols + int(at[0]*cols)%cols
		if math.IsNaN(cells[idx]) {
			cells[idx] = 0
		}
		cells[idx] += float64(load)
	}
	fmt.Printf("\npost-outage load map (%d live servers; · = no live server in bin):\n", res.Router.NumServers())
	if err := viz.WriteTermHeatmap(os.Stdout, cells, rows, cols, viz.TermHeatmapOptions{Legend: true}); err != nil {
		log.Fatal(err)
	}

	// Reading 3: the Prometheus text scrape (WriteExpvar emits the
	// same registry as expvar-style JSON). Shown filtered to the
	// router's recovery counters; a real deployment scrapes the full
	// endpoint.
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	fmt.Println("\nscrape excerpt:")
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		for _, pre := range []string{"router_failovers", "router_no_live_replica", "router_repaired", "router_lost", "router_live_servers", "router_max_load"} {
			if strings.HasPrefix(line, pre) {
				fmt.Println("  " + line)
			}
		}
	}

	if err := res.Router.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninvariants: OK")
}
