// Command perfbench is the repository's end-to-end serving benchmark.
// It drives the serving layers' public functions directly — router.Geo
// and hashring.Ring, their scalar and batch calls, the write-ahead
// journal and recovery — with two closed-loop clients on inputs
// generated from a seed, checks every reply, and prints the metrics as
// one JSON line. See README.md for the workloads and metrics.
//
//	perfbench --workload geo-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an instrument-free
// run; with --trace 1 it also replays the same inputs in traced passes
// and prints the per-layer metrics plus the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

const (
	setupReps      = 9    // set-ups per run; setup_s is their median
	recoverReps    = 9    // recoveries per run; recover_s is their median
	crossFormKeys  = 1024 // keys per kind the cross-form probe issues
	syncAppends    = 1000 // records per client the durable journal probe appends
	compactEvery   = 8    // passes between compactions of the ring-journal WAL
	workRoot       = ".bench_build"
	errCheckFailed = "correctness check failed"
)

type metric struct {
	name, unit string
	value      float64
	note       string // sample count or basis, printed beside the value
}

type result struct {
	attempted, failed int64
	metrics           []metric
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: geo-read, geo-batch-write or ring-journal")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "run length: the op count scales with it (passes = seconds x passes-per-second)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	sp, err := lookupSpec(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	res, err := runWorkload(sp, *seed, *seconds, *trace == 1)
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: err == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]map[string]any{}}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", sp.name, err)
	} else {
		for _, m := range res.metrics {
			fmt.Printf("%-34s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
			out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}
