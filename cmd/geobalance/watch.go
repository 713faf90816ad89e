// The -watch terminal view: a refreshing load heatmap plus a metrics
// ticker, rendered from the loadgen reporting hook while the traffic
// runs. On the torus the heatmap bins live servers by their actual
// coordinates, so a zone outage literally goes dark on screen; on the
// ring (no geometry) servers are laid out row-major in name order.
package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"geobalance/internal/loadgen"
	"geobalance/internal/metrics"
	"geobalance/internal/router"
	"geobalance/internal/viz"
)

// watchRows/watchCols size the heatmap grid: coarse enough that a
// laptop-scale fleet fills it, fine enough that a zone outage has a
// visible shape.
const (
	watchRows = 12
	watchCols = 24
)

// watchView renders one frame per reporting tick. All state is touched
// only from the reporting goroutine.
type watchView struct {
	lm *loadgen.LoadMetrics
	rm *router.Metrics

	loads map[string]int64
	cells []float64
	names []string

	lastOps int64
	lastAt  time.Duration
}

// newWatchView pre-registers the instrument sets on reg (registration
// is idempotent, so these are the same instruments the run updates).
func newWatchView(reg *metrics.Registry) *watchView {
	return &watchView{
		lm:    loadgen.NewLoadMetrics(reg),
		rm:    router.NewMetrics(reg),
		loads: make(map[string]int64, 256),
		cells: make([]float64, watchRows*watchCols),
	}
}

// render draws one frame: clear, header, heatmap, metrics ticker.
func (wv *watchView) render(elapsed time.Duration, f loadgen.Fleet) {
	wv.fillCells(f)

	ops := wv.lm.Lookups.Value() + wv.lm.Places.Value() + wv.lm.Removes.Value()
	rate := 0.0
	if dt := (elapsed - wv.lastAt).Seconds(); dt > 0 {
		rate = float64(ops-wv.lastOps) / dt
	}
	wv.lastOps, wv.lastAt = ops, elapsed

	var total, max int64
	for _, l := range wv.loads {
		total += l
		if l > max {
			max = l
		}
	}
	imbalance := 0.0
	if len(wv.loads) > 0 && total > 0 {
		imbalance = float64(max) / (float64(total) / float64(len(wv.loads)))
	}

	var sb strings.Builder
	sb.WriteString("\x1b[H\x1b[2J") // home + clear
	fmt.Fprintf(&sb, "geobalance loadtest  [%7.2fs]  %.0f ops/s  %d servers  %d keys  max load %d (%.2fx mean)\n\n",
		elapsed.Seconds(), rate, len(wv.loads), total, max, imbalance)
	fmt.Fprint(stdout, sb.String())

	_ = viz.WriteTermHeatmap(stdout, wv.cells, watchRows, watchCols, viz.TermHeatmapOptions{Legend: true})

	sb.Reset()
	fmt.Fprintf(&sb, "\nfailovers %d   no-live-replica %d   repaired %d   migrated %d (skipped %d)   churn %d   failures %d\n",
		wv.rm.Failovers.Value(), wv.rm.NoLiveReplica.Value(),
		wv.rm.RepairedKeys.Value(), wv.rm.MigrationApplied.Value(), wv.rm.MigrationSkipped.Value(),
		wv.lm.ChurnEvents.Value(), wv.lm.FailureEvents.Value())
	if h := wv.lm.LookupLatency.Snapshot(); h.N() > 0 {
		fmt.Fprintf(&sb, "lookup latency  p50 %dns  p99 %dns  max %dns\n",
			h.Quantile(0.5), h.Quantile(0.99), h.Max())
	}
	if h := wv.lm.Lag.Snapshot(); h.N() > 0 {
		fmt.Fprintf(&sb, "issue lag       p50 %dns  p99 %dns  max %dns\n",
			h.Quantile(0.5), h.Quantile(0.99), h.Max())
	}
	fmt.Fprint(stdout, sb.String())
}

// fillCells folds the live loads into the heatmap grid. Cells with no
// live server are NaN (rendered empty — a dead zone shows as a hole).
func (wv *watchView) fillCells(f loadgen.Fleet) {
	f.LoadsInto(wv.loads)
	for i := range wv.cells {
		wv.cells[i] = math.NaN()
	}
	if f.Geo != nil {
		for name, load := range wv.loads {
			at, ok := f.Location(name)
			if !ok {
				continue
			}
			x, y := at[0], 0.5
			if len(at) > 1 {
				y = at[1]
			}
			col := int(x*watchCols) % watchCols
			row := int(y*watchRows) % watchRows
			idx := row*watchCols + col
			if math.IsNaN(wv.cells[idx]) {
				wv.cells[idx] = 0
			}
			wv.cells[idx] += float64(load)
		}
		return
	}
	// No geometry (the ring): lay the servers out row-major in name
	// order, one cell each, so the grid is a stable per-server view.
	wv.names = wv.names[:0]
	for name := range wv.loads {
		wv.names = append(wv.names, name)
	}
	sort.Strings(wv.names)
	for i, name := range wv.names {
		if i >= len(wv.cells) {
			break
		}
		wv.cells[i] = float64(wv.loads[name])
	}
}
