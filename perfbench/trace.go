package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName names the layer boundary a span covers.
type spanName uint8

const (
	spOp spanName = iota // one client call, the root of its spans
	spHash
	spLocate
	spPlace
	spRemove
	spLocateBatch
	spPlaceBatch
	spRemoveBatch
	spNearest
	spNearestBatch
	spAppend
	spSyncAppend
	spRecover
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "router.hash", "router.locate", "router.place", "router.remove",
	"router.locate_batch", "router.place_batch", "router.remove_batch",
	"torus.nearest", "torus.nearest_batch", "journal.append", "journal.sync_append",
	"recover",
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's base; parent indexes the causing span in the same buffer
// (-1 for a root); keys counts the keys, points or records covered.
type span struct {
	start, end int64
	op         uint32
	parent     int32
	keys       uint32
	name       spanName
}

// spanRec is an in-memory span buffer owned by one goroutine. The
// buffer is sized before a pass, so recording never allocates.
type spanRec struct {
	base  time.Time
	spans []span
}

func newSpanRec(base time.Time, capacity int) *spanRec {
	return &spanRec{base: base, spans: make([]span, 0, capacity)}
}

func (r *spanRec) begin(name spanName, op uint32, parent int32) int32 {
	r.spans = append(r.spans, span{start: int64(time.Since(r.base)), op: op, parent: parent, name: name})
	return int32(len(r.spans) - 1)
}

func (r *spanRec) end(i int32, keys int) {
	s := &r.spans[i]
	s.end = int64(time.Since(r.base))
	s.keys = uint32(keys)
}

// layerAgg accumulates one span name's totals and, per pass, the
// median time per covered key.
type layerAgg struct {
	calls, keys int64
	medians     []float64
}

// spanAgg folds spans into per-name aggregates, one pass at a time.
type spanAgg struct {
	layers [numSpanNames]layerAgg
	buf    [numSpanNames][]float64
}

// addPass folds one pass's spans (every client's buffer).
func (a *spanAgg) addPass(bufs ...[]span) {
	for n := range a.buf {
		a.buf[n] = a.buf[n][:0]
	}
	for _, spans := range bufs {
		for i := range spans {
			s := &spans[i]
			l := &a.layers[s.name]
			l.calls++
			l.keys += int64(s.keys)
			if s.keys > 0 {
				a.buf[s.name] = append(a.buf[s.name], float64(s.end-s.start)/float64(s.keys))
			}
		}
	}
	for n, b := range a.buf {
		if len(b) > 0 {
			a.layers[n].medians = append(a.layers[n].medians, median(b))
		}
	}
}

// perKey is the median over passes of a name's per-pass median time
// per covered key (0 when the name never occurred).
func (a *spanAgg) perKey(n spanName) float64 { return median(a.layers[n].medians) }

// clockNs is the cost of recording an empty span: the clock read every
// span time includes.
func clockNs(base time.Time) float64 {
	r := newSpanRec(base, 1<<14)
	for i := 0; i < cap(r.spans); i++ {
		r.end(r.begin(spOp, 0, -1), 1)
	}
	var a spanAgg
	a.addPass(r.spans)
	return a.perKey(spOp)
}

// maxDumpSpans caps the spans of the last traced pass written out per
// run.
const maxDumpSpans = 1 << 16

// dumpSpans writes span buffers as tab-separated lines (op, index,
// parent, name, start_ns, end_ns, keys) to path, numbering the spans
// of all buffers in one sequence.
func dumpSpans(path string, bufs ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tname\tstart_ns\tend_ns\tkeys")
	base := 0
	for _, spans := range bufs {
		for i, s := range spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.op, base+i, parent, spanNames[s.name], s.start, s.end, s.keys)
		}
		base += len(spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
