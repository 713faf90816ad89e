package metrics

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter has value %d", c.Value())
	}
	for i := 0; i < 100; i++ {
		c.Inc(uint64(i))
	}
	c.Add(7, 23)
	if got := c.Value(); got != 123 {
		t.Fatalf("counter = %d, want 123", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(uint64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Add(-2)
	if got := g.Value(); got != 40 {
		t.Fatalf("gauge = %d, want 40", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.N() != 1000 {
		t.Fatalf("snapshot n = %d, want 1000", s.N())
	}
	if s.Max() != 1000 {
		t.Fatalf("snapshot max = %d, want 1000", s.Max())
	}
	if s.Sum() != 1000*1001/2 {
		t.Fatalf("snapshot sum = %d, want %d", s.Sum(), 1000*1001/2)
	}
	// The HDR buckets underestimate by at most a factor 1+1/16.
	if p50 := s.Quantile(0.5); p50 < 450 || p50 > 500 {
		t.Fatalf("p50 = %d, want ~500", p50)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if got := s.N(); got != workers*per {
		t.Fatalf("snapshot n = %d, want %d", got, workers*per)
	}
}

// TestHotPathZeroAlloc pins the instrument-update contract: the calls
// the serving hot paths make must never allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	var (
		c Counter
		g Gauge
		h Histogram
	)
	if n := testing.AllocsPerRun(1000, func() { c.Inc(7) }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3, 5) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(9); g.Add(-1) }); n != 0 {
		t.Errorf("Gauge updates allocate %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("requests_total", "requests")
	b := reg.Counter("requests_total", "requests")
	if a != b {
		t.Fatal("same-name counter not shared")
	}
	a.Inc(1)
	if b.Value() != 1 {
		t.Fatal("shared counter lost an increment")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "9lives", "has-dash", "has space", "ünicode"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			reg.Counter(bad, "")
		}()
	}
	for _, good := range []string{"a", "_x", "router:places", "ab_c9"} {
		reg.Counter(good, "")
	}
}

// goldenRegistry builds the registry the format tests render: fixed
// deterministic values covering every metric kind.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	c := reg.Counter("router_places_total", "keys placed")
	c.Add(0, 12345)
	g := reg.Gauge("loadgen_workers", "active traffic goroutines")
	g.Set(8)
	reg.GaugeFunc("router_max_load", "largest key count over live servers", func() float64 { return 271 })
	reg.GaugeVec("router_server_load", "current keys per live server", "server",
		func(emit func(string, float64)) {
			emit("dc-berlin", 120)
			emit("dc-ashburn", 131)
			emit(`dc-"quoted"`, 7)
		})
	h := reg.Histogram("loadgen_lookup_latency_ns", "sampled Locate latency")
	for i := int64(0); i < 1000; i++ {
		h.Observe(100 + i)
	}
	// The overload-protection counter pair: supply side (admission
	// rejections) and demand side (ops the client gave up on).
	rej := reg.Counter("router_rejects_total", "placements rejected by bounded-load admission")
	rej.Add(0, 37)
	shed := reg.Counter("loadgen_shed_total", "ops abandoned after retries or deadline ran out")
	shed.Add(0, 4)
	// The durability counters the write-ahead journal exports.
	app := reg.Counter("journal_appends_total", "mutation records appended to the WAL")
	app.Add(0, 2048)
	fs := reg.Counter("journal_fsyncs_total", "WAL fsyncs (one per group-commit batch)")
	fs.Add(0, 96)
	rec := reg.Counter("journal_recoveries_total", "journal recoveries performed by Open")
	rec.Add(0, 1)
	tb := reg.Counter("journal_truncated_bytes_total", "WAL bytes discarded as torn tails or compacted prefixes")
	tb.Add(0, 17)
	return reg
}

// TestPrometheusGolden pins the exposition format byte for byte.
// Regenerate with:
//
//	go test ./internal/metrics -run TestPrometheusGolden -update
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const goldenPath = "testdata/prometheus.golden"
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus text drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

func TestExpvarJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteExpvar(&buf); err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if string(vars["router_places_total"]) != "12345" {
		t.Errorf("router_places_total = %s, want 12345", vars["router_places_total"])
	}
	var hist histSummary
	if err := json.Unmarshal(vars["loadgen_lookup_latency_ns"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1000 || hist.Max != 1099 {
		t.Errorf("histogram summary = %+v, want count 1000 max 1099", hist)
	}
	var family map[string]float64
	if err := json.Unmarshal(vars["router_server_load"], &family); err != nil {
		t.Fatal(err)
	}
	if family["dc-berlin"] != 120 {
		t.Errorf("server load family = %v", family)
	}
}

func TestServeHTTP(t *testing.T) {
	reg := goldenRegistry()

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE router_places_total counter") {
		t.Errorf("default response is not Prometheus text:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json Content-Type = %q", ct)
	}
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("?format=json response not JSON: %v", err)
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	reg.ServeHTTP(rec, req)
	if !json.Valid(rec.Body.Bytes()) {
		t.Error("Accept: application/json did not negotiate JSON")
	}
}
