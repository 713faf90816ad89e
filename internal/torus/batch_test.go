package torus

import (
	"fmt"
	"sync"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// batchQueries builds a query set that stresses the batch kernel's
// paths: the adversarial corner cases (seam coordinates, exact
// boundaries, the sites themselves), duplicated and identical query
// points (runs of equal sort keys), and random fill. Returned flat,
// point-major, as NearestBatch consumes them.
func batchQueries(sp *Space, dim, g int, r *rng.Rand) []float64 {
	qs := adversarialQueries(sp, dim, g, r)
	// Duplicate every fourth query, then append one point many times:
	// identical queries must produce identical answers and exercise the
	// same-cell run sharing.
	for i := 0; i < len(qs); i += 4 {
		qs = append(qs, qs[i])
	}
	dup := sp.Sample(r)
	for i := 0; i < 9; i++ {
		qs = append(qs, dup)
	}
	flat := make([]float64, 0, len(qs)*dim)
	for _, q := range qs {
		flat = append(flat, q...)
	}
	return flat
}

// TestNearestBatchAdversarialAgainstNearest pins the batch kernel to
// the single-query kernel site for site: NearestBatch must return
// exactly what Nearest returns for every query — including exact
// distance ties, where both resolve to the lowest public site index —
// on the adversarial layouts (clustered, boundary, 1-ulp-separated
// sites) across dimensions 1-4, with duplicate and identical query
// points in the batch. Agreement with NearestBrute (up to
// certification-radius ties) follows from the existing Nearest
// property tests.
func TestNearestBatchAdversarialAgainstNearest(t *testing.T) {
	r := rng.New(193)
	sizes := map[int]int{1: 64, 2: 256, 3: 343, 4: 256}
	// Grids below and at the staged kernels' minimum (g >= 5): dim=3
	// g=5 and g=7 take the brick-index path, dim=4 g=4 the generic
	// loop and g=6 the staged row-ordered kernel.
	grids := map[int][]int{1: {16}, 2: {4, 16}, 3: {4, 5, 7}, 4: {4, 6}}
	for dim := 1; dim <= 4; dim++ {
		for _, g := range grids[dim] {
			for name, sites := range adversarialLayouts(dim, g, sizes[dim], r) {
				t.Run(fmt.Sprintf("dim=%d/g=%d/%s", dim, g, name), func(t *testing.T) {
					sp, err := FromSitesGrid(sites, dim, g)
					if err != nil {
						t.Fatal(err)
					}
					pts := batchQueries(sp, dim, g, r)
					q := len(pts) / dim
					out := make([]int32, q)
					sp.NearestBatch(pts, out)
					for i := 0; i < q; i++ {
						p := geom.Vec(pts[i*dim : (i+1)*dim])
						want, _ := sp.Nearest(p)
						if int(out[i]) != want {
							t.Fatalf("query %d at %v: NearestBatch %d, Nearest %d",
								i, p, out[i], want)
						}
					}
				})
			}
		}
	}
}

// TestNearestBatchRandomLargeAgainstNearest runs the production-shaped
// configuration — random sites at the default grid density, a large
// batch — for the staged dim-2 path (interior, seam, and deferred
// queries all occur) and the dim-3 and generic paths.
func TestNearestBatchRandomLargeAgainstNearest(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			r := rng.New(uint64(211 + dim))
			sp, err := NewRandom(1<<12, dim, r)
			if err != nil {
				t.Fatal(err)
			}
			const q = 1 << 13
			pts := make([]float64, q*dim)
			for i := range pts {
				pts[i] = r.Float64()
			}
			// Force some queries onto the wrap seam (hy = 0 and g-1).
			g := sp.GridCellsPerAxis()
			for i := 0; i < q; i += 97 {
				pts[i*dim+(dim-1)] = float64(i%2) * (float64(g-1) / float64(g))
			}
			out := make([]int32, q)
			sp.NearestBatch(pts, out)
			for i := 0; i < q; i++ {
				want, _ := sp.Nearest(geom.Vec(pts[i*dim : (i+1)*dim]))
				if int(out[i]) != want {
					t.Fatalf("query %d: NearestBatch %d, Nearest %d", i, out[i], want)
				}
			}
		})
	}
}

// TestNearestBatchZeroAllocs guards the zero-alloc steady state: after
// one warmup call sizes the scratch, batches must not allocate.
func TestNearestBatchZeroAllocs(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			r := rng.New(uint64(223 + dim))
			sp, err := NewRandom(1<<10, dim, r)
			if err != nil {
				t.Fatal(err)
			}
			const q = 512
			pts := make([]float64, q*dim)
			for i := range pts {
				pts[i] = r.Float64()
			}
			out := make([]int32, q)
			sp.NearestBatch(pts, out) // warm the scratch
			if allocs := testing.AllocsPerRun(10, func() {
				sp.NearestBatch(pts, out)
			}); allocs != 0 {
				t.Fatalf("NearestBatch allocated %v times per run", allocs)
			}
		})
	}
}

// TestNearestBatchIntoConcurrent drives NearestBatchInto from several
// goroutines with distinct scratch values over one unchanging Space —
// the exact access pattern of core.PlaceBatchParallel's resolve phase —
// and checks every shard against the serial answers. Run with -race
// this also proves the scratch separation is complete.
func TestNearestBatchIntoConcurrent(t *testing.T) {
	r := rng.New(229)
	sp, err := NewRandom(1<<11, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	const q, workers = 1 << 13, 4
	pts := make([]float64, q*2)
	for i := range pts {
		pts[i] = r.Float64()
	}
	want := make([]int32, q)
	sp.NearestBatch(pts, want)

	got := make([]int32, q)
	var wg sync.WaitGroup
	chunk := q / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if w == workers-1 {
			hi = q
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sc := new(BatchScratch)
			sp.NearestBatchInto(sc, pts[lo*2:hi*2], got[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: concurrent %d, serial %d", i, got[i], want[i])
		}
	}
}

// TestNearestBatchTinyGrids covers grids below the staged kernel's
// minimum (g < 5), where every query takes the slow path and wrapped
// offsets coincide.
func TestNearestBatchTinyGrids(t *testing.T) {
	r := rng.New(233)
	for _, n := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			sp, err := NewRandom(n, 2, r)
			if err != nil {
				t.Fatal(err)
			}
			const q = 256
			pts := make([]float64, q*2)
			for i := range pts {
				pts[i] = r.Float64()
			}
			out := make([]int32, q)
			sp.NearestBatch(pts, out)
			for i := 0; i < q; i++ {
				want, _ := sp.Nearest(geom.Vec(pts[i*2 : (i+1)*2]))
				if int(out[i]) != want {
					t.Fatalf("query %d: NearestBatch %d, Nearest %d", i, out[i], want)
				}
			}
		})
	}
}

// TestNearestBatchSortThreshold pins both sides of sortByCell's
// small-block cutoff: a block just below it (q*16 < nb, identity
// order) and one at it (counting sort) must both answer exactly like
// Nearest, at the dimensions with staged kernels. The bucket array's
// allocation shows which side each call took.
func TestNearestBatchSortThreshold(t *testing.T) {
	for _, dim := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			r := rng.New(uint64(251 + dim))
			sp, err := NewRandom(1<<11, dim, r)
			if err != nil {
				t.Fatal(err)
			}
			_, nb := sp.sortBuckets()
			below := (nb - 1) / 16 // largest q with q*16 < nb
			if below < 1 {
				t.Fatalf("bucket count %d leaves no block below the cutoff", nb)
			}
			for _, q := range []int{below, below + 1} {
				pts := make([]float64, q*dim)
				for i := range pts {
					pts[i] = r.Float64()
				}
				var sc BatchScratch
				out := make([]int32, q)
				sp.NearestBatchInto(&sc, pts, out)
				if sorted := sc.cnt != nil; sorted != (q*16 >= nb) {
					t.Fatalf("q=%d nb=%d: counting sort ran = %v", q, nb, sorted)
				}
				for i := 0; i < q; i++ {
					want, _ := sp.Nearest(geom.Vec(pts[i*dim : (i+1)*dim]))
					if int(out[i]) != want {
						t.Fatalf("q=%d query %d: NearestBatchInto %d, Nearest %d", q, i, out[i], want)
					}
				}
			}
		})
	}
}

// TestNearestBatchAfterReseed checks that Reseed invalidates and
// rebuilds everything the batch kernel reads (the overlapped index
// included): a reseeded space must answer exactly like a freshly built
// one.
func TestNearestBatchAfterReseed(t *testing.T) {
	r1, r2 := rng.New(239), rng.New(239)
	sp, err := NewRandom(1<<10, 2, r1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRandom(1<<10, 2, r2)
	if err != nil {
		t.Fatal(err)
	}
	sp.Reseed(r1)
	fresh.Reseed(r2)
	r := rng.New(241)
	const q = 1024
	pts := make([]float64, q*2)
	for i := range pts {
		pts[i] = r.Float64()
	}
	a, b := make([]int32, q), make([]int32, q)
	sp.NearestBatch(pts, a)
	fresh.NearestBatch(pts, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: reseeded %d, fresh %d", i, a[i], b[i])
		}
	}
}
