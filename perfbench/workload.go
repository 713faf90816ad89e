package main

import (
	"fmt"
	"slices"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
	"geobalance/internal/router"
	"geobalance/internal/torus"
	"geobalance/internal/workload"
)

// Fleet shape shared by every workload.
const (
	numServers = 1024
	numPreload = 1 << 16
	numClients = 2
)

// spec is one workload: the fleet, the op mix and the run size. A run
// is bound by an op count, not a clock: passes = seconds*passesPerSec,
// and every pass issues the same calls, so equal settings always do
// identical work (and, on the journaled workload, grow the WAL by the
// same number of records).
type spec struct {
	name         string
	ring         bool    // hashring fleet; router.Geo on the torus otherwise
	dim          int     // torus dimension (the probe space's on the ring)
	d, r         int     // hash choices, replicas per key
	batch        int     // keys per call; 1 = scalar calls
	readPct      int     // percent of calls that read
	zipf         float64 // read-rank Zipf exponent; 0 = uniform ranks
	journaled    bool    // buffered (NoSync) journal attached during the run
	calls        int     // calls per client per pass
	passesPerSec int     // passes per second of --seconds
	stride       int     // latency is sampled on every stride-th call
	window       int     // fresh write calls each client keeps placed
}

var specs = []spec{
	{name: "geo-read", dim: 2, d: 2, r: 1, batch: 1, readPct: 90, zipf: 1.1,
		calls: 250_000, passesPerSec: 8, stride: 8, window: 1024},
	{name: "geo-batch-write", dim: 3, d: 3, r: 2, batch: 32, readPct: 20,
		calls: 2_000, passesPerSec: 8, stride: 1, window: 32},
	{name: "ring-journal", ring: true, dim: 2, d: 2, r: 1, batch: 1, readPct: 20,
		journaled: true, calls: 90_000, passesPerSec: 8, stride: 4, window: 1024},
}

func lookupSpec(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opRead opKind = iota
	opPlace
	opRemove
)

// op is one client call. ref indexes the key (scalar) or the call's
// key block (batch): reads into the preload set (scalar) or
// stream.readKeys (batch), writes into stream.fresh.
type op struct {
	kind opKind
	ref  int32
}

// stream is one client's pre-generated input: the calls of one pass,
// replayed every pass. Writes alternate place and remove over the
// client's private fresh keys: the j-th place call places block j and
// the j-th remove call removes block (j-window) mod places, so every
// pass places and removes each fresh block exactly once and ends with
// the same blocks placed as it started with. Blocks primed..places-1
// are placed during set-up.
type stream struct {
	ops      []op
	fresh    []string // write keys; block j is fresh[j*batch:(j+1)*batch]
	readKeys []string // batch read blocks (batch workloads only)
	readRefs []int32  // preload index of each readKeys entry
	primed   int      // first fresh block placed during set-up
	freshN   []int8   // replicas each fresh key must hold
}

// inputs is everything a run feeds the router, generated from the
// seed before any timing starts.
type inputs struct {
	servers []string
	coords  []geom.Vec // seeded torus positions (the probe space on the ring)
	preload []string
	preN    []int8 // replicas each preload key must hold
	clients []stream
}

// Generator stream ids, one per input family.
const (
	streamServers = 1
	streamPreload = 2
	streamClient  = 16
)

// generate builds a workload's inputs from seed alone.
func generate(sp spec, seed uint64) (*inputs, error) {
	in := &inputs{
		servers: make([]string, numServers),
		coords:  make([]geom.Vec, numServers),
		preload: make([]string, numPreload),
		clients: make([]stream, numClients),
	}
	r := rng.NewStream(seed, streamServers)
	for i := range in.servers {
		in.servers[i] = fmt.Sprintf("srv/%04d/%08x", i, r.Uint64()>>32)
		v := make(geom.Vec, sp.dim)
		for j := range v {
			v[j] = r.Float64()
		}
		in.coords[i] = v
	}
	r = rng.NewStream(seed, streamPreload)
	for i := range in.preload {
		in.preload[i] = fmt.Sprintf("key/%05d/%08x", i, r.Uint64()>>32)
	}
	var (
		ranks workload.Ranker
		err   error
	)
	if sp.zipf > 0 {
		ranks, err = workload.NewZipf(sp.zipf, numPreload)
	} else {
		ranks, err = workload.NewUniformRanks(numPreload)
	}
	if err != nil {
		return nil, err
	}
	for c := range in.clients {
		in.clients[c] = genStream(sp, rng.NewStream(seed, streamClient+uint64(c)), ranks, c, in.preload)
	}
	return in, in.expectReplicas(sp)
}

// expectReplicas derives the replica count each key must hold: r, or
// fewer when the key's d candidate points fall in fewer than r
// distinct servers' cells. The ring workload is single-replica.
func (in *inputs) expectReplicas(sp spec) error {
	var space *torus.Space
	if sp.r > 1 {
		var err error
		if space, err = torus.FromSites(in.coords, sp.dim); err != nil {
			return err
		}
	}
	count := func(keys []string) []int8 {
		n := make([]int8, len(keys))
		p := make(geom.Vec, sp.dim)
		var sites [router.MaxChoices]int
		for i, k := range keys {
			if space == nil {
				n[i] = 1
				continue
			}
			distinct := 0
			for j := 0; j < sp.d; j++ {
				st := router.Hash('k', j, k)
				for x := range p {
					p[x] = router.UnitFloat(rng.SplitMix64(&st))
				}
				site, _ := space.NearestShared(p)
				if !slices.Contains(sites[:distinct], site) {
					sites[distinct] = site
					distinct++
				}
			}
			n[i] = int8(min(sp.r, distinct))
		}
		return n
	}
	in.preN = count(in.preload)
	for c := range in.clients {
		in.clients[c].freshN = count(in.clients[c].fresh)
	}
	return nil
}

// genStream draws one client's calls: each call reads with probability
// readPct%, and the write count is made even so places and removes
// pair up.
func genStream(sp spec, r *rng.Rand, ranks workload.Ranker, client int, preload []string) stream {
	s := stream{ops: make([]op, sp.calls)}
	writes := 0
	for i := range s.ops {
		if r.Intn(100) < sp.readPct {
			s.ops[i].kind = opRead
		} else {
			s.ops[i].kind = opPlace
			writes++
		}
	}
	if writes%2 == 1 {
		last := &s.ops[len(s.ops)-1]
		if last.kind == opRead {
			last.kind = opPlace
			writes++
		} else {
			last.kind = opRead
			writes--
		}
	}
	places := writes / 2
	window := min(sp.window, places/2)
	s.primed = places - window
	s.fresh = make([]string, places*sp.batch)
	for i := range s.fresh {
		s.fresh[i] = fmt.Sprintf("c%d/%06d/%08x", client, i, r.Uint64()>>32)
	}
	var nw, reads int32
	for i := range s.ops {
		o := &s.ops[i]
		switch {
		case o.kind == opRead && sp.batch == 1:
			o.ref = int32(ranks.Next(r))
		case o.kind == opRead:
			o.ref = reads
			reads++
			for k := 0; k < sp.batch; k++ {
				ref := int32(ranks.Next(r))
				s.readRefs = append(s.readRefs, ref)
				s.readKeys = append(s.readKeys, preload[ref])
			}
		case nw%2 == 0:
			o.ref = nw / 2
			nw++
		default:
			o.kind = opRemove
			o.ref = int32((int(nw/2) - window + places) % places)
			nw++
		}
	}
	return s
}
