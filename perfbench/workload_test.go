package main

import (
	"reflect"
	"testing"
)

// small shrinks a workload so tests generate quickly.
func small(sp spec) spec {
	sp.calls = 4000
	return sp
}

func TestGenerateSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		sp = small(sp)
		a, err := generate(sp, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 generated two different input sets", sp.name)
		}
		c, err := generate(sp, 43)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.clients[0].ops, c.clients[0].ops) || reflect.DeepEqual(a.preload, c.preload) {
			t.Errorf("%s: seeds 42 and 43 generated the same inputs", sp.name)
		}
	}
}

// TestStreamPassIsClosed replays one pass of every client's writes
// against a key set: each place must hit an unplaced key, each remove
// a placed one, and the pass must end with exactly the primed blocks
// placed — the property that lets every pass repeat the same calls.
func TestStreamPassIsClosed(t *testing.T) {
	for _, sp := range specs {
		sp = small(sp)
		in, err := generate(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		for ci, s := range in.clients {
			placed := map[int32]bool{}
			places := int32(len(s.fresh) / sp.batch)
			for b := int32(s.primed); b < places; b++ {
				placed[b] = true
			}
			want := len(placed)
			reads := 0
			for pass := 0; pass < 2; pass++ {
				for i, o := range s.ops {
					switch o.kind {
					case opRead:
						reads++
					case opPlace:
						if placed[o.ref] {
							t.Fatalf("%s client %d pass %d call %d: places placed block %d", sp.name, ci, pass, i, o.ref)
						}
						placed[o.ref] = true
					case opRemove:
						if !placed[o.ref] {
							t.Fatalf("%s client %d pass %d call %d: removes unplaced block %d", sp.name, ci, pass, i, o.ref)
						}
						delete(placed, o.ref)
					}
				}
				if len(placed) != want {
					t.Fatalf("%s client %d: pass ends with %d blocks placed, started with %d", sp.name, ci, len(placed), want)
				}
			}
			pct := 100 * reads / (2 * len(s.ops))
			if pct < sp.readPct-3 || pct > sp.readPct+3 {
				t.Errorf("%s client %d: %d%% reads, want about %d%%", sp.name, ci, pct, sp.readPct)
			}
			if sp.batch > 1 && len(s.readKeys) != len(s.readRefs) {
				t.Errorf("%s client %d: %d batch read keys for %d refs", sp.name, ci, len(s.readKeys), len(s.readRefs))
			}
		}
	}
}
