// Batch-mode traffic (Config.Batch > 1): workers drive the routers'
// bulk serving path — LocateBatch/PlaceBatch/RemoveBatch — instead of
// scalar calls. One claimed block of ops becomes one lookup batch plus
// one place batch plus one remove batch (the scalar mix's op types,
// grouped so each bulk call stays homogeneous), with the client retry
// discipline applied to the rejected subset of each place batch.
//
// In open-loop mode a batch claims Batch consecutive arrival slots and
// issues when the LAST of them is due; every slot still records its
// own issue lag (earlier arrivals accrue the intra-batch wait — the
// honest queueing cost of coalescing), and every claimed slot ends as
// exactly one completed op or one shed, so ops + shed == offered holds
// just as it does for the scalar open loop.
//
// With failover reads armed (key replication or a failure script) the
// read path stays scalar LocateAny: the bulk lookup returns a key's
// recorded primary without probing liveness, so batching it would
// erase the failed-read signal the failure labs measure. Writes batch
// in every mode.
package loadgen

import (
	"errors"
	"strconv"
	"sync/atomic"
	"time"

	"geobalance/internal/router"
)

// runBatchWorker is the closed-loop batch driver: claim Batch-sized
// blocks from the shared budget and issue each as one batched round.
func runBatchWorker(st *opState, budget *atomic.Int64, opsBound bool, deadline time.Time) {
	b := st.cfg.Batch
	for {
		n := b
		if opsBound {
			claimed := budget.Add(-int64(b))
			if claimed <= -int64(b) {
				return
			}
			if claimed < 0 {
				n = b + int(claimed)
			}
		} else if !time.Now().Before(deadline) {
			return
		}
		st.doBatch(n)
	}
}

// runOpenBatchWorker is the open-loop batch driver: claim Batch
// consecutive arrival slots, sleep until the last claimed arrival is
// due, record every claimed slot's issue lag, and issue the block as
// one batched round.
func runOpenBatchWorker(st *opState, sched *ArrivalSchedule, next *atomic.Int64,
	start, deadline time.Time) {
	b := int64(st.cfg.Batch)
	total := sched.Total()
	for {
		k0 := next.Add(b) - b
		if k0 >= total {
			return
		}
		n := b
		if k0+n > total {
			n = total - k0
		}
		due := start.Add(sched.TimeOf(k0 + n - 1))
		now := time.Now()
		if d := due.Sub(now); d > 0 {
			time.Sleep(d)
			now = time.Now()
		}
		if !deadline.IsZero() && now.After(deadline) {
			return
		}
		for k := k0; k < k0+n; k++ {
			lag := now.Sub(start.Add(sched.TimeOf(k))).Nanoseconds()
			if lag < 0 {
				lag = 0
			}
			st.ws.lag.Add(lag)
			if st.lm != nil {
				st.lm.Lag.Observe(lag)
			}
		}
		st.doBatch(int(n))
	}
}

// doBatch issues one block of n ops through the bulk path. The op mix
// is drawn exactly as the scalar loop draws it (LookupFrac lookups,
// the rest an even place/remove mix over the worker's own key pool),
// then executed as one bulk call per op type. Latency histograms get
// one per-key-mean sample per phase per batch.
func (st *opState) doBatch(n int) {
	ws, lm, cfg := st.ws, st.lm, st.cfg
	st.opCount += n
	look := st.blook[:0]
	nPlace, nRemove := 0, 0
	for i := 0; i < n; i++ {
		if st.r.Float64() < cfg.LookupFrac {
			look = append(look, st.hot[st.rk.Next(st.r)])
			continue
		}
		canPlace := st.placed+nPlace < len(st.own)
		canRemove := nRemove < st.placed
		switch {
		case !canPlace && !canRemove:
			// The pool cycled completely within this one batch (Batch far
			// above the pool size): fall back to a lookup rather than
			// re-place a key the same batch already holds.
			look = append(look, st.hot[st.rk.Next(st.r)])
		case !canRemove || (canPlace && st.r.Uint64()&1 == 0):
			nPlace++
		default:
			nRemove++
		}
	}
	st.blook = look

	if len(look) > 0 {
		t0 := time.Now()
		if st.failover {
			// Scalar failover reads; see the package comment.
			for _, key := range look {
				f := st.lv.acquire()
				srv, err := f.LocateAny(key)
				st.lv.release()
				if errors.Is(err, router.ErrNoLiveReplica) {
					ws.failedReads++
					if lm != nil {
						lm.FailedReads.Inc(st.hint)
					}
					err, srv = nil, ""
				}
				if st.model != nil && srv != "" {
					st.observeRead(key, srv)
				}
				if err != nil {
					ws.errors++
					if lm != nil {
						lm.Errors.Inc(st.hint)
					}
				}
			}
		} else {
			out := st.bout[:len(look)]
			f := st.lv.acquire()
			f.LocateBatch(look, out)
			st.lv.release()
			for i := range out {
				if out[i].Err != nil {
					ws.errors++
					if lm != nil {
						lm.Errors.Inc(st.hint)
					}
				} else if st.model != nil {
					st.observeRead(look[i], out[i].Server)
				}
			}
		}
		ws.lookups += int64(len(look))
		if lm != nil {
			lm.Lookups.Add(st.hint, int64(len(look)))
		}
		lat := time.Since(t0).Nanoseconds() / int64(len(look))
		ws.lookup.Add(lat)
		if lm != nil {
			lm.LookupLatency.Observe(lat)
		}
	}

	if nPlace > 0 {
		st.placeBatch(nPlace)
	}

	if nRemove > 0 {
		keys := st.bremove[:0]
		for i := 0; i < nRemove; i++ {
			keys = append(keys, st.own[(st.tail+i)%len(st.own)])
		}
		st.bremove = keys
		out := st.bout[:nRemove]
		t0 := time.Now()
		f := st.lv.acquire()
		f.RemoveBatch(keys, out)
		st.lv.release()
		lat := time.Since(t0).Nanoseconds() / int64(nRemove)
		for i := range out {
			if out[i].Err != nil {
				ws.errors++
				if lm != nil {
					lm.Errors.Inc(st.hint)
				}
			}
		}
		st.tail = (st.tail + nRemove) % len(st.own)
		st.placed -= nRemove
		ws.removes += int64(nRemove)
		if lm != nil {
			lm.Removes.Add(st.hint, int64(nRemove))
		}
		ws.remove.Add(lat)
	}
}

// placeBatch places the next nPlace pool keys as one bulk call,
// retrying the overload-rejected subset with the same backoff
// discipline placeWithRetry applies per key (one jittered sleep per
// retry round, floored at the largest retry-after hint in the round).
// Keys that exhaust their retries (or would blow OpDeadline) are shed:
// their pool slots get fresh names and do not advance, exactly like
// the scalar shed path, with the slot names compacted so the pool's
// placed window stays contiguous.
func (st *opState) placeBatch(nPlace int) {
	ws, lm, cfg := st.ws, st.lm, st.cfg
	keys := st.bplace[:0]
	for i := 0; i < nPlace; i++ {
		keys = append(keys, st.own[(st.head+i)%len(st.own)])
	}
	st.bplace = keys
	t0 := time.Now()

	pend := keys // this round's attempt set (first round: the whole block)
	advanced := 0
	attempt := 0
	for {
		out := st.bout[:len(pend)]
		f := st.lv.acquire()
		f.PlaceBatch(pend, out)
		st.lv.release()
		retry := st.bpend[:0]
		var maxHint time.Duration
		rejected := 0
		for i := range out {
			err := out[i].Err
			switch {
			case err == nil:
				if attempt > 0 {
					ws.recovered++
					if lm != nil {
						lm.Recovered.Inc(st.hint)
					}
				}
				// Order within the advanced set does not matter; keep the
				// pool window contiguous by writing successes back in
				// completion order.
				st.own[(st.head+advanced)%len(st.own)] = pend[i]
				advanced++
				if st.model != nil {
					soj := st.model.observe(out[i].Server, st.r)
					ws.sojourn.Add(int64(soj))
					if lm != nil {
						lm.Sojourn.Observe(int64(soj))
					}
				}
			case errors.Is(err, router.ErrOverloaded):
				ws.rejections++
				rejected++
				var oe *router.OverloadedError
				if errors.As(err, &oe) && oe.RetryAfter > maxHint {
					maxHint = oe.RetryAfter
				}
				retry = append(retry, pend[i])
			default:
				// Hard error (journal failure, no servers): the scalar path
				// advances past these too, counting the error.
				st.own[(st.head+advanced)%len(st.own)] = pend[i]
				advanced++
				ws.errors++
				if lm != nil {
					lm.Errors.Inc(st.hint)
				}
			}
		}
		st.bpend = retry
		if rejected == 0 {
			break
		}
		if attempt >= cfg.Retries {
			break
		}
		attempt++
		sleep := backoff(st.r, attempt, cfg.RetryBase, cfg.RetryCap, maxHint)
		if cfg.OpDeadline > 0 && time.Since(t0)+sleep > cfg.OpDeadline {
			ws.deadlineMisses += int64(rejected)
			if lm != nil {
				lm.DeadlineMisses.Add(st.hint, int64(rejected))
			}
			break
		}
		ws.retries += int64(rejected)
		if lm != nil {
			lm.Retries.Add(st.hint, int64(rejected))
		}
		time.Sleep(sleep)
		pend = retry
	}

	nShed := nPlace - advanced
	if nShed > 0 {
		// Shed slots sit past the advanced window; regenerate their names
		// so the next attempt draws a fresh candidate set (the scalar shed
		// rule) without advancing the pool head over them.
		for i := 0; i < nShed; i++ {
			st.gen++
			slot := (st.head + advanced + i) % len(st.own)
			st.own[slot] = "w" + strconv.Itoa(int(st.hint)) + ":" +
				strconv.Itoa(slot) + "#" + strconv.Itoa(st.gen)
		}
		ws.shed += int64(nShed)
		if lm != nil {
			lm.Shed.Add(st.hint, int64(nShed))
		}
	}
	st.head = (st.head + advanced) % len(st.own)
	st.placed += advanced
	if advanced > 0 {
		ws.places += int64(advanced)
		if lm != nil {
			lm.Places.Add(st.hint, int64(advanced))
		}
		ws.place.Add(time.Since(t0).Nanoseconds() / int64(advanced))
	}
}
