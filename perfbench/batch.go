package main

import (
	"context"
	"fmt"
	"time"

	"repro/wht"
)

// batchWidths is the multiset of batch widths every cycle of calls uses,
// in a seeded order: three below wht.DefaultSoAMinBatch (per-vector
// path) and four at or above it (SoA lanes).  Every seed sees the same
// mix, so the latency distribution does not depend on the seed, and
// with seven equal parts the median falls inside the width-12 cluster
// rather than between two clusters.
var batchWidths = []int{2, 4, 6, 12, 16, 24, 32}

// batchPool is how many distinct input vectors the batches draw from.
const batchPool = 64

// batchRunner is batches of float32 vectors at n=16 through
// wht.RunBatchParallelCtx at two workers: the daemon's executor without
// the serving layer.
type batchRunner struct {
	n    int
	s    *wht.Schedule
	pool []signal[float32]
	buf  [][]float32
	pick sampler
}

func setupBatch(_ context.Context, e *env) (runner, error) {
	const n = 16
	rng := e.rng(1)
	r := &batchRunner{n: n, pick: sampler{e.rng(2)}}
	for range batchPool {
		r.pool = append(r.pool, newSignal[float32](rng, n))
	}
	maxW := 0
	for _, w := range batchWidths {
		maxW = max(maxW, w)
	}
	for range maxW {
		r.buf = append(r.buf, make([]float32, 1<<n))
	}
	wht.ResetTuning()
	sp := e.tr.begin(e.parent, "wht", "wht.ScheduleForSize")
	r.s = wht.ScheduleForSize(n)
	sp.end()
	for _, w := range []int{batchWidths[0], maxW} {
		var t tally
		r.call(context.Background(), &t, w, 0, true, nil, 0)
		if t.failed > 0 {
			return nil, fmt.Errorf("warm-up batch: %s", t.notes[0])
		}
	}
	return r, nil
}

// call copies w pool vectors from start into the batch, transforms it,
// verifies when asked, and returns the call's wall time (-1 on error).
func (r *batchRunner) call(ctx context.Context, t *tally, w, start int, verify bool, tr *tracer, parent int64) time.Duration {
	sp := tr.begin(parent, "bench", "copy-in")
	xs := r.buf[:w]
	for j := range xs {
		copy(xs[j], r.pool[(start+j)%len(r.pool)].x)
	}
	sp.end()
	sp = tr.begin(parent, "wht", "wht.RunBatchParallelCtx")
	t0 := time.Now()
	err := wht.RunBatchParallelCtx(ctx, r.s, xs, workers)
	el := time.Since(t0)
	sp.end()
	t.attempted++
	if err != nil {
		t.fail(fmt.Sprintf("RunBatchParallelCtx width %d: %v", w, err))
		return -1
	}
	if verify {
		r.verify(t, w, start, tr, parent)
	}
	return el
}

// verify checks the batch's first w vectors against the references of
// the pool vectors copied in from start.
func (r *batchRunner) verify(t *tally, w, start int, tr *tracer, parent int64) {
	sp := tr.begin(parent, "bench", "verify")
	defer sp.end()
	for j, x := range r.buf[:w] {
		if !r.pool[(start+j)%len(r.pool)].matchesAfter(x, 1) {
			t.mismatch(fmt.Sprintf("batch width %d: vector %d differs from the reference", w, j))
			return
		}
	}
}

func (r *batchRunner) run(ctx context.Context, d time.Duration, tr *tracer, parent int64) tally {
	var t tally
	var vecs int
	var busy float64
	var below, above []float64 // ms per vector on each side of the SoA crossover
	order := make([]int, len(batchWidths))
	lastW, lastStart, lastVerified := 0, 0, true
	stop := time.Now().Add(d)
	for call := 0; time.Now().Before(stop); call++ {
		if call%len(order) == 0 {
			copy(order, batchWidths)
			r.pick.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		w, start := order[call%len(order)], r.pick.IntN(len(r.pool))
		verify := call == 0 || r.pick.pick()
		el := r.call(ctx, &t, w, start, verify, tr, parent)
		lastW, lastStart, lastVerified = w, start, verify || el < 0
		if el < 0 {
			continue
		}
		t.lat = append(t.lat, ms(el))
		busy += el.Seconds()
		vecs += w
		if w < wht.DefaultSoAMinBatch {
			below = append(below, ms(el)/float64(w))
		} else {
			above = append(above, ms(el)/float64(w))
		}
	}
	if !lastVerified {
		r.verify(&t, lastW, lastStart, nil, 0)
	}
	// Widths vary, so the median call's rate would jump between width
	// clusters from run to run: throughput is total adds over total
	// call time.
	t.gflops = float64(vecs) * adds(r.n) / (busy * 1e9)
	t.extra = []metric{
		{"vec_ms.below_soa_min", median(below), "ms"},
		{"vec_ms.soa", median(above), "ms"},
	}
	return t
}

func (r *batchRunner) close() error { return nil }
