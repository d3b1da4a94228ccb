package main

import (
	"context"
	"fmt"
	"time"

	"repro/wht"
)

// resetEvery bounds how many in-place transforms a vector takes before
// its input is copied back, keeping the power-of-two growth of repeated
// transforms far from float32 overflow.
const resetEvery = 8

// transformRunner is the caller with one long signal: f64 and f32
// vectors of 2^22 elements through wht.RunParallel at two workers.
type transformRunner struct {
	n     int
	s     *wht.Schedule
	sig64 signal[float64]
	sig32 signal[float32]
	w64   []float64
	w32   []float32
	pick  sampler
}

func setupTransform(_ context.Context, e *env) (runner, error) {
	const n = 22
	rng := e.rng(1)
	r := &transformRunner{n: n, sig64: newSignal[float64](rng, n), sig32: newSignal[float32](rng, n), pick: sampler{e.rng(2)}}
	r.w64 = make([]float64, 1<<n)
	r.w32 = make([]float32, 1<<n)
	// Every set-up compiles: the schedule cache starts empty.
	wht.ResetTuning()
	sp := e.tr.begin(e.parent, "wht", "wht.ScheduleForSize")
	r.s = wht.ScheduleForSize(n)
	sp.end()
	copy(r.w64, r.sig64.x)
	copy(r.w32, r.sig32.x)
	if err := wht.RunParallel(r.s, r.w64, workers); err != nil {
		return nil, err
	}
	if err := wht.RunParallel(r.s, r.w32, workers); err != nil {
		return nil, err
	}
	if !r.sig64.matchesAfter(r.w64, 1) || !r.sig32.matchesAfter(r.w32, 1) {
		return nil, fmt.Errorf("warm-up transform differs from the reference")
	}
	return r, nil
}

func (r *transformRunner) run(_ context.Context, d time.Duration, tr *tracer, parent int64) tally {
	var t tally
	v64 := &vecLoop[float64]{sig: r.sig64, w: r.w64, s: r.s, name: "wht.RunParallel[f64]"}
	v32 := &vecLoop[float32]{sig: r.sig32, w: r.w32, s: r.s, name: "wht.RunParallel[f32]"}
	stop := time.Now().Add(d)
	for b := 0; time.Now().Before(stop); b++ {
		v64.block(&t, tr, parent, b == 0, r.pick.pick())
		v32.block(&t, tr, parent, b == 0, r.pick.pick())
	}
	v64.finish(&t)
	v32.finish(&t)
	t.lat = v64.lat
	t.gflops = medianGFlops(adds(r.n), v64.lat)
	t.extra = []metric{
		{"gflops.mean", float64(len(v64.lat)) * adds(r.n) / (v64.busy * 1e9), "GFLOP/s"},
		{"gflops_f32", medianGFlops(adds(r.n), v32.lat), "GFLOP/s"},
		{"p50_ms_f32", quantile(v32.lat, 0.5), "ms"},
	}
	return t
}

func (r *transformRunner) close() error { return nil }

// vecLoop drives one vector through blocks of back-to-back in-place
// RunParallel calls.  Checks and copies sit between blocks, not between
// calls, so the workers stay busy while the clock runs.
type vecLoop[T wht.Float] struct {
	sig      signal[T]
	w        []T
	s        *wht.Schedule
	name     string
	k        int // transforms applied since the input was copied in
	verified bool
	lat      []float64
	busy     float64
}

// block copies the input in and runs resetEvery calls on it, verifying
// the first call of a run when first is set and the block's last call
// when verify is.
func (v *vecLoop[T]) block(t *tally, tr *tracer, parent int64, first, verify bool) {
	sp := tr.begin(parent, "bench", "copy-in")
	copy(v.w, v.sig.x)
	sp.end()
	v.k, v.verified = 0, false
	for v.k < resetEvery {
		sp := tr.begin(parent, "wht", v.name)
		start := time.Now()
		err := wht.RunParallel(v.s, v.w, workers)
		el := time.Since(start)
		sp.end()
		v.k++
		t.attempted++
		if err != nil {
			t.fail(fmt.Sprintf("%s: %v", v.name, err))
			v.verified = true // nothing left to check
			return
		}
		v.lat = append(v.lat, ms(el))
		v.busy += el.Seconds()
		v.verified = false
		if (first && v.k == 1) || (verify && v.k == resetEvery) {
			if !v.check(t, tr, parent) {
				return
			}
		}
	}
}

func (v *vecLoop[T]) check(t *tally, tr *tracer, parent int64) bool {
	sp := tr.begin(parent, "bench", "verify")
	defer sp.end()
	v.verified = true
	if !v.sig.matchesAfter(v.w, v.k) {
		t.mismatch(fmt.Sprintf("%s: output differs from the reference after %d in-place calls", v.name, v.k))
		return false
	}
	return true
}

// finish verifies the last call when the sample skipped it.
func (v *vecLoop[T]) finish(t *tally) {
	if !v.verified && v.k > 0 {
		v.check(t, nil, 0)
	}
}
