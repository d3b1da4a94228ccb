package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/wht"
)

// The probe suite is the same in every traced run: each layer measured
// once at the size of the workload that loads it (exec and shard at
// n=22, SoA at n=16 float32, serve at n=10), so every traced run
// reports every per-layer metric.
const (
	probeN     = 22
	probeSoAN  = 16
	probeReps  = 5
	sloP99Ms   = 5.0
	kneeStepS  = 0.5
	probeSeed  = 0x5eed
	soaNarrow  = 4
	soaWide    = 32
	incacheLog = 12
)

type probeSet struct{ out []metric }

func (p *probeSet) add(name string, v float64, unit string) {
	p.out = append(p.out, metric{name, v, unit})
}

func probeLayers(ctx context.Context, outDir string, h hostInfo) ([]metric, error) {
	p := &probeSet{}
	p.add("host.nproc", float64(h.NProc), "count")
	p.add("host.gomaxprocs", float64(h.GoMaxProcs), "count")
	p.add("host.l2_kib", float64(h.L2KiB), "KiB")
	p.add("host.l3_kib", float64(h.L3KiB), "KiB")
	p.add("host.copy_mib", copyMiB, "MiB")
	p.add("host.copy_gbps", h.CopyGBps, "GB/s")
	p.add("host.add_gflops", h.AddGFlops, "GFLOP/s")
	p.add("host.timer_floor_ms", h.TimerFloorM, "ms")
	for _, probe := range []func() error{
		func() error { return probeExec(ctx, p, h) },
		func() error { return probeSoA(ctx, p) },
		func() error { return probeCodelet(p, h) },
		func() error { return probeModel(p) },
		func() error { return probeServe(ctx, p) },
		func() error { return probeShard(p, outDir) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func probeRNG() *rand.Rand { return rand.New(rand.NewPCG(probeSeed, 0)) }

// Timing probes transform zero vectors: the butterflies cost the same
// on any finite data, and zeros stay zero however often they are
// transformed in place.  The workloads verify outputs; probes only time.

// timeOn times reps in-place calls of f on one vector of 2^n zeros.
func timeOn[T wht.Float](n, reps int, f func([]T) error) (float64, error) {
	w := make([]T, 1<<uint(n))
	return timeMedianMs(reps, func() error { return f(w) })
}

func probeExec(ctx context.Context, p *probeSet, h hostInfo) error {
	pl := wht.Balanced(probeN, wht.MaxLeafLog)
	compile, err := timeMedianMs(probeReps, func() error { _, err := wht.Compile(pl); return err })
	if err != nil {
		return err
	}
	p.add("exec.compile_ms", compile, "ms")
	st := wht.ScheduleCacheStats()
	if lookups := st.Hits + st.Misses; lookups > 0 {
		p.add("exec.cache_hit_frac", float64(st.Hits)/float64(lookups), "1")
	} else {
		p.add("exec.cache_hit_frac", 0, "1")
	}

	s := wht.ScheduleForSize(probeN)
	var timeErr error
	time64 := func(f func([]float64) error) float64 {
		t, err := timeOn(probeN, probeReps, f)
		timeErr = cmp.Or(timeErr, err)
		return t
	}
	time32 := func(f func([]float32) error) float64 {
		t, err := timeOn(probeN, probeReps, f)
		timeErr = cmp.Or(timeErr, err)
		return t
	}
	seq := time64(func(w []float64) error { return wht.Run(s, w) })
	seq32 := time32(func(w []float32) error { return wht.Run(s, w) })
	par := time64(func(w []float64) error { return wht.RunParallel(s, w, workers) })
	par32 := time32(func(w []float32) error { return wht.RunParallel(s, w, workers) })
	pipe := time64(func(w []float64) error { return wht.RunParallelMode(s, w, workers, wht.PipelinedParallel) })
	barrier := time64(func(w []float64) error { return wht.RunParallelMode(s, w, workers, wht.BarrierParallel) })
	if timeErr != nil {
		return timeErr
	}
	bytes := float64(s.NumStages()) * 2 * 8 * float64(s.Size())
	p.add("exec.seq_ms", seq, "ms")
	p.add("exec.seq_ms_f32", seq32, "ms")
	p.add("exec.par_ms", par, "ms")
	p.add("exec.par_ms_f32", par32, "ms")
	p.add("exec.pipelined_ms", pipe, "ms")
	p.add("exec.barrier_ms", barrier, "ms")
	p.add("exec.par_speedup", seq/par, "x")
	p.add("exec.bytes_per_call", bytes, "B")
	p.add("exec.copy_frac", bytes/(h.CopyGBps*1e9)/(seq/1e3), "1")

	// The out-of-core form TransformLarge compiles for the oocore
	// workload, run over RAM so the store is out of the picture.
	form, err := plan.TwoPhase(plan.Balanced(probeN, min(plan.MaxLeafLog, oocoreResidentLog)), oocoreResidentLog)
	if err != nil {
		return err
	}
	var seg *wht.Schedule
	segCompile, err := timeMedianMs(probeReps, func() error { seg, err = wht.CompileSegmented(form); return err })
	if err != nil {
		return err
	}
	opt := wht.SegOptions{Workers: workers, ResidentElems: workers << oocoreResidentLog}
	segmented, err := timeOn(probeN, probeReps, func(w []float64) error {
		return wht.RunSegmented(ctx, seg, wht.NewSliceStore(w), opt)
	})
	if err != nil {
		return err
	}
	p.add("exec.segment_compile_ms", segCompile, "ms")
	p.add("exec.segmented_ms", segmented, "ms")
	return nil
}

// probeSoA times the batch tiers at n=16 float32 on one width below
// and one above wht.DefaultSoAMinBatch.
func probeSoA(ctx context.Context, p *probeSet) error {
	s := wht.ScheduleForSize(probeSoAN)
	for _, b := range []int{soaNarrow, soaWide} {
		xs := make([][]float32, b)
		for i := range xs {
			xs[i] = make([]float32, 1<<probeSoAN)
		}
		tiers := []struct {
			name string
			run  func() error
		}{
			{"soa_ms", func() error { return wht.RunBatchSoA(s, xs) }},
			{"soa_par_ms", func() error { return wht.RunBatchSoAParallel(s, xs, workers) }},
			{"pervector_ms", func() error {
				for _, x := range xs {
					if err := wht.Run(s, x); err != nil {
						return err
					}
				}
				return nil
			}},
			{"batch_par_ms", func() error { return wht.RunBatchParallelCtx(ctx, s, xs, workers) }},
		}
		for _, tier := range tiers {
			t, err := timeMedianMs(probeReps, tier.run)
			if err != nil {
				return err
			}
			p.add(fmt.Sprintf("exec.%s.b%d", tier.name, b), t, "ms")
		}
	}
	return nil
}

func probeCodelet(p *probeSet, h hostInfo) error {
	s := wht.ScheduleForSize(probeSoAN)
	prev := wht.ActiveBackend()
	defer wht.SetBackend(prev)
	var ts [2]float64
	for i, b := range []wht.Backend{wht.ScalarBackend, wht.AutoBackend} {
		wht.SetBackend(b)
		t, err := timeOn(probeSoAN, 2*probeReps+1, func(w []float64) error { return wht.Run(s, w) })
		if err != nil {
			return err
		}
		ts[i] = t
	}
	p.add("codelet.simd_speedup", ts[0]/ts[1], "x")

	// In-cache rate at n=12, timed over enough calls to clear the timer.
	const calls = 256
	s12 := wht.ScheduleForSize(incacheLog)
	t, err := timeOn(incacheLog, 2*probeReps+1, func(w []float64) error {
		for range calls {
			if err := wht.Run(s12, w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.add("codelet.incache_gflops", calls*adds(incacheLog)/(t*1e6), "GFLOP/s")
	p.add("codelet.incache_add_frac", calls*adds(incacheLog)/(t*1e6)/h.AddGFlops, "1")
	return nil
}

// probeModel reports the virtual Opteron's exact counts for the schedule
// each workload runs.
func probeModel(p *probeSet) error {
	m := machine.VirtualOpteron224()
	type target struct {
		name string
		pl   *plan.Node
		run  func(t *trace.Tracer) (trace.Counters, error)
	}
	flat := func(n int) target {
		pl := plan.Balanced(n, plan.MaxLeafLog)
		return target{fmt.Sprintf("n%d", n), pl, func(t *trace.Tracer) (trace.Counters, error) {
			s, err := wht.Compile(pl)
			if err != nil {
				return trace.Counters{}, err
			}
			return t.RunSchedule(s), nil
		}}
	}
	soaPlan := plan.Balanced(probeSoAN, plan.MaxLeafLog)
	segPlan := plan.Balanced(probeN, min(plan.MaxLeafLog, oocoreResidentLog))
	targets := []target{
		flat(probeN),
		flat(serveN),
		{fmt.Sprintf("soa%dx%d", probeSoAN, soaWide), soaPlan, func(t *trace.Tracer) (trace.Counters, error) {
			s, err := wht.Compile(soaPlan)
			if err != nil {
				return trace.Counters{}, err
			}
			return t.RunScheduleSoA(s, soaWide), nil
		}},
		{fmt.Sprintf("seg%d", probeN), segPlan, func(t *trace.Tracer) (trace.Counters, error) {
			form, err := plan.TwoPhase(segPlan, oocoreResidentLog)
			if err != nil {
				return trace.Counters{}, err
			}
			s, err := wht.CompileSegmented(form)
			if err != nil {
				return trace.Counters{}, err
			}
			return t.RunScheduleSegmented(s), nil
		}},
	}
	for _, tg := range targets {
		c, err := tg.run(trace.New(m))
		if err != nil {
			return err
		}
		p.add("model.instructions."+tg.name, float64(c.Instructions()), "count")
		p.add("model.l1_misses."+tg.name, float64(c.Mem.L1Misses), "count")
		p.add("model.cycles."+tg.name, core.Cycles(c, m, tg.pl.Hash()), "cycles")
	}
	return nil
}

func probeServe(ctx context.Context, p *probeSet) error {
	rng := probeRNG()
	pool := make([]signal[float64], 64)
	for i := range pool {
		pool[i] = newSignal[float64](rng, serveN)
	}
	t0 := time.Now()
	d, err := startDaemon("probe")
	if err != nil {
		return err
	}
	p.add("serve.boot_ms", ms(time.Since(t0)), "ms")
	var heavy openLoop
	for _, ph := range []struct {
		name string
		rps  float64
	}{{"light", lightRPS}, {"heavy", heavyRPS}} {
		o := d.generate(ph.rps, time.Second, pool, rng, nil, 0)
		d.sent += len(o.lat)
		d.ok += o.statusOK
		if o.wrong > 0 {
			d.stop()
			return fmt.Errorf("serve probe %s: %s", ph.name, o.errs[0])
		}
		p.add("serve.p50_ms."+ph.name, quantile(o.lat, 0.5), "ms")
		p.add("serve.p99_ms."+ph.name, quantile(o.lat, 0.99), "ms")
		heavy = o
	}
	p.add("serve.rtt_ms.p50", quantile(heavy.rtt, 0.5), "ms")
	p.add("serve.rtt_ms.p99", quantile(heavy.rtt, 0.99), "ms")
	p.add("serve.gen_late_ms.p99", quantile(heavy.late, 0.99), "ms")
	m, err := d.stop()
	if err != nil {
		return err
	}
	perBatch := float64(m.BatchedVecs) / float64(max(m.Batches, 1))
	p.add("serve.vecs_per_batch", perBatch, "count")
	p.add("serve.reject_frac", float64(m.Rejected)/float64(max(m.Responded, 1)), "1")

	// The executor alone at the observed mean batch width.
	xs := make([][]float64, max(1, int(math.Round(perBatch))))
	for i := range xs {
		xs[i] = make([]float64, 1<<serveN)
	}
	s := wht.ScheduleForSize(serveN)
	execMs, err := timeMedianMs(101, func() error { return wht.RunBatchParallelCtx(ctx, s, xs, workers) })
	if err != nil {
		return err
	}
	p.add("serve.exec_ms", execMs, "ms")

	// The highest stepped rate whose p99 meets the SLO with no failure
	// and no backlog (the step ends within a fifth of its length).
	d, err = startDaemon("knee")
	if err != nil {
		return err
	}
	knee := 0.0
	for _, rate := range []float64{1000, 2000, 4000, 8000, 12000, 16000, 24000} {
		o := d.generate(rate, time.Duration(kneeStepS*float64(time.Second)), pool, rng, nil, 0)
		d.sent += len(o.lat)
		d.ok += o.statusOK
		if o.bad > 0 || quantile(o.lat, 0.99) > sloP99Ms || o.wall.Seconds() > 1.2*kneeStepS {
			break
		}
		knee = rate
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	p.add("serve.knee_rps", knee, "1/s")
	return nil
}

func probeShard(p *probeSet, outDir string) error {
	dir := filepath.Join(outDir, fmt.Sprintf("probe-shard-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	x := signVector(probeRNG(), probeN)
	bytes := float64(len(x) * 8)

	t0 := time.Now()
	st, err := wht.CreateShardStore[float64](dir, len(x), wht.ShardOptions{})
	if err != nil {
		return err
	}
	p.add("shard.create_ms", ms(time.Since(t0)), "ms")
	t0 = time.Now()
	if err := st.Write(x, 0); err != nil {
		st.Close()
		return err
	}
	p.add("shard.ingest_gbps", bytes/time.Since(t0).Seconds()/1e9, "GB/s")
	t0 = time.Now()
	if err := st.Close(); err != nil {
		return err
	}
	p.add("shard.seal_ms", ms(time.Since(t0)), "ms")
	t0 = time.Now()
	st, err = wht.OpenShardStore[float64](dir)
	if err != nil {
		return err
	}
	p.add("shard.open_verify_ms", ms(time.Since(t0)), "ms")
	back := make([]float64, len(x))
	t0 = time.Now()
	err = st.Read(back, 0)
	el := time.Since(t0)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.add("shard.readback_gbps", bytes/el.Seconds()/1e9, "GB/s")
	for i := range x {
		if back[i] != x[i] {
			return fmt.Errorf("shard read-back differs from the ingested vector at %d", i)
		}
	}
	return nil
}
