// Command perfbench is the repository's benchmark.  It runs one workload
// from a seed, checks the engine's outputs against its own textbook
// radix-2 WHT, prints every metric by name with its unit, and ends with
// one JSON line.  Run it from the checkout root through the wrapper that
// builds it:
//
//	bash perfbench/run.sh --workload transform-n22 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON line carries the gated end-to-end metrics of
// BENCHMARK.json:
//
//   - setup_s: the median of nine set-ups, each from workload start to
//     ready: inputs and their reference spectra, schedule compile and a
//     verified warm call, server boot, store create and ingest;
//   - gflops: n*2^n adds per call over the median call's time (batch:
//     total adds over total call time, since widths vary; serve: adds
//     answered per second at the offered load);
//   - p50_ms: the median call latency (serve: the heavy phase, each
//     request timed from when it was due);
//   - peak_rss_mb: the process's peak resident set.
//
// Tails (p90_ms, p99_ms), the float32 figures, serve's per-phase figures
// and fail_frac are printed above the JSON line but not gated: on a
// shared 2-vCPU guest they move too much between runs to gate.
//
// With --trace 1 the workload runs half its time untraced and half with
// a span around every public call, in alternating quarters, then a fixed
// suite of per-layer probes runs; the JSON line carries the per-layer
// metrics and the spans are written to <out-dir>/trace-<workload>-<seed>.json.
//
// All load comes from this one process at GOMAXPROCS=2, with at most two
// workers and two connections.  Every workload runs the engine's default
// cached schedule (wht.ScheduleForSize); nothing is tuned.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	// workers bounds every parallel call and the connection count.
	workers = 2
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 9
	// warmup is the untimed load between set-up and the timed run.
	warmup = time.Second
)

// env is what a workload's set-up receives.
type env struct {
	seed   uint64
	outDir string
	rep    int // set-up repetition, for unique scratch names
	tr     *tracer
	parent int64
}

// rng returns the generator of one named stream of the run's seed: the
// same seed gives the same inputs in every set-up repetition.
func (e *env) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(e.seed, stream)) }

// runner is a workload after set-up.
type runner interface {
	// run drives timed calls for d and reports them.
	run(ctx context.Context, d time.Duration, tr *tracer, parent int64) tally
	// close tears the workload down.  An error is a failure only
	// teardown can see, such as server counters that disagree with what
	// the clients received.
	close() error
}

// tally is what one timed run of a workload saw.
type tally struct {
	lat       []float64 // ms per gated call: the latency a caller sees
	gflops    float64   // GFLOP/s: of the median call, or served per second
	attempted int
	failed    int      // calls that did not return a correct result
	wrong     int      // of which returned a wrong result
	notes     []string // the first failures, for the log
	extra     []metric // figures printed for readers, not gated
}

// fail counts a call that returned no result: an error, a rejection or
// a missed deadline.
func (t *tally) fail(note string) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, note)
	}
}

// mismatch counts a call whose result differs from the reference.
func (t *tally) mismatch(note string) {
	t.wrong++
	t.fail(note)
}

type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workload struct {
	name  string
	setup func(ctx context.Context, e *env) (runner, error)
}

var workloads = []workload{
	{"transform-n22", setupTransform},
	{"batch-n16-f32", setupBatch},
	{"serve-n10", setupServe},
	{"oocore-n22", setupOOCore},
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed seconds per run")
	traceFlag := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	outDir := flag.String("out-dir", ".bench_build", "directory for scratch files and spans")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *traceFlag == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout *os.File, name string, seed uint64, seconds int, traced bool, outDir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(workers)
	// A stuck run must still end well inside the caller's limit.
	watchdog := time.AfterFunc(time.Duration(seconds)*time.Second+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(2)
	})
	defer watchdog.Stop()
	ctx := context.Background()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	root := tr.begin(0, "bench", "workload "+name)

	// Set up setupReps times; keep the last.  Each earlier repetition is
	// torn down and its memory returned before the next starts, so every
	// set-up starts from the same state and the peak RSS is one set-up's.
	var r runner
	var setups []float64
	for rep := range setupReps {
		if r != nil {
			if err := r.close(); err != nil {
				return fmt.Errorf("%s teardown of a set-up repetition: %w", name, err)
			}
			r = nil
			debug.FreeOSMemory()
		}
		sp := tr.begin(root.ID(), "bench", "setup")
		t := time.Now()
		nr, err := w.setup(ctx, &env{seed: seed, outDir: outDir, rep: rep, tr: tr, parent: sp.ID()})
		setups = append(setups, time.Since(t).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		r = nr
	}

	// The first second of load on a quiet host runs slow whatever the
	// program does; it is checked but not timed.
	warm := r.run(ctx, warmup, nil, 0)

	d := time.Duration(seconds) * time.Second
	var tallies []tally
	var timed []int64 // the spans around the traced quarters
	if traced {
		// Untraced and traced quarters alternate, so drift during the
		// run does not pass for tracing overhead.
		for q := range 4 {
			if q%2 == 0 {
				tallies = append(tallies, r.run(ctx, d/4, nil, 0))
				continue
			}
			sp := tr.begin(root.ID(), "bench", "timed")
			tallies = append(tallies, r.run(ctx, d/4, tr, sp.ID()))
			sp.end()
			timed = append(timed, sp.ID())
		}
	} else {
		tallies = append(tallies, r.run(ctx, d, nil, 0))
	}
	sp := tr.begin(root.ID(), "bench", "close")
	var teardown tally
	if err := r.close(); err != nil {
		teardown.mismatch("teardown: " + err.Error())
	}
	sp.end()
	root.end()

	attempted, failed, wrong := 0, 0, 0
	var notes []string
	for _, t := range append([]tally{warm, teardown}, tallies...) {
		attempted += t.attempted
		failed += t.failed
		wrong += t.wrong
		notes = append(notes, t.notes...)
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", n)
	}
	if attempted == 0 {
		return fmt.Errorf("%s made no timed call", name)
	}

	// Peak RSS is read before the host ceilings allocate their arrays.
	peakRSS := peakRSSMiB()
	host := measureHost()
	printHost(stdout, host)
	// Rejections and missed deadlines count in failed; only a wrong
	// result makes the run incorrect.
	res := result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	// The end-to-end figures come from the untraced run (its first
	// quarter when traced).
	first := tallies[0]
	e2e := []metric{
		{"setup_s", median(setups), "s"},
		{"gflops", first.gflops, "GFLOP/s"},
		{"p50_ms", quantile(first.lat, 0.5), "ms"},
		{"peak_rss_mb", peakRSS, "MiB"},
	}
	printMetrics(stdout, "end_to_end", e2e)
	printMetrics(stdout, "figure", append(first.extra,
		metric{"p90_ms", quantile(first.lat, 0.9), "ms"},
		metric{"p99_ms", quantile(first.lat, 0.99), "ms"},
		metric{"fail_frac", float64(failed) / float64(attempted), "1"},
		metric{"samples", float64(len(first.lat)), "count"}))
	if !traced {
		for _, m := range e2e {
			res.Metrics[m.Name] = m
		}
	} else {
		layer, err := probeLayers(ctx, outDir, host)
		if err != nil {
			return fmt.Errorf("per-layer probes: %w", err)
		}
		self := tr.selfMs(timed)
		var plain, withSpans []float64
		for q, t := range tallies {
			if q%2 == 0 {
				plain = append(plain, t.lat...)
			} else {
				withSpans = append(withSpans, t.lat...)
			}
		}
		layer = append(layer,
			metric{"fail_frac", float64(failed) / float64(attempted), "1"},
			metric{"trace.spans", float64(tr.count()), "count"},
			metric{"trace.overhead_frac", median(withSpans)/median(plain) - 1, "1"},
		)
		for _, l := range layers {
			layer = append(layer, metric{"trace.self_ms." + l, self[l], "ms"})
		}
		printMetrics(stdout, "per_layer", layer)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := tr.write(path, map[string]any{"workload": name, "seed": seed, "seconds": seconds, "host": host}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans %s %d\n", path, tr.count())
		for _, m := range layer {
			res.Metrics[m.Name] = m
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d calls returned a wrong result", name, wrong, attempted)
	}
	return nil
}

func printHost(w *os.File, h hostInfo) {
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d isa=%s go=%s l2_kib=%d l3_kib=%d copy_mib=%d\n",
		h.NProc, h.GoMaxProcs, h.ISA, h.GoVersion, h.L2KiB, h.L3KiB, copyMiB)
	printMetrics(w, "host", []metric{
		{"host.copy_gbps", h.CopyGBps, "GB/s"},
		{"host.add_gflops", h.AddGFlops, "GFLOP/s"},
		{"host.timer_floor_ms", h.TimerFloorM, "ms"},
	})
}

func printMetrics(w *os.File, kind string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-10s %-28s %14.6g %s\n", kind, m.Name, m.Value, m.Unit)
	}
}
