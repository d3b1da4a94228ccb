package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/wht"
)

// oocoreResidentLog is the out-of-core workload's resident-window
// budget: a sixteenth of the 2^22 vector per window.
const oocoreResidentLog = 18

// oocoreRunner is wht.TransformLarge over a shard store at n=22 with
// two workers: the only workload through internal/shard and transpose
// segments.
type oocoreRunner struct {
	n     int
	dir   string
	store *wht.ShardStore[float64]
	sig   signal[float64]
	buf   []float64
	k     int // transforms applied since the input was ingested
	pick  sampler
}

func setupOOCore(ctx context.Context, e *env) (runner, error) {
	const n = 22
	r := &oocoreRunner{n: n, sig: newSignal[float64](e.rng(1), n), pick: sampler{e.rng(2)}, buf: make([]float64, 1<<n)}
	r.dir = filepath.Join(e.outDir, fmt.Sprintf("shard-%d-%d", os.Getpid(), e.rep))
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	sp := e.tr.begin(e.parent, "shard", "wht.CreateShardStore")
	st, err := wht.CreateShardStore[float64](r.dir, 1<<n, wht.ShardOptions{})
	sp.end()
	if err != nil {
		return nil, err
	}
	r.store = st
	// Ingest, then one warm transform that faults in both planes.
	var t tally
	if r.ingest(&t, e.tr, e.parent) && r.transform(ctx, &t, e.tr, e.parent) >= 0 {
		r.verify(&t, e.tr, e.parent)
	}
	if t.failed > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up: %s", t.notes[0])
	}
	return r, nil
}

func (r *oocoreRunner) ingest(t *tally, tr *tracer, parent int64) bool {
	sp := tr.begin(parent, "shard", "ShardStore.Write")
	defer sp.end()
	r.k = 0
	if err := r.store.Write(r.sig.x, 0); err != nil {
		t.fail(fmt.Sprintf("ingest: %v", err))
		return false
	}
	return true
}

func (r *oocoreRunner) transform(ctx context.Context, t *tally, tr *tracer, parent int64) time.Duration {
	sp := tr.begin(parent, "wht", "wht.TransformLarge")
	t0 := time.Now()
	err := wht.TransformLarge(ctx, r.store, wht.LargeOptions{ResidentLog: oocoreResidentLog, Workers: workers})
	el := time.Since(t0)
	sp.end()
	r.k++
	if err != nil {
		t.fail(fmt.Sprintf("TransformLarge: %v", err))
		return -1
	}
	return el
}

// verify reads the store back and checks it against the reference.
func (r *oocoreRunner) verify(t *tally, tr *tracer, parent int64) bool {
	sp := tr.begin(parent, "shard", "ShardStore.Read")
	err := r.store.Read(r.buf, 0)
	sp.end()
	if err != nil {
		t.fail(fmt.Sprintf("read back: %v", err))
		return false
	}
	sp = tr.begin(parent, "bench", "verify")
	defer sp.end()
	if !r.sig.matchesAfter(r.buf, r.k) {
		t.mismatch(fmt.Sprintf("read back after %d in-place calls differs from the reference", r.k))
		return false
	}
	return true
}

// run ingests the input and transforms it in place resetEvery times per
// block, like the transform workload: read-backs sit between blocks, and
// cover the first call of a run, a seeded quarter of the blocks' last
// calls, and the run's last call.
func (r *oocoreRunner) run(ctx context.Context, d time.Duration, tr *tracer, parent int64) tally {
	var t tally
	var busy float64
	verified := true
	stop := time.Now().Add(d)
	for b := 0; time.Now().Before(stop); b++ {
		if !r.ingest(&t, tr, parent) {
			break
		}
		verifyLast := r.pick.pick()
		for r.k < resetEvery {
			t.attempted++
			el := r.transform(ctx, &t, tr, parent)
			if el < 0 {
				verified = true // nothing left to check
				break
			}
			t.lat = append(t.lat, ms(el))
			busy += el.Seconds()
			verified = false
			if (b == 0 && r.k == 1) || (verifyLast && r.k == resetEvery) {
				verified = true
				if !r.verify(&t, tr, parent) {
					break
				}
			}
		}
	}
	if !verified {
		r.verify(&t, nil, 0)
	}
	t.gflops = medianGFlops(adds(r.n), t.lat)
	t.extra = []metric{{"gflops.mean", float64(len(t.lat)) * adds(r.n) / (busy * 1e9), "GFLOP/s"}}
	return t
}

// close seals the store, as every owner of one must, and removes it.
func (r *oocoreRunner) close() error {
	err := r.store.Close()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	return nil
}
