package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/serve"
)

// The serve workload's open-loop rates (requests per second).
const (
	lightRPS = 2000
	heavyRPS = 8000
)

// serveN is the serve workload's transform size.
const serveN = 10

// requestDeadline is the deadline every request carries: far above the
// 5 ms SLO, so a miss means a stall, not a slow request.
const requestDeadline = time.Second

// daemon is an in-process serve.Server on a unix socket with one client
// per worker.
type daemon struct {
	srv     *serve.Server
	served  chan error
	clients []*serve.Client
	sent    int // requests the clients have had answered
	ok      int // of which StatusOK, whatever their payload
}

// startDaemon boots a server on the abstract unix socket named name
// (Linux: no file, so no path-length limit and nothing to clean up).
func startDaemon(name string) (*daemon, error) {
	sock := fmt.Sprintf("@perfbench-%d-%s", os.Getpid(), name)
	srv := serve.NewServer(serve.Config{WarmSizes: []int{serveN}, Logf: func(string, ...any) {}})
	ln, err := net.Listen("unix", sock)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: srv, served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(ln) }()
	for range workers {
		c, err := serve.Dial("unix", sock)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// stop closes the clients and the server, waits for Serve to return,
// and then compares the server's counters with what the clients saw.
// The counters are read only after Close, because before it they can
// lag replies a client already holds.
func (d *daemon) stop() (serve.Metrics, error) {
	for _, c := range d.clients {
		c.Close()
	}
	d.srv.Close()
	// Serve's own error is not checked: it reports "closed" when Close
	// wins the race with a Serve that took no traffic, and an accept
	// failure under traffic already shows as client errors and in the
	// counters below.
	<-d.served
	m := d.srv.Metrics()
	var err error
	if m.Accepted != uint64(d.sent) || m.Responded != uint64(d.sent) || m.OK != uint64(d.ok) {
		err = fmt.Errorf("server counters accepted=%d responded=%d ok=%d, clients saw %d answered, %d ok",
			m.Accepted, m.Responded, m.OK, d.sent, d.ok)
	}
	return m, err
}

// openLoop is one fixed-rate phase of the open-loop generator.
type openLoop struct {
	lat      []float64 // ms from when each request was due to its reply
	rtt      []float64 // ms from the actual send to the reply
	late     []float64 // ms the send ran behind its due time
	statusOK int       // replies with StatusOK
	bad      int       // errors, other statuses and wrong payloads
	wrong    int       // of which wrong payloads
	wall     time.Duration
	errs     []string
}

// generate sends requests at rate for dur on the daemon's connections,
// in turn.  Request i is due at i/rate after the start; at each wake-up
// every request already due is sent, so the generator never drops load
// when the timer oversleeps, and each request is timed from its due
// time.  pick chooses each request's input.
func (d *daemon) generate(rate float64, dur time.Duration, pool []signal[float64], pick *rand.Rand, tr *tracer, parent int64) openLoop {
	total := int(math.Round(rate * dur.Seconds()))
	o := openLoop{lat: make([]float64, total), rtt: make([]float64, total), late: make([]float64, total)}
	failed := make([]string, total)
	okStatus := make([]bool, total)
	wrong := make([]bool, total)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < total; {
		now := time.Since(t0)
		for ; i < total && time.Duration(i)*interval <= now; i++ {
			due := t0.Add(time.Duration(i) * interval)
			sig := &pool[pick.IntN(len(pool))]
			c := d.clients[i%len(d.clients)]
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sp := tr.begin(parent, "serve", "serve.Client.Transform")
				sent := time.Now()
				res, err := c.Transform(sig.x, requestDeadline)
				done := time.Now()
				sp.end()
				o.late[i] = ms(sent.Sub(due))
				o.rtt[i] = ms(done.Sub(sent))
				o.lat[i] = ms(done.Sub(due))
				okStatus[i] = err == nil && res.Status == serve.StatusOK
				switch {
				case err != nil:
					failed[i] = err.Error()
				case res.Status != serve.StatusOK:
					failed[i] = "status " + res.Status.String()
				case !sig.matchesAfter(res.Data, 1):
					failed[i] = "response differs from the reference"
					wrong[i] = true
				}
			}(i)
		}
		if i < total {
			time.Sleep(time.Duration(i)*interval - time.Since(t0))
		}
	}
	wg.Wait()
	o.wall = time.Since(t0)
	for i, f := range failed {
		if okStatus[i] {
			o.statusOK++
		}
		if f == "" {
			continue
		}
		o.bad++
		if wrong[i] {
			o.wrong++
		}
		if len(o.errs) < 5 {
			o.errs = append(o.errs, f)
		}
	}
	return o
}

// serveRunner is an in-process daemon on a unix socket with two client
// connections under open-loop load at a light and a heavy rate.
type serveRunner struct {
	d    *daemon
	pool []signal[float64]
	pick *rand.Rand
}

func setupServe(_ context.Context, e *env) (runner, error) {
	rng := e.rng(1)
	r := &serveRunner{pick: e.rng(2)}
	for range 256 {
		r.pool = append(r.pool, newSignal[float64](rng, serveN))
	}
	sp := e.tr.begin(e.parent, "serve", "serve.NewServer+Dial")
	d, err := startDaemon(fmt.Sprintf("setup-%d", e.rep))
	sp.end()
	if err != nil {
		return nil, err
	}
	// The first requests wait out a timer-bound batch window or two,
	// which would make set-up time bimodal; the untimed warm-up load
	// after set-up exercises the server instead.
	r.d = d
	return r, nil
}

func (r *serveRunner) run(_ context.Context, d time.Duration, tr *tracer, parent int64) tally {
	var t tally
	phases := []struct {
		name string
		rps  float64
	}{{"light", lightRPS}, {"heavy", heavyRPS}}
	var loops []openLoop
	var wall time.Duration
	for _, ph := range phases {
		sp := tr.begin(parent, "bench", "open-loop "+ph.name)
		o := r.d.generate(ph.rps, d/time.Duration(len(phases)), r.pool, r.pick, tr, sp.ID())
		sp.end()
		loops = append(loops, o)
		wall += o.wall
		r.d.sent += len(o.lat)
		r.d.ok += o.statusOK
		t.attempted += len(o.lat)
		for _, e := range o.errs {
			t.fail(ph.name + ": " + e)
		}
		t.failed += o.bad - len(o.errs)
		t.wrong += o.wrong
		t.gflops += float64(len(o.lat)-o.bad) * adds(serveN)
		t.extra = append(t.extra,
			metric{"p50_ms." + ph.name, quantile(o.lat, 0.5), "ms"},
			metric{"p90_ms." + ph.name, quantile(o.lat, 0.9), "ms"},
			metric{"p99_ms." + ph.name, quantile(o.lat, 0.99), "ms"},
			metric{"rtt_ms.p50." + ph.name, quantile(o.rtt, 0.5), "ms"},
			metric{"gen_late_ms.p99." + ph.name, quantile(o.late, 0.99), "ms"},
		)
	}
	t.gflops /= wall.Seconds() * 1e9
	// The heavy phase is the gated one: it is where coalescing, queueing
	// and the protocol carry the load.
	t.lat = loops[len(loops)-1].lat
	return t
}

func (r *serveRunner) close() error {
	_, err := r.d.stop()
	return err
}
