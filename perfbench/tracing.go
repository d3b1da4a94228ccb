package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span can belong to.  "bench" is the benchmark's own work
// (workload, phase, input copies and verification); the others are the
// public calls into the engine, the serving daemon and the shard store.
var layers = []string{"bench", "wht", "serve", "shard"}

// span is one recorded interval: a call into a layer, or a benchmark
// phase around such calls.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end records it.
type spanRef struct {
	t           *tracer
	id, parent  int64
	layer, name string
	start       time.Duration
}

func (t *tracer) begin(parent int64, layer, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.next.Add(1), parent: parent, layer: layer, name: name, start: time.Since(t.t0)}
}

// ID is the span's identifier, for use as a child's parent (0 untraced).
func (s spanRef) ID() int64 { return s.id }

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	end := time.Since(s.t.t0)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{ID: s.id, Parent: s.parent, Layer: s.layer, Name: s.name, Start: int64(s.start), End: int64(end)})
	s.t.mu.Unlock()
}

// selfMs returns, per layer, the summed self time in milliseconds of the
// spans in the subtrees rooted at roots: each span's duration minus the
// part of it covered by the union of its children.
func (t *tracer) selfMs(roots []int64) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := map[int64]int64{}
	kids := map[int64][][2]int64{}
	for _, s := range t.spans {
		parent[s.ID] = s.Parent
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	inside := func(id int64) bool {
		for ; id != 0; id = parent[id] {
			if slices.Contains(roots, id) {
				return true
			}
		}
		return false
	}
	out := map[string]float64{}
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range t.spans {
		if inside(s.ID) {
			self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
			out[s.Layer] += float64(self) / 1e6
		}
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans and the run's header as JSON at path.
func (t *tracer) write(path string, header map[string]any) error {
	t.mu.Lock()
	doc := map[string]any{"header": header, "spans": t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
