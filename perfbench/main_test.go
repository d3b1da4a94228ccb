package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestSelf runs every workload briefly with a fixed seed, untraced and
// traced, and checks that each run is correct, emits exactly the metrics
// BENCHMARK.json names, and that the traced run writes its spans.
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			dir := t.TempDir()
			res := runOnce(t, dir, w.Name, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				}
			}
			if !traced {
				continue
			}
			if f := res.Metrics["fail_frac"].Value; f != 0 {
				t.Errorf("%s: fail_frac %v", w.Name, f)
			}
			checkSpans(t, filepath.Join(dir, "trace-"+w.Name+"-7.json"))
		}
	}
}

func runOnce(t *testing.T, dir, name string, traced bool) result {
	t.Helper()
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run(out, name, 7, 1, traced, dir); err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	return res
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
		layers[s.Layer] = true
	}
	if !layers["bench"] || len(layers) < 2 {
		t.Errorf("%s: spans cover layers %v, want the benchmark and at least one program layer", path, layers)
	}
}

// TestCovered checks the interval union behind the self-time split.
func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 2}, {1, 3}, {7, 12}}
	if got := covered(ivs, 0, 10); got != 3+5 {
		t.Errorf("covered = %d, want 8", got)
	}
}

// TestMatchesAfter checks the reference side of every correctness gate:
// the textbook WHT squares to 2^n times the identity, exactly.
func TestMatchesAfter(t *testing.T) {
	s := newSignal[float32](rand.New(rand.NewPCG(3, 0)), 10)
	w := append([]float32(nil), s.X...)
	textbookWHT(w)
	if !s.matchesAfter(w, 2) || s.matchesAfter(w, 1) {
		t.Error("two textbook transforms are not 2^n times the input")
	}
}
