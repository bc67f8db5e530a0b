package exper_test

import (
	"strings"
	"testing"

	"specdis/internal/disamb"
	"specdis/internal/exper"
)

// renderAll runs every §6 experiment on r and renders the full report.
func renderAll(t testing.TB, r *exper.Runner) string {
	t.Helper()
	var sb strings.Builder
	rows63, err := r.Table63()
	if err != nil {
		t.Fatal(err)
	}
	exper.RenderTable63(&sb, rows63)
	rows62, err := r.Figure62()
	if err != nil {
		t.Fatal(err)
	}
	exper.RenderFigure62(&sb, rows62)
	rowsF63, err := r.Figure63()
	if err != nil {
		t.Fatal(err)
	}
	exper.RenderFigure63(&sb, rowsF63)
	rows64, err := r.Figure64()
	if err != nil {
		t.Fatal(err)
	}
	exper.RenderFigure64(&sb, rows64)
	return sb.String()
}

// TestParallelDeterminism locks in the parallel engine's core guarantee:
// with the worker pool at any width, the rendered Table 6-3 and Figures
// 6-2/6-3/6-4 are byte-identical to a fully sequential run, and the engine
// performs exactly the same deduplicated work. Run under -race this also
// exercises the singleflight layer for data races.
func TestParallelDeterminism(t *testing.T) {
	seq := exper.New()
	seq.Par = 1
	par := exper.New()
	par.Par = 4

	want := renderAll(t, seq)
	got := renderAll(t, par)
	if got != want {
		t.Fatalf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}

	if seq.Stats() != par.Stats() {
		t.Errorf("work counters differ: sequential %+v, parallel %+v", seq.Stats(), par.Stats())
	}
	// One profiling interpretation per benchmark, shared by PERFECT and
	// SPEC at both latencies, at every pool width.
	for _, r := range []*exper.Runner{seq, par} {
		if got, want := r.Stats().ProfileRuns, int64(len(r.Benchmarks)); got != want {
			t.Errorf("Par %d: %d profiling runs, want %d (one per benchmark)", r.Par, got, want)
		}
	}
}

// TestPrepareAllWarmsEveryCell checks PrepareAll builds each distinct
// prepare cell exactly once: one canonical cell per latency-insensitive
// pipeline, one per latency for SPEC.
func TestPrepareAllWarmsEveryCell(t *testing.T) {
	r := exper.New()
	r.Par = 4
	if err := r.PrepareAll(); err != nil {
		t.Fatal(err)
	}
	perBench := 0
	for _, k := range disamb.Kinds {
		if k.LatencySensitive() {
			perBench += len(exper.MemLats)
		} else {
			perBench++
		}
	}
	want := int64(perBench * len(r.Benchmarks))
	if got := r.Stats().Prepares; got != want {
		t.Errorf("PrepareAll ran %d prepares, want %d", got, want)
	}
	if err := r.PrepareAll(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Prepares; got != want {
		t.Errorf("second PrepareAll re-ran cells: %d prepares, want %d", got, want)
	}
}

// BenchmarkPrepareAll measures the full prepare grid (compile + profile +
// transform for every benchmark and pipeline), the front half of the
// evaluation's cost.
func BenchmarkPrepareAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.New()
		if err := r.PrepareAll(); err != nil {
			b.Fatal(err)
		}
	}
}
