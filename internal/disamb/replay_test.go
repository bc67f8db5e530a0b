package disamb_test

import (
	"bytes"
	"reflect"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/machine"
	"specdis/internal/spd"
)

func stdModels(memLat int) []machine.Model {
	models := []machine.Model{machine.Infinite(memLat)}
	for w := 1; w <= 8; w++ {
		models = append(models, machine.New(w, memLat))
	}
	return models
}

// TestReplayMeasureMatchesMeasure checks the full pipeline-level equivalence
// on the real benchmarks: for every disambiguator, ReplayMeasure on a
// captured trace reports the same Times as an interpreting Measure.
func TestReplayMeasureMatchesMeasure(t *testing.T) {
	params := spd.DefaultParams()
	for _, bm := range bench.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			// The replay differential doubles as a verifier oracle.
			base, err := disamb.NewProfiled(bm.Source, disamb.Options{MemLat: 2, Verify: true}, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range disamb.Kinds {
				p, err := disamb.PrepareOpts(bm.Source, disamb.Options{
					Kind: kind, MemLat: 2, SpD: params, Base: base, Verify: true,
				})
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				if (p.Trace != nil) != (kind == disamb.Perfect) {
					t.Fatalf("%s: base trace presence = %v", kind, p.Trace != nil)
				}
				tr, err := disamb.Capture(p)
				if err != nil {
					t.Fatalf("%s capture: %v", kind, err)
				}
				models := stdModels(2)
				want, err := disamb.Measure(p, models)
				if err != nil {
					t.Fatalf("%s measure: %v", kind, err)
				}
				got, err := disamb.ReplayMeasure(p, models, tr)
				if err != nil {
					t.Fatalf("%s replay: %v", kind, err)
				}
				if !reflect.DeepEqual(got.Times, want.Times) {
					t.Fatalf("%s: replay times %v, interp times %v", kind, got.Times, want.Times)
				}
				if got.Ops != want.Ops || got.Committed != want.Committed {
					t.Fatalf("%s: replay ops/committed %d/%d, interp %d/%d",
						kind, got.Ops, got.Committed, want.Ops, want.Committed)
				}
			}
		})
	}
}

// TestTraceClassShared pins the execution-class property the exper trace
// cache exploits: NAIVE, STATIC and PERFECT transform arcs only, so one
// source's three preparations execute identical instruction streams and a
// single trace (recorded by the base profiling run PERFECT starts from)
// replays against all
// three — at any memory latency, since none of them is latency-sensitive.
func TestTraceClassShared(t *testing.T) {
	params := spd.DefaultParams()
	for _, bm := range []string{"fft", "quick", "queen"} {
		src := bench.ByName(bm).Source
		base, err := disamb.NewProfiled(src, disamb.Options{MemLat: 2}, true)
		if err != nil {
			t.Fatal(err)
		}
		perfect, err := disamb.PrepareOpts(src, disamb.Options{
			Kind: disamb.Perfect, MemLat: 2, SpD: params, Base: base,
		})
		if err != nil {
			t.Fatal(err)
		}
		if perfect.Trace == nil {
			t.Fatalf("%s: PERFECT did not inherit its base's trace", bm)
		}
		for _, kind := range []disamb.Kind{disamb.Naive, disamb.Static} {
			if kind.LatencySensitive() {
				t.Fatalf("%s unexpectedly latency-sensitive", kind)
			}
			for _, memLat := range []int{2, 6} {
				p, err := disamb.Prepare(src, kind, memLat, params)
				if err != nil {
					t.Fatal(err)
				}
				// The shared trace must both replay cleanly and agree with an
				// interpreting measurement of this preparation.
				models := stdModels(memLat)
				want, err := disamb.Measure(p, models)
				if err != nil {
					t.Fatal(err)
				}
				got, err := disamb.ReplayMeasure(p, models, perfect.Trace)
				if err != nil {
					t.Fatalf("%s/%s memLat %d: replaying PERFECT's trace: %v", bm, kind, memLat, err)
				}
				if !reflect.DeepEqual(got.Times, want.Times) {
					t.Fatalf("%s/%s memLat %d: shared-trace times %v, interp %v",
						bm, kind, memLat, got.Times, want.Times)
				}
				// And the dedicated capture of this preparation is the very
				// same byte stream.
				tr, err := disamb.Capture(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(tr.Bytes(), perfect.Trace.Bytes()) {
					t.Fatalf("%s/%s memLat %d: capture differs from PERFECT's trace (%d vs %d bytes)",
						bm, kind, memLat, tr.Size(), perfect.Trace.Size())
				}
			}
		}
	}
}

// TestRandomProgramsReplayEquivalence is the differential fuzzer for the
// replay backend: on random programs, across all four pipelines and several
// machine sets, replay pricing must match interpretation bit for bit — SPEC
// from its own capture (its profiling stream predates the transform), the
// arc-only pipelines also from the shared trace PERFECT inherits from its
// recording base.
func TestRandomProgramsReplayEquivalence(t *testing.T) {
	params := spd.DefaultParams()
	params.MinGain = 0.01 // transform aggressively to stress the machinery
	nSeeds := int64(25)
	if testing.Short() {
		nSeeds = 6
	}
	models := []machine.Model{machine.Infinite(2), machine.New(2, 6), machine.New(6, 2)}
	for seed := int64(1); seed <= nSeeds; seed++ {
		src := newProgGen(seed).generate()
		base, err := disamb.NewProfiled(src, disamb.Options{MemLat: 2}, true)
		if err != nil {
			t.Fatalf("seed %d base: %v\n%s", seed, err, src)
		}
		var shared *disamb.Prepared
		// PERFECT first so its inherited trace is available to the arc-only
		// pipelines below.
		for _, kind := range []disamb.Kind{disamb.Perfect, disamb.Naive, disamb.Static, disamb.Spec} {
			p, err := disamb.PrepareOpts(src, disamb.Options{
				Kind: kind, MemLat: 2, SpD: params, Base: base,
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, kind, err, src)
			}
			if kind == disamb.Perfect {
				shared = p
			}
			tr, err := disamb.Capture(p)
			if err != nil {
				t.Fatalf("seed %d %s capture: %v\n%s", seed, kind, err, src)
			}
			want, err := disamb.Measure(p, models)
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, kind, err, src)
			}
			got, err := disamb.ReplayMeasure(p, models, tr)
			if err != nil {
				t.Fatalf("seed %d %s replay: %v\n%s", seed, kind, err, src)
			}
			if !reflect.DeepEqual(got.Times, want.Times) || got.Ops != want.Ops {
				t.Fatalf("seed %d %s: replay %v ops %d, interp %v ops %d\n%s",
					seed, kind, got.Times, got.Ops, want.Times, want.Ops, src)
			}
			if !kind.LatencySensitive() && shared != nil {
				got, err := disamb.ReplayMeasure(p, models, shared.Trace)
				if err != nil {
					t.Fatalf("seed %d %s shared replay: %v\n%s", seed, kind, err, src)
				}
				if !reflect.DeepEqual(got.Times, want.Times) {
					t.Fatalf("seed %d %s: shared-trace replay %v, interp %v\n%s",
						seed, kind, got.Times, want.Times, src)
				}
			}
		}
	}
}
