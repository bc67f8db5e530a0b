package sim_test

import (
	"errors"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/machine"
	"specdis/internal/resilience"
	"specdis/internal/sim"
	"specdis/internal/trace"
)

// recurseSrc recurses without bound: only the call-depth budget stops it
// before the goroutine stack overflows (a fatal, unrecoverable error).
const recurseSrc = `
int f(int n) { return f(n + 1); }
void main() { print(f(0)); }`

// TestCallDepthAllEngines proves the recursion bound on every execution
// engine and under trace capture: a typed ErrCallDepth, never a crash.
func TestCallDepthAllEngines(t *testing.T) {
	engines := []struct {
		name    string
		mode    sim.ExecMode
		capture bool
	}{
		{"tree", sim.ExecTree, false},
		{"bcode", sim.ExecBytecode, false},
		{"native", sim.ExecNative, false},
		{"capture", sim.ExecNative, true},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			r := &sim.Runner{
				Prog:   compileSrc(t, recurseSrc),
				SemLat: machine.Infinite(2).LatencyFunc(),
				Prof:   sim.NewProfile(),
				Exec:   e.mode,
			}
			if e.capture {
				r.Rec = trace.NewRecorder()
			}
			_, err := r.Run()
			if !errors.Is(err, resilience.ErrCallDepth) {
				t.Fatalf("unbounded recursion on %s engine: err = %v, want ErrCallDepth", e.name, err)
			}
			if cls := resilience.Classify(err); cls != resilience.ClassCallDepth || cls.Retryable() {
				t.Fatalf("class %s (retryable %v), want non-retryable call-depth", cls, cls.Retryable())
			}
			// The budget resets per run: a reused Runner fails the same way.
			if _, err := r.Run(); !errors.Is(err, resilience.ErrCallDepth) {
				t.Fatalf("second run: err = %v, want ErrCallDepth", err)
			}
		})
	}
}

// traceDepth returns a recorded run's deepest call nesting (main is 1),
// replaying its call/return framing.
func traceDepth(t *testing.T, tr *trace.Trace) int {
	t.Helper()
	rd := trace.NewReader(tr)
	depth, peak := 0, 0
	var ev trace.Event
	for {
		ok, err := rd.Next(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return peak
		}
		switch ev.Kind {
		case trace.KindCall:
			depth++
			if depth > peak {
				peak = depth
			}
		case trace.KindRet:
			depth--
		}
	}
}

// TestSuiteCallDepth pins the depth budget's headroom: every suite program's
// deepest call nesting is at least a hundred times below sim.MaxCallDepth.
func TestSuiteCallDepth(t *testing.T) {
	peak := 0
	for _, b := range bench.Everything() {
		prog, err := compile.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		res, err := (&sim.Runner{Prog: prog, SemLat: machine.Infinite(2).LatencyFunc(), Rec: rec}).Run()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		d := traceDepth(t, rec.Finish(res.Ops, res.Committed))
		if d < 1 {
			t.Fatalf("%s: depth %d, want at least main's frame", b.Name, d)
		}
		if d > peak {
			peak = d
		}
	}
	t.Logf("suite peak call depth %d, budget %d", peak, sim.MaxCallDepth)
	if peak*100 > sim.MaxCallDepth {
		t.Fatalf("suite peak call depth %d leaves under 100x headroom below MaxCallDepth %d", peak, sim.MaxCallDepth)
	}
}
