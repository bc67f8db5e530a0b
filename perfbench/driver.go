package main

// The traced driver: the same cells exper evaluates, computed by calling
// each layer's public function directly from here, with a span around every
// call. It mirrors exper.Runner's cell structure — one compilation per
// program, a canonical latency-insensitive cell priced at both latencies in
// one replay, PERFECT's profiling run doubling as the capture for the
// NAIVE/STATIC/PERFECT trace class, one dedicated capture per SPEC cell —
// so its counters must equal exper.Stats of an untraced run of the same
// work.

import (
	"fmt"
	"os"
	"path/filepath"

	"specdis/internal/alias"
	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
)

// layerCounts are the work counters the traced driver records at the layer
// boundaries. All are totals over the ops they cover.
type layerCounts struct {
	CompileCalls, IROps                int64
	AliasRemoved                       int64
	ProfileRuns, ProfileOps            int64
	SpDApps, SpDOpsAdded               int64
	SchedTrees                         int64
	Prepares, Measures                 int64
	TraceReqs, Captures, Events, Bytes int64
	ReplayCells, OpsPriced             int64
	OutputsChecked                     int64
}

func (c *layerCounts) add(o layerCounts) {
	c.CompileCalls += o.CompileCalls
	c.IROps += o.IROps
	c.AliasRemoved += o.AliasRemoved
	c.ProfileRuns += o.ProfileRuns
	c.ProfileOps += o.ProfileOps
	c.SpDApps += o.SpDApps
	c.SpDOpsAdded += o.SpDOpsAdded
	c.SchedTrees += o.SchedTrees
	c.Prepares += o.Prepares
	c.Measures += o.Measures
	c.TraceReqs += o.TraceReqs
	c.Captures += o.Captures
	c.Events += o.Events
	c.Bytes += o.Bytes
	c.ReplayCells += o.ReplayCells
	c.OpsPriced += o.OpsPriced
	c.OutputsChecked += o.OutputsChecked
}

// benchDriver computes the cells of one program, memoizing preparations and
// traces the way exper's singleflight caches do. It is used by one
// goroutine at a time.
type benchDriver struct {
	b      *bench.Benchmark
	rec    *recorder
	parent int // span the driver's spans hang under
	op     int
	bc     *bcode.Cache
	nc     *ncode.Cache
	golden string // expected program output ("" = unchecked)

	n      layerCounts
	base   *ir.Program
	preps  map[prepKey]*disamb.Prepared
	traces map[prepKey]*trace.Trace
}

type prepKey struct {
	kind disamb.Kind
	lat  int // 0 = the canonical latency-insensitive cell
}

func newBenchDriver(b *bench.Benchmark, rec *recorder, parent, op int, bc *bcode.Cache, nc *ncode.Cache, golden string) *benchDriver {
	return &benchDriver{
		b: b, rec: rec, parent: parent, op: op, bc: bc, nc: nc, golden: golden,
		preps:  map[prepKey]*disamb.Prepared{},
		traces: map[prepKey]*trace.Trace{},
	}
}

func (d *benchDriver) span(name string, fn func() error) error {
	return d.rec.do(name, d.parent, d.op, fn)
}

// compiled lexes, checks and lowers the program once (compile.Compile).
func (d *benchDriver) compiled() (*ir.Program, error) {
	if d.base != nil {
		return d.base, nil
	}
	err := d.span("compile", func() error {
		p, err := compile.Compile(d.b.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", d.b.Name, err)
		}
		d.base = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.n.CompileCalls++
	d.n.IROps += int64(d.base.OpCount())
	return d.base, nil
}

// profile runs the profiling interpretation (sim.Runner with Prof set),
// optionally recording a trace.
func (d *benchDriver) profile(p *disamb.Prepared, rec *trace.Recorder) error {
	p.Profile = sim.NewProfile()
	var res *sim.Result
	err := d.span("sim.profile", func() error {
		r := &sim.Runner{
			Prog: p.Prog, SemLat: machine.Infinite(p.MemLat).LatencyFunc(),
			Prof: p.Profile, Rec: rec, MaxOps: p.MaxOps,
			Exec: p.Exec, TierUp: p.TierUp, BCode: p.BCode, NCode: p.NCode,
		}
		var err error
		res, err = r.Run()
		return err
	})
	if err != nil {
		return fmt.Errorf("%s %s profiling run: %w", d.b.Name, p.Kind, err)
	}
	d.n.ProfileRuns++
	d.n.ProfileOps += res.Ops
	p.Output = res.Output
	if d.golden != "" {
		if res.Output != d.golden {
			return fmt.Errorf("%s %s: program output differs from its golden file", d.b.Name, p.Kind)
		}
		d.n.OutputsChecked++
	}
	if rec != nil {
		p.Trace = rec.Finish(res.Ops, res.Committed)
	}
	return nil
}

// prepared builds one pipeline's program, as disamb.PrepareOpts does, with
// each layer call in its own span.
func (d *benchDriver) prepared(kind disamb.Kind, lat int) (*disamb.Prepared, error) {
	key := prepKey{kind, lat}
	semLat := lat
	if !kind.LatencySensitive() {
		key.lat, semLat = 0, exper.MemLats[0]
	}
	if p, ok := d.preps[key]; ok {
		return p, nil
	}
	base, err := d.compiled()
	if err != nil {
		return nil, err
	}
	prog := base.Clone()
	p := &disamb.Prepared{
		Kind: kind, MemLat: semLat, Prog: prog, BaseOps: prog.OpCount(),
		MaxOps: defaultFuel, Exec: sim.ExecNative, TierUp: exper.DefaultTierUp,
		BCode: d.bc, NCode: d.nc,
	}
	d.n.Prepares++
	switch kind {
	case disamb.Static:
		err = d.span("alias", func() error {
			p.Static = alias.ResolveProgram(prog)
			return nil
		})
		d.n.AliasRemoved += int64(p.Static.Removed)
	case disamb.Perfect:
		// The profiling run is also the trace capture of the whole
		// latency-insensitive class: PERFECT removes arcs only.
		if err = d.profile(p, trace.NewRecorder()); err == nil {
			d.n.Captures++
			removeSuperfluous(prog)
		}
	case disamb.Spec:
		if err = d.profile(p, nil); err != nil {
			break
		}
		_ = d.span("alias", func() error {
			p.Static = alias.ResolveProgram(prog)
			return nil
		})
		d.n.AliasRemoved += int64(p.Static.Removed)
		err = d.span("spd", func() error {
			lf := machine.Infinite(semLat).LatencyFunc()
			p.SpD = spd.Transform(prog, p.Profile, lf, spd.DefaultParams())
			return prog.Validate()
		})
		if err == nil {
			d.n.SpDApps += int64(p.SpD.RAW + p.SpD.WAR + p.SpD.WAW)
			d.n.SpDOpsAdded += int64(prog.OpCount() - p.BaseOps)
		}
	}
	if err != nil {
		return nil, err
	}
	p.Shapes = sim.NewShapeCache()
	d.preps[key] = p
	return p, nil
}

// removeSuperfluous is PERFECT's arc removal (disamb keeps it unexported):
// drop every arc whose endpoints never touched a common address while
// profiling.
func removeSuperfluous(prog *ir.Program) {
	for _, name := range prog.Order {
		for _, t := range prog.Funcs[name].Trees {
			kept := t.Arcs[:0]
			for _, a := range t.Arcs {
				if a.AliasCount > 0 {
					kept = append(kept, a)
				}
			}
			t.Arcs = kept
		}
	}
}

// traceFor returns the trace a cell replays: PERFECT's recorded trace for
// the latency-insensitive class, a dedicated capture (disamb.Capture) for
// each SPEC cell.
func (d *benchDriver) traceFor(kind disamb.Kind, lat int) (*trace.Trace, error) {
	key := prepKey{kind, lat}
	if !kind.LatencySensitive() {
		key = prepKey{disamb.Perfect, 0}
	}
	d.n.TraceReqs++
	if tr, ok := d.traces[key]; ok {
		return tr, nil
	}
	p, err := d.prepared(key.kind, lat)
	if err != nil {
		return nil, err
	}
	tr := p.Trace
	if tr == nil {
		err = d.span("trace.capture", func() error {
			var err error
			tr, err = disamb.Capture(p)
			return err
		})
		if err != nil {
			return nil, err
		}
		d.n.Captures++
	}
	d.n.Events += tr.Events
	d.n.Bytes += int64(tr.Size())
	d.traces[key] = tr
	return tr, nil
}

// measure prices one cell at every width and the infinite machine, for each
// of lats: schedules (disamb.Plans), the trace's histogram
// ((*trace.Trace).Hist) and a replay (sim.Replayer.Replay).
func (d *benchDriver) measure(kind disamb.Kind, lats []int) ([]*exper.Measurement, error) {
	p, err := d.prepared(kind, lats[0])
	if err != nil {
		return nil, err
	}
	tr, err := d.traceFor(kind, lats[0])
	if err != nil {
		return nil, err
	}
	models := make([]machine.Model, 0, len(lats)*(exper.MaxWidth+1))
	for _, lat := range lats {
		models = append(models, machine.Infinite(lat))
		for w := 1; w <= exper.MaxWidth; w++ {
			models = append(models, machine.New(w, lat))
		}
	}
	var plans []*sim.Plan
	_ = d.span("sched", func() error {
		plans = disamb.Plans(p, models)
		return nil
	})
	d.n.SchedTrees += int64(p.Prog.IndexTrees() * len(lats))
	if err := d.span("trace.hist", func() error {
		_, err := tr.Hist()
		return err
	}); err != nil {
		return nil, err
	}
	var res *sim.Result
	err = d.span("sim.replay", func() error {
		var err error
		res, err = (&sim.Replayer{Prog: p.Prog, Plans: plans, Shapes: p.Shapes}).Replay(tr)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s %s replay: %w", d.b.Name, kind, err)
	}
	d.n.Measures++
	d.n.ReplayCells++
	d.n.OpsPriced += res.Ops
	out := make([]*exper.Measurement, len(lats))
	for li := range lats {
		m := &exper.Measurement{Inf: res.Times[li*(exper.MaxWidth+1)], Ops: res.Ops}
		copy(m.ByWidth[:], res.Times[li*(exper.MaxWidth+1)+1:(li+1)*(exper.MaxWidth+1)])
		out[li] = m
	}
	return out, nil
}

// loadGolden reads each suite program's expected output from the repo's
// golden files, relative to the checkout root.
func loadGolden() (map[string]string, error) {
	out := map[string]string{}
	for _, b := range bench.Everything() {
		data, err := os.ReadFile(filepath.Join("internal", "bench", "testdata", "golden", b.Name+".out"))
		if err != nil {
			return nil, err
		}
		out[b.Name] = string(data)
	}
	return out, nil
}
