// Package disamb assembles the four disambiguator pipelines compared in the
// paper's evaluation (Table 6-4): NAIVE (no disambiguation), STATIC
// (GCD/Banerjee), SPEC (static followed by speculative disambiguation), and
// PERFECT (profile-derived removal of every superfluous arc — an optimistic
// upper bound on static disambiguation).
package disamb

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"specdis/internal/alias"
	"specdis/internal/bcode"
	"specdis/internal/compile"
	"specdis/internal/graft"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/sched"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
	"specdis/internal/verify"
)

// Kind selects a disambiguator pipeline.
type Kind uint8

// The four disambiguators of Table 6-4.
const (
	Naive Kind = iota
	Static
	Spec
	Perfect
)

func (k Kind) String() string {
	switch k {
	case Naive:
		return "NAIVE"
	case Static:
		return "STATIC"
	case Spec:
		return "SPEC"
	case Perfect:
		return "PERFECT"
	}
	return fmt.Sprintf("disamb(%d)", int(k))
}

// LatencySensitive reports whether the pipeline's prepared program depends
// on the memory latency it targets. Only SPEC consults the latency (the SpD
// profitability heuristic weighs load latencies when picking dependences to
// speculate on); NAIVE, STATIC and PERFECT produce identical programs and
// profiles at every latency, so their evaluation cells can be shared across
// latencies.
func (k Kind) LatencySensitive() bool { return k == Spec }

// Kinds lists all pipelines in presentation order.
var Kinds = []Kind{Naive, Static, Spec, Perfect}

// Prepared is a program processed by one disambiguator, ready to schedule
// and measure.
type Prepared struct {
	Kind    Kind
	MemLat  int
	Prog    *ir.Program
	Profile *sim.Profile // profiling run results (Spec and Perfect only)
	Output  string       // output of the profiling run, for validation
	SpD     *spd.Result  // Spec only
	Static  alias.Stats  // Static and Spec only
	// BaseOps is the operation count before SpD (code-size baseline,
	// including any grafting).
	BaseOps int
	// Grafts counts applied tree grafts (0 unless Options.Graft is set).
	Grafts int
	// Trace is the execution trace the supplied base recorded during its
	// profiling run (Options.Base), when that run is execution-equivalent
	// to the final program (PERFECT: its transform removes arcs only, never
	// ops). Nil otherwise; Capture materializes a trace for any prepared
	// program.
	Trace *trace.Trace
	// MaxOps is Options.MaxOps, carried so Measure and Capture runs share
	// the preparation's operation budget.
	MaxOps int64
	// Ctx is Options.Ctx, carried so Measure and Capture runs share the
	// preparation's cancellation scope.
	Ctx context.Context
	// Exec is the execution backend every interpretation of this preparation
	// uses (Options.Exec), and TierUp its adaptive-tiering hot threshold
	// (Options.TierUp).
	Exec   sim.ExecMode
	TierUp int64
	// tierUps counts adaptive-tiering promotions of every interpretation
	// of this preparation (Options.ExecCounters; nil: the native cache
	// counts them).
	tierUps *atomic.Int64
	// BCode and NCode cache the program's compiled bytecode and native
	// closure chains, so every interpretation of this preparation — the
	// profiling run, Capture, Measure, verification reruns — shares one
	// compilation of each tree. Both caches are content-addressed
	// (ir.AppendExecKey), so they are safe across op-level transformations
	// (a mutated tree re-keys and recompiles) and may be shared across
	// preparations and program clones; sweep drivers (internal/exper) supply
	// one pair for a whole sweep via Options.
	BCode *bcode.Cache
	NCode *ncode.Cache
	// Shapes shares the simulator's pricing skeletons across every run of
	// this preparation (Measure sweeps, Capture, Recapture, replay). Unlike
	// the compiled-code caches it keys on tree identity, so it is created
	// only after preparation's op-level transformations are done and is
	// never shared across preparations.
	Shapes *sim.ShapeCache
}

// Options configure a pipeline beyond the paper's defaults.
type Options struct {
	Kind   Kind
	MemLat int
	SpD    spd.Params
	// Prog, when non-nil, is a pre-compiled program the pipeline takes
	// ownership of and mutates in place; the source string is then ignored.
	// Callers preparing several pipelines from one source compile it once and
	// hand each preparation a private ir.Program.Clone, skipping the repeated
	// lexing and lowering.
	Prog *ir.Program
	// Graft, when non-nil, enlarges decision trees by tail duplication
	// before disambiguation (the paper's §7 "grafting" extension), for
	// GraftRounds rounds (default 1).
	Graft       *graft.Params
	GraftRounds int
	// Base, when non-nil, is the profiled untransformed program the
	// preparation starts from: the pipeline works on a private clone of
	// Base.Prog with Base.Profile remapped onto it and runs no profiling
	// interpretation of its own (src and Prog are ignored). Sweep drivers
	// profile each program once and hand the result to every PERFECT and
	// SPEC preparation. Incompatible with Graft.
	Base *Profiled
	// Verify runs the static verifier after every pipeline stage — lowering,
	// grafting, static disambiguation, the SpD transform (including its
	// per-application debug hook), and PERFECT's arc removal — failing the
	// preparation on the first invariant violation. Debug mode.
	Verify bool
	// MaxOps bounds the dynamic operation count of every interpretation of
	// the prepared program — the profiling run here and the later Measure
	// and Capture runs (0 = sim.DefaultMaxOps). The fuzzers set a small
	// budget so runaway generated programs fail fast.
	MaxOps int64
	// Ctx, when non-nil, cancels every interpretation of the prepared
	// program — the profiling run and the later Measure and Capture runs —
	// with a typed deadline error (see sim.Runner.Ctx).
	Ctx context.Context
	// Exec selects the execution backend for every interpretation of the
	// prepared program (zero value: the bytecode engine).
	Exec sim.ExecMode
	// TierUp, under sim.ExecNative, defers each tree's native compile until
	// it has executed TierUp times within a run (see sim.Runner.TierUp);
	// zero compiles eagerly.
	TierUp int64
	// ExecCounters, when non-nil, accumulates the statistics of the caches
	// the preparation creates itself (bytecode or native, per Exec) and the
	// tier-ups of every interpretation of it, whichever caches it runs on.
	ExecCounters *bcode.Counters
	// BCode and NCode, when non-nil, are shared compiled-code caches the
	// preparation (and everything derived from it) compiles through. Left
	// nil, the preparation creates private caches wired to ExecCounters.
	// Sharing one pair across a sweep lets identical trees — clones handed
	// to different cells, re-preparations of one source — compile once.
	BCode *bcode.Cache
	NCode *ncode.Cache
}

// tierUps returns the counter the preparation's runs count promotions in.
func (o *Options) tierUps() *atomic.Int64 {
	if o.ExecCounters == nil {
		return nil
	}
	return &o.ExecCounters.TierUps
}

// verifyStage checks the program's structural and speculation-safety
// invariants after a pipeline stage. pairs, when non-nil, adds the
// pair-precise mutual-exclusion check over SpD's recorded duplications.
func verifyStage(prog *ir.Program, stage string, pairs map[*ir.Tree][]verify.SpecPair) error {
	fs := verify.CheckProgram(prog)
	for _, name := range prog.Order {
		for _, t := range prog.Funcs[name].Trees {
			fs = append(fs, verify.CheckSpecTree(t)...)
			if pairs != nil {
				fs = append(fs, verify.CheckSpecPairs(t, pairs[t])...)
			}
		}
	}
	if len(fs) > 0 {
		return fmt.Errorf("verify after %s: %d finding(s), first: %s", stage, len(fs), fs[0])
	}
	return nil
}

// Prepare compiles src and applies the selected disambiguator. memLat is the
// memory latency the SpD heuristic optimizes for (it also parameterizes the
// profiling run's semantic order; committed results are identical either
// way).
func Prepare(src string, kind Kind, memLat int, params spd.Params) (*Prepared, error) {
	return PrepareOpts(src, Options{Kind: kind, MemLat: memLat, SpD: params})
}

// PrepareOpts is Prepare with extension options.
func PrepareOpts(src string, o Options) (*Prepared, error) {
	kind, memLat := o.Kind, o.MemLat
	if o.Base != nil && o.Graft != nil {
		return nil, errors.New("disamb: Options.Base cannot be combined with Graft (grafting re-profiles the grafted program)")
	}
	if o.BCode == nil {
		o.BCode = bcode.NewCache(o.ExecCounters)
	}
	if o.NCode == nil {
		o.NCode = ncode.NewCache(o.ExecCounters)
	}
	prog := o.Prog
	// own is this preparation's profile of its untransformed program: a
	// private clone of the supplied base, or, for PERFECT and SPEC without
	// one, a profiling run of its own made when first needed.
	var own *Profiled
	switch {
	case o.Base != nil:
		own = o.Base.clone()
		prog = own.Prog
	case prog == nil:
		var err error
		prog, err = compile.CompileOpts(src, compile.Options{Verify: o.Verify})
		if err != nil {
			return nil, err
		}
	}
	p := &Prepared{Kind: kind, MemLat: memLat, Prog: prog, BaseOps: prog.OpCount(), MaxOps: o.MaxOps, Ctx: o.Ctx, Exec: o.Exec, TierUp: o.TierUp, tierUps: o.tierUps(), BCode: o.BCode, NCode: o.NCode}
	lat := machine.Infinite(memLat).LatencyFunc()

	// profile runs one profiling interpretation of prog in place. Content
	// addressing makes the shared code caches safe even for runs that
	// precede an op-level transformation (grafting rounds, SPEC's pre-SpD
	// profile): transformed trees re-key and recompile, untouched trees hit.
	profile := func() (*Profiled, error) {
		po := o
		po.Prog = prog
		b, err := NewProfiled("", po, false)
		if err != nil {
			return nil, fmt.Errorf("%s %w", kind, err)
		}
		return b, nil
	}
	useProfile := func() error {
		if own == nil {
			var err error
			if own, err = profile(); err != nil {
				return err
			}
		}
		p.Profile, p.Output = own.Profile, own.Output
		return nil
	}

	if o.Graft != nil {
		rounds := o.GraftRounds
		if rounds <= 0 {
			rounds = 1
		}
		for i := 0; i < rounds; i++ {
			b, err := profile()
			if err != nil {
				return nil, err
			}
			res := graft.Program(prog, b.Profile, *o.Graft)
			p.Grafts += res.Grafts
			if res.Grafts == 0 {
				break
			}
			if err := prog.Validate(); err != nil {
				return nil, fmt.Errorf("grafting broke the program: %w", err)
			}
		}
		// Grafting grows the pre-SpD baseline.
		p.BaseOps = prog.OpCount()
		if o.Verify {
			if err := verifyStage(prog, "grafting", nil); err != nil {
				return nil, err
			}
		}
	}

	switch kind {
	case Naive:
		// Keep every conservative arc.

	case Static:
		p.Static = alias.ResolveProgram(prog)
		if o.Verify {
			if err := verifyStage(prog, "static disambiguation", nil); err != nil {
				return nil, err
			}
		}

	case Perfect:
		if err := useProfile(); err != nil {
			return nil, err
		}
		// The profiling run executes the exact stream of the final program:
		// removeSuperfluous only deletes arcs, which execution never reads.
		// A trace that run recorded is therefore this program's trace.
		p.Trace = own.Trace
		removeSuperfluous(prog)
		if o.Verify {
			if err := verifyStage(prog, "superfluous-arc removal", nil); err != nil {
				return nil, err
			}
		}

	case Spec:
		// The profiling run precedes the SpD transform, so its stream is NOT
		// a trace of the final program; Capture records one afterwards.
		if err := useProfile(); err != nil {
			return nil, err
		}
		p.Static = alias.ResolveProgram(prog)
		params := o.SpD
		params.Verify = params.Verify || o.Verify
		p.SpD = spd.Transform(prog, p.Profile, lat, params)
		if p.SpD.VerifyErr != nil {
			return nil, fmt.Errorf("SPEC transform failed verification: %w", p.SpD.VerifyErr)
		}
		if err := prog.Validate(); err != nil {
			return nil, fmt.Errorf("SPEC transform broke the program: %w", err)
		}
		if o.Verify {
			if err := verifyStage(prog, "SpD transform", p.SpD.TreePairs()); err != nil {
				return nil, err
			}
		}
	}
	if o.Verify {
		// Layers 4–5 on the final trees: translation-validate both compiled
		// tiers and audit a finite-machine list schedule for every tree, so
		// a debug preparation proves not just the IR transforms (layers 1–3
		// above) but the code the executable tiers would actually run and
		// the timelines the evaluation would report.
		if err := verifyCompiled(prog, lat); err != nil {
			return nil, err
		}
	}
	// Tree structure is final from here on (arc counters still mutate, but
	// the shapes only capture arc endpoints), so the identity-keyed shape
	// cache becomes safe to share across this preparation's runs. The
	// profiling runs above predate the transforms and deliberately skip it.
	p.Shapes = sim.NewShapeCache()
	return p, nil
}

// verifyCompiled runs verification layers 4 and 5 over every tree of a
// prepared program: compile to the bytecode and native tiers (trees outside
// a tier's repertoire run on the reference walker and are skipped), run the
// translation validator on each artifact, then list-schedule on a 5-FU
// machine and replay the result through the soundness auditor. Used by the
// Verify debug option and, through it, the end-to-end differential fuzzer.
func verifyCompiled(prog *ir.Program, lat ir.LatencyFunc) error {
	for _, name := range prog.Order {
		for _, t := range prog.Funcs[name].Trees {
			if bp, err := bcode.Compile(t); err == nil {
				if err := verify.BCode(t, bp); err != nil {
					return fmt.Errorf("bytecode of %s/%s fails translation validation: %w", name, t.Name, err)
				}
			}
			if np, err := ncode.Compile(t); err == nil {
				if err := verify.NCode(t, np); err != nil {
					return fmt.Errorf("native code of %s/%s fails translation validation: %w", name, t.Name, err)
				}
			}
			const nFUs = 5
			g := ir.BuildDepGraph(t, lat)
			s := sched.FromGraph(g, nFUs)
			if err := verify.Schedule(g, s, nFUs); err != nil {
				return fmt.Errorf("schedule of %s/%s fails soundness audit: %w", name, t.Name, err)
			}
		}
	}
	return nil
}

// removeSuperfluous deletes every arc whose endpoints never accessed a
// common address during profiling (including never-executed pairs): the
// paper's PERFECT construction, an optimistic bound on any real static
// disambiguator.
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

// Plans builds pricing plans for each machine model over the prepared
// program's trees. Op latencies depend only on a model's memory latency, so
// each tree's dependence graph is built once per distinct memory latency and
// shared by every model's list-scheduling pass — for the usual nine-model
// Measure call that is one graph per tree instead of nine.
func Plans(p *Prepared, models []machine.Model) []*sim.Plan {
	plans := make([]*sim.Plan, len(models))
	byMemLat := map[int][]int{} // memory latency -> model indices
	for i, m := range models {
		plans[i] = sim.NewPlan(m.Name)
		byMemLat[m.MemLatency] = append(byMemLat[m.MemLatency], i)
	}
	for _, name := range p.Prog.Order {
		for _, t := range p.Prog.Funcs[name].Trees {
			for memLat, idxs := range byMemLat {
				g := ir.BuildDepGraph(t, machine.Infinite(memLat).LatencyFunc())
				for _, i := range idxs {
					plans[i].SetTree(t, sched.FromGraph(g, models[i].NumFUs).Comp)
				}
			}
		}
	}
	return plans
}

// MeasureOpt adjusts one measurement, capture or replay run without touching
// the preparation it runs against. The zero value changes nothing; the
// degradation ladder (internal/exper) and the fault-injection harness are the
// intended users.
type MeasureOpt struct {
	// Ctx overrides the preparation's context when non-nil.
	Ctx context.Context
	// MaxOps overrides the preparation's fuel budget when positive — the
	// fuel-exhaustion fault shrinks one run's budget without touching the
	// shared preparation.
	MaxOps int64
	// Exec overrides the preparation's execution backend when ExecSet — the
	// bcode→tree retry rung sets it after a bytecode-side failure.
	Exec    sim.ExecMode
	ExecSet bool
	// ChaosPanicAt, when positive, arms the run's injected-panic hook (see
	// sim.Runner.ChaosPanicAt).
	ChaosPanicAt int64
	// ChaosPlans, when non-nil, mutates the freshly built pricing plans
	// before the run — the schedule-dropping fault uses it.
	ChaosPlans func([]*sim.Plan)
}

func (o MeasureOpt) exec(p *Prepared) sim.ExecMode {
	if o.ExecSet {
		return o.Exec
	}
	return p.Exec
}

func (o MeasureOpt) ctx(p *Prepared) context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return p.Ctx
}

func (o MeasureOpt) maxOps(p *Prepared) int64 {
	if o.MaxOps > 0 {
		return o.MaxOps
	}
	return p.MaxOps
}

// Capture returns an execution trace of the prepared program for replay
// pricing: the trace its base recorded when one is valid (see
// Prepared.Trace), otherwise one fresh recording interpretation. The
// recorded run is validated against the profiling output when one exists.
func Capture(p *Prepared) (*trace.Trace, error) {
	if p.Trace != nil {
		return p.Trace, nil
	}
	return Recapture(p, MeasureOpt{})
}

// Recapture records a fresh execution trace of the prepared program, ignoring
// any trace the preparation already carries — the replay→recapture recovery
// rung for a trace that failed its integrity check.
func Recapture(p *Prepared, opt MeasureOpt) (*trace.Trace, error) {
	rec := trace.NewRecorder()
	r := &sim.Runner{
		Prog:         p.Prog,
		SemLat:       machine.Infinite(p.MemLat).LatencyFunc(),
		Rec:          rec,
		MaxOps:       opt.maxOps(p),
		Ctx:          opt.ctx(p),
		ChaosPanicAt: opt.ChaosPanicAt,
		Exec:         opt.exec(p),
		TierUp:       p.TierUp,
		TierUps:      p.tierUps,
		BCode:        p.BCode,
		NCode:        p.NCode,
		Shapes:       p.Shapes,
	}
	res, err := r.Run()
	if err != nil {
		return nil, fmt.Errorf("%s capture run: %w", p.Kind, err)
	}
	if p.Output != "" && res.Output != p.Output {
		return nil, fmt.Errorf("%s capture run output diverged from profiling run", p.Kind)
	}
	return rec.Finish(res.Ops, res.Committed), nil
}

// ReplayMeasure prices the prepared program under every model by replaying
// tr against the models' schedules — no operand is evaluated. Times are
// bit-identical to Measure on the same cell; Output is empty (the capture
// run already validated it) and Ops/Committed are the recorded run's.
//
// tr must trace an execution-equivalent program: same tree indices, ops,
// guards and exits (arcs may differ — they affect schedules, not
// execution). NAIVE, STATIC and PERFECT preparations of one source satisfy
// this mutually; SPEC needs a trace of its own transformed program.
func ReplayMeasure(p *Prepared, models []machine.Model, tr *trace.Trace) (*sim.Result, error) {
	return ReplayMeasureWith(p, models, tr, MeasureOpt{})
}

// ReplayMeasureWith is ReplayMeasure with per-run options (replay evaluates
// no operand, so only ChaosPlans applies).
func ReplayMeasureWith(p *Prepared, models []machine.Model, tr *trace.Trace, opt MeasureOpt) (*sim.Result, error) {
	plans := Plans(p, models)
	if opt.ChaosPlans != nil {
		opt.ChaosPlans(plans)
	}
	rp := &sim.Replayer{Prog: p.Prog, Plans: plans, Shapes: p.Shapes}
	res, err := rp.Replay(tr)
	if err != nil {
		return nil, fmt.Errorf("%s replay: %w", p.Kind, err)
	}
	return res, nil
}

// Measure executes the prepared program once, pricing it under every model.
// The returned Times slice parallels models.
func Measure(p *Prepared, models []machine.Model) (*sim.Result, error) {
	return MeasureWith(p, models, MeasureOpt{})
}

// MeasureWith is Measure with per-run options.
func MeasureWith(p *Prepared, models []machine.Model, opt MeasureOpt) (*sim.Result, error) {
	plans := Plans(p, models)
	if opt.ChaosPlans != nil {
		opt.ChaosPlans(plans)
	}
	r := &sim.Runner{
		Prog:         p.Prog,
		SemLat:       machine.Infinite(p.MemLat).LatencyFunc(),
		Plans:        plans,
		MaxOps:       opt.maxOps(p),
		Ctx:          opt.ctx(p),
		ChaosPanicAt: opt.ChaosPanicAt,
		Exec:         opt.exec(p),
		TierUp:       p.TierUp,
		TierUps:      p.tierUps,
		BCode:        p.BCode,
		NCode:        p.NCode,
		Shapes:       p.Shapes,
	}
	res, err := r.Run()
	if err != nil {
		return nil, fmt.Errorf("%s timed run: %w", p.Kind, err)
	}
	if p.Output != "" && res.Output != p.Output {
		return nil, fmt.Errorf("%s output diverged from profiling run", p.Kind)
	}
	return res, nil
}
