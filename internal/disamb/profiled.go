package disamb

import (
	"fmt"

	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sim"
	"specdis/internal/trace"
)

// Profiled is one profiling interpretation of an untransformed program —
// the input PERFECT and SPEC both consume (§2: per-tree path frequencies
// and per-arc alias counts). Prog's memory arcs carry the run's
// ExecCount/AliasCount, Profile its per-tree and per-exit counts, Output the
// program's output, and Trace, when the run recorded one, its execution
// trace. The trace is valid for every arc-only pipeline of the program
// (NAIVE, STATIC, PERFECT), never for SPEC's transformed one.
//
// A Profiled is read-only once built, so one may be shared across
// goroutines: every preparation handed it as Options.Base works on a
// private clone. One profile therefore serves PERFECT and SPEC at every
// memory latency — sim.Runner.SemLat never changes a run's results.
type Profiled struct {
	Prog    *ir.Program
	Profile *sim.Profile
	Output  string
	Trace   *trace.Trace
}

// NewProfiled compiles src (or takes ownership of o.Prog, profiling it in
// place) and runs the profiling interpretation on o's execution backend,
// fuel budget, context and compiled-code caches, recording the run's trace
// when record is set. It is the only profiling path: preparations without a
// supplied base and every grafting round go through it too.
func NewProfiled(src string, o Options, record bool) (*Profiled, error) {
	prog := o.Prog
	if prog == nil {
		var err error
		prog, err = compile.CompileOpts(src, compile.Options{Verify: o.Verify})
		if err != nil {
			return nil, err
		}
	}
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorder()
	}
	b := &Profiled{Prog: prog, Profile: sim.NewProfile()}
	r := &sim.Runner{
		Prog: prog, SemLat: machine.Infinite(o.MemLat).LatencyFunc(),
		Prof: b.Profile, Rec: rec, MaxOps: o.MaxOps, Ctx: o.Ctx,
		Exec: o.Exec, TierUp: o.TierUp, TierUps: o.tierUps(), BCode: o.BCode, NCode: o.NCode,
	}
	res, err := r.Run()
	if err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	b.Output = res.Output
	if rec != nil {
		b.Trace = rec.Finish(res.Ops, res.Committed)
	}
	return b, nil
}

// clone returns a private copy of the profiled program with the profile
// remapped onto it; the read-only trace is shared. Profile maps are keyed by
// tree and op pointers; a clone keeps every function's tree order and every
// tree's op order, so the remap walks both programs in lockstep.
func (b *Profiled) clone() *Profiled {
	c := &Profiled{
		Prog: b.Prog.Clone(),
		Profile: &sim.Profile{
			TreeExec: make(map[*ir.Tree]int64, len(b.Profile.TreeExec)),
			ExitExec: make(map[*ir.Op]int64, len(b.Profile.ExitExec)),
		},
		Output: b.Output,
		Trace:  b.Trace,
	}
	for _, name := range b.Prog.Order {
		clones := c.Prog.Funcs[name].Trees
		for i, t := range b.Prog.Funcs[name].Trees {
			n, ok := b.Profile.TreeExec[t]
			if !ok {
				continue // never executed, so none of its exits did either
			}
			ct := clones[i]
			c.Profile.TreeExec[ct] = n
			for j, op := range t.Ops {
				if n, ok := b.Profile.ExitExec[op]; ok {
					c.Profile.ExitExec[ct.Ops[j]] = n
				}
			}
		}
	}
	return c
}
