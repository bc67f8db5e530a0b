// Package sim executes decision-tree programs with guarded-execution
// semantics and measures their run time under one or more machine schedules.
//
// Semantics. Each tree execution runs every operation of the tree in a fixed
// topological order of the tree's dependence graph (the compiler's model of a
// legal issue order): operations compute speculatively, but write-back —
// register writes, memory stores, output — happens only when the guard
// evaluates true. Speculative reads through garbage addresses are clamped
// into the memory image (a non-faulting memory, per the paper's §4.6
// assumption), and speculative integer division by zero yields zero.
//
// Timing. For each supplied Plan (a per-tree completion-cycle table produced
// by a scheduler), a tree execution costs the maximum completion cycle over
// the operations that actually committed — at least the taken exit's
// resolution cycle, since exits carry the branch latency. Because committed
// values are schedule-invariant, one semantic pass can price any number of
// schedules at once.
package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"specdis/internal/bcode"
	"specdis/internal/ir"
	"specdis/internal/ncode"
	"specdis/internal/resilience"
	"specdis/internal/trace"
)

// Plan is a pricing table: completion cycles per op for every tree, as
// produced by a scheduler for one machine configuration. Entries are stored
// as they arrive; Runner.Run resolves them once into a dense table indexed
// by program-wide tree index (ir.Tree.PIdx), so the execution hot path never
// touches a pointer-keyed map.
type Plan struct {
	Name  string
	trees []*ir.Tree
	comps [][]int64
}

// NewPlan returns an empty plan.
func NewPlan(name string) *Plan {
	return &Plan{Name: name}
}

// SetTree installs the completion-cycle table for one tree (indexed by Seq).
// Setting the same tree again overwrites the earlier table.
func (p *Plan) SetTree(t *ir.Tree, comp []int64) {
	p.trees = append(p.trees, t)
	p.comps = append(p.comps, comp)
}

// planEntry is one resolved slot of a dense plan table. The tree pointer is
// kept so that an entry installed for a different program's tree (a PIdx
// collision) is detected instead of silently mis-pricing.
type planEntry struct {
	tree *ir.Tree
	comp []int64
}

// Trees returns the trees the plan has schedules for, in SetTree order.
func (p *Plan) Trees() []*ir.Tree { return p.trees }

// Drop removes the plan's schedule for the i-th (modulo entry count) SetTree
// entry — a chaos hook: executing the dropped tree afterwards fails with a
// typed missing-schedule error instead of pricing. No-op on an empty plan.
func (p *Plan) Drop(i int) {
	if len(p.trees) == 0 {
		return
	}
	i = ((i % len(p.trees)) + len(p.trees)) % len(p.trees)
	p.trees = append(p.trees[:i], p.trees[i+1:]...)
	p.comps = append(p.comps[:i], p.comps[i+1:]...)
}

// dense lays the plan out as a table indexed by tree PIdx (entries for the
// same tree resolve to the latest SetTree call). Trees of the program
// without an entry stay nil and yield a typed missing-schedule error on
// first execution.
func (p *Plan) dense(numTrees int) []planEntry {
	tab := make([]planEntry, numTrees)
	for i, t := range p.trees {
		if t.PIdx >= 0 && t.PIdx < numTrees {
			tab[t.PIdx] = planEntry{tree: t, comp: p.comps[i]}
		}
	}
	return tab
}

// Result is the outcome of a program run.
type Result struct {
	Output string
	// Times has one entry per plan passed to Run: total cycles.
	Times []int64
	// Ops is the number of dynamic operation executions (including
	// speculative ones), a work measure.
	Ops int64
	// Committed counts the operations whose write-back actually happened:
	// Ops − Committed is the dynamic cost of speculation.
	Committed int64
	// Exit is main's return value.
	Exit ir.Value
}

// Profile accumulates execution statistics during a profiling run: per-tree
// execution counts and per-exit counts. Memory-arc counters (ExecCount /
// AliasCount) are accumulated directly on the arcs of the profiled program.
type Profile struct {
	TreeExec map[*ir.Tree]int64
	ExitExec map[*ir.Op]int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{TreeExec: map[*ir.Tree]int64{}, ExitExec: map[*ir.Op]int64{}}
}

// ExitProb returns the measured probability that tree t leaves through exit
// e, defaulting to a uniform split when the tree never executed.
func (pr *Profile) ExitProb(t *ir.Tree, e *ir.Op) float64 {
	total := pr.TreeExec[t]
	if total == 0 {
		return 1 / float64(len(t.Exits()))
	}
	return float64(pr.ExitExec[e]) / float64(total)
}

// TreeExecCount returns how many times tree t executed during profiling.
func (pr *Profile) TreeExecCount(t *ir.Tree) int64 { return pr.TreeExec[t] }

// DefaultMaxOps bounds the dynamic operation count of one run.
const DefaultMaxOps = 4_000_000_000

// MaxCallDepth bounds a run's call nesting. Every engine and trace capture
// recurse through Runner.call, one Go frame chain per MiniC call, so
// unbounded MiniC recursion would otherwise overflow the goroutine stack —
// a fatal error no recover can contain. The suite peaks at a depth of 19
// (TestSuiteCallDepth pins the headroom); at this limit a run's goroutine
// stack stays within a few megabytes on every engine.
const MaxCallDepth = 10_000

// Runner executes one program. A Runner is single-use per Run call but may
// be reused; memory and output reset each run.
type Runner struct {
	Prog *ir.Program
	// SemLat is the latency model the semantic execution order is defined
	// under. Ops execute in Seq order — the lowest-Seq-first topological
	// order of the dependence graph, which is the same under every latency
	// model — so the value never changes results; it is still required so
	// callers state their model explicitly. Required.
	SemLat ir.LatencyFunc
	// Plans are priced during the run.
	Plans []*Plan
	// Prof, when non-nil, collects profiling statistics (and updates arc
	// alias counters on the program).
	Prof *Profile
	// Rec, when non-nil, records the run's execution trace — every tree
	// execution's (PIdx, taken exit, guard-commit bits) plus call framing —
	// for later replay pricing (see Replayer). The caller owns the recorder
	// and finishes it with the run's Ops/Committed totals.
	Rec *trace.Recorder
	// MaxOps is the run's fuel: the hard dynamic-operation budget that turns
	// a runaway program into a typed resilience.ErrFuelExhausted failure
	// instead of a hang (0 = DefaultMaxOps).
	MaxOps int64
	// Ctx, when non-nil, cancels the run: deadline expiry or cancellation
	// surfaces as an error wrapping resilience.ErrDeadline. The context is
	// polled every ctxCheckEveryOps dynamic ops, so cancellation latency is
	// bounded without a per-tree atomic load.
	Ctx context.Context
	// ChaosPanicAt, when positive, makes the run panic with
	// resilience.InjectedPanic once the dynamic op count crosses it — the
	// fault-injection hook that proves panic containment end to end.
	ChaosPanicAt int64
	// Exec selects the execution backend; the zero value is the bytecode
	// engine (ExecBytecode). ExecTree forces the reference tree walker,
	// ExecNative the closure-chain native tier.
	Exec ExecMode
	// TierUp is the adaptive-tiering hot threshold under ExecNative: a tree
	// starts on the bytecode engine and is promoted to a native closure
	// chain only once it has executed TierUp times in this run, so cold
	// trees never pay the native compile. Zero or negative compiles every
	// tree natively up front (the eager behavior, and the zero-value
	// default). Ignored by the other backends. Promotions are counted in
	// TierUps when set, else in the native cache's Counters().TierUps.
	TierUp int64
	// TierUps, when non-nil, counts this run's promotions in place of the
	// native cache's counter: a caller whose caches are shared wider than
	// its statistics (a service's per-request stats over server-wide
	// caches) still sees its own promotions.
	TierUps *atomic.Int64
	// BCode caches compiled bytecode by tree. Callers that run the same
	// program many times (or share it across Runners) should supply one;
	// left nil, the Runner creates a private cache on first use. Both caches
	// are content-addressed, so they may be shared across program clones.
	BCode *bcode.Cache
	// NCode is the native tier's compiled-chain cache, with the same
	// ownership contract as BCode.
	NCode *ncode.Cache
	// Shapes shares pricing skeletons across Runners (see ShapeCache).
	// Unlike the compiled-code caches it keys on tree identity, so it must
	// only be supplied once the program's tree structure is final; left
	// nil, each Runner rebuilds shapes itself.
	Shapes *ShapeCache

	mem        []ir.Value
	out        bytes.Buffer
	ops        int64
	committed  int64
	ctxCheckAt int64 // next ops threshold at which Ctx is polled
	depth      int   // current call nesting, bounded by MaxCallDepth
	times      []int64
	ctxes      []*treeCtx    // dense, indexed by tree PIdx
	planTabs   [][]planEntry // per plan: dense comp tables by tree PIdx
	profTree   []int64       // per-tree execution counts, flushed into Prof
	fnIdx      map[string]int
	mainIdx    int // Program.Order index of main, for trace call framing
	framePool  [][]ir.Value
	argPool    [][]ir.Value
	maxFrame   int // widest register frame in the program (see Run)
	maxArgs    int // widest call-argument list in the program
}

// priceShape is the schedule-independent pricing skeleton of one tree,
// shared by the interpreting Runner and the trace Replayer.
type priceShape struct {
	exits  []int // Seq indices of exits, in Seq order
	exitOf []int // Seq index -> exit index (meaningful for exit ops only)

	// guarded lists the Seq indices of guarded ops — the only ops whose
	// commit status can vary between executions. Unguarded ops always
	// commit, so their contribution to a path's time is the per-exit
	// constant base[plan][exit] and the pricing memo only needs to key on
	// the guarded ops' commit bits.
	guarded []int

	// onPath[i][e] reports whether op i's block lies on the path to the
	// tree's e-th exit: only such ops contribute to that path's time (a
	// speculative op from an untaken path occupies an issue slot but its
	// write-back gates nothing).
	onPath [][]bool

	// The dependence-profiling loop runs per tree execution over every arc,
	// so t.Arcs is pre-split into dense endpoint-Seq arrays by commit
	// behavior: arcs between two unguarded ops (awFrom/awTo — the common
	// case) always have both endpoints committed and only need the address
	// comparison, while arcs touching a guarded op (gdFrom/gdTo) need the
	// full commit check. awIdx/gdIdx map each entry back to its t.Arcs
	// index for the end-of-run fold.
	awIdx, awFrom, awTo []int32
	gdIdx, gdFrom, gdTo []int32
}

func shapeOf(t *ir.Tree) *priceShape {
	s := &priceShape{exitOf: make([]int, len(t.Ops))}
	for _, op := range t.Ops {
		if op.Kind == ir.OpExit {
			s.exitOf[op.Seq] = len(s.exits)
			s.exits = append(s.exits, op.Seq)
		}
		if op.Guard != ir.NoReg {
			s.guarded = append(s.guarded, op.Seq)
		}
	}
	s.onPath = make([][]bool, len(t.Ops))
	for i, op := range t.Ops {
		s.onPath[i] = make([]bool, len(s.exits))
		for e, exSeq := range s.exits {
			s.onPath[i][e] = t.OnPath(op.Block, t.Ops[exSeq].Block)
		}
	}
	for i, a := range t.Arcs {
		f, to := int32(a.From.Seq), int32(a.To.Seq)
		if a.From.Guard == ir.NoReg && a.To.Guard == ir.NoReg {
			s.awIdx = append(s.awIdx, int32(i))
			s.awFrom = append(s.awFrom, f)
			s.awTo = append(s.awTo, to)
		} else {
			s.gdIdx = append(s.gdIdx, int32(i))
			s.gdFrom = append(s.gdFrom, f)
			s.gdTo = append(s.gdTo, to)
		}
	}
	return s
}

// ShapeCache shares priceShape skeletons across Runner and Replayer
// instances. Building a shape is the dominant fixed cost of standing up a
// run — O(ops × exits) block-reachability walks per tree — and it depends
// only on tree structure, so repeated runs of the same prepared program
// (measurement sweeps, chaos retries, benchmark iterations) can reuse it.
//
// Entries key on tree identity, not content, so a cache must only ever see
// trees whose structure no longer changes: create it after op-level
// transformations (grafting, SpD) are done, never before. Arc profiling
// counters may still mutate — the shape only captures arc endpoints.
type ShapeCache struct {
	mu sync.Mutex
	m  map[*ir.Tree]*priceShape
}

// NewShapeCache returns an empty shape cache, safe for concurrent use.
func NewShapeCache() *ShapeCache {
	return &ShapeCache{m: map[*ir.Tree]*priceShape{}}
}

// of returns the cached shape for t, building it on first sight.
func (sc *ShapeCache) of(t *ir.Tree) *priceShape {
	sc.mu.Lock()
	s := sc.m[t]
	if s == nil {
		s = shapeOf(t)
		sc.m[t] = s
	}
	sc.mu.Unlock()
	return s
}

// intMemo reports whether the pricing memo can key on a packed uint32
// (commit bits | exit index << 24) instead of a byte-string mask. Integer
// hashing is markedly cheaper, and almost every tree qualifies.
func (s *priceShape) intMemo() bool {
	return len(s.guarded) <= 24 && len(s.exits) <= 256
}

// bitBytes returns the packed guard-commit-bit width used by trace events.
func (s *priceShape) bitBytes() int { return (len(s.guarded) + 7) / 8 }

// baseTables computes, for each plan's completion table, the per-exit
// maximum completion cycle over the unguarded on-path ops.
func (s *priceShape) baseTables(t *ir.Tree, comps [][]int64) [][]int64 {
	base := make([][]int64, len(comps))
	for pi, comp := range comps {
		b := make([]int64, len(s.exits))
		for e := range s.exits {
			var max int64
			for i, op := range t.Ops {
				if op.Guard == ir.NoReg && s.onPath[i][e] && comp[i] > max {
					max = comp[i]
				}
			}
			b[e] = max
		}
		base[pi] = b
	}
	return base
}

// treeCtx is the per-tree execution context, built once and cached.
//
// Execution order: ops run in Seq order. Dependence edges always point from
// a lower Seq to a higher one (see ir.BuildDepGraph), so Seq order is
// exactly the deterministic lowest-Seq-first topological order of the
// dependence graph under every latency model — no graph needs to be built
// to execute.
type treeCtx struct {
	*priceShape

	comp [][]int64
	memo map[string][]int64 // (taken exit, guarded-commit mask) -> per-plan time
	// memoInt replaces memo when the shape qualifies (priceShape.intMemo):
	// key = commit bits | exit index << 24.
	memoInt map[uint32][]int64
	base    [][]int64 // [plan][exit]: max completion over unguarded on-path ops

	committed []bool
	addrs     []int64
	mask      []byte // len(guarded) commit bits + one exit byte
	recBits   []byte // packed commit bits scratch for trace recording

	bc   *bcode.Prog // compiled bytecode (nil: tree runs on the walker)
	nc   *ncode.Prog // compiled closure chain (nil: tree runs on the walker)
	bits []byte      // packed commit bits maintained by the compiled executors

	// Adaptive tiering state (ExecNative with Runner.TierUp > 0): execs
	// counts this run's executions on the bytecode rung, tiered marks that
	// the promotion decision was already made (so a declined native compile
	// is not retried every execution).
	execs  int64
	tiered bool

	// benv / nenv are the compiled executors' machine-state views, built
	// once per tree with the bits, profiling tables, memory image and print
	// hook already bound; per execution only the register frame changes
	// (see execBC / execNC).
	benv bcode.Env
	nenv ncode.Env

	// callee / calleeIdx resolve each ExitCall op (by Seq) to its target
	// function and the target's Program.Order index, so the call loop never
	// hashes a function name. nil when the tree makes no calls.
	callee    []*ir.Function
	calleeIdx []int

	profExit []int64 // per-exit execution counts (profiling runs)

	// The dependence profile accumulates densely during compiled-engine
	// profiling runs and Run folds it into the t.Arcs counters once at the
	// end, keeping *MemArc pointer chasing off the per-execution path:
	// nexec counts tree executions (the ExecCount of every always-committed
	// arc), awAlias the same-address hits of the always-committed arcs, and
	// gdExec/gdAlias the both-committed and same-address hits of the arcs
	// touching guarded ops.
	nexec           int64
	awAlias         []int64
	gdExec, gdAlias []int64
}

func (r *Runner) ctx(t *ir.Tree) (*treeCtx, error) {
	if c := r.ctxes[t.PIdx]; c != nil {
		return c, nil
	}
	var shape *priceShape
	if r.Shapes != nil {
		shape = r.Shapes.of(t)
	} else {
		shape = shapeOf(t)
	}
	c := &treeCtx{
		priceShape: shape,
		committed:  make([]bool, len(t.Ops)),
		addrs:      make([]int64, len(t.Ops)),
	}
	// Unguarded ops commit on every execution; execTree only ever rewrites
	// the guarded entries.
	for _, op := range t.Ops {
		if op.Guard == ir.NoReg {
			c.committed[op.Seq] = true
		}
	}
	if c.intMemo() {
		c.memoInt = map[uint32][]int64{}
	} else {
		c.memo = map[string][]int64{}
		c.mask = make([]byte, c.bitBytes()+1)
	}
	if r.Rec != nil {
		c.recBits = make([]byte, c.bitBytes())
	}
	profiling := r.Prof != nil
	switch r.Exec {
	case ExecBytecode:
		if c.bc = r.bcodeProg(t); c.bc != nil {
			c.bits = make([]byte, c.bitBytes())
			c.benv = bcode.Env{Mem: r.mem, Bits: c.bits, Print: r.printVal, Profiling: profiling}
			if profiling {
				c.benv.Committed = c.committed
				c.benv.Addrs = c.addrs
			}
		}
	case ExecNative:
		if r.TierUp > 0 {
			// Adaptive tiering: start the tree on the bytecode engine and
			// defer the native compile until execNC sees it cross the hot
			// threshold. A tree the bytecode compiler declines runs on the
			// walker (the native compiler, which lowers through bytecode,
			// would decline it too).
			if c.bc = r.bcodeProg(t); c.bc != nil {
				c.bits = make([]byte, c.bitBytes())
				c.benv = bcode.Env{Mem: r.mem, Bits: c.bits, Print: r.printVal, Profiling: profiling}
				if profiling {
					c.benv.Committed = c.committed
					c.benv.Addrs = c.addrs
				}
			}
		} else if c.nc = r.ncodeProg(t); c.nc != nil {
			c.bits = make([]byte, c.bitBytes())
			c.nenv = ncode.Env{Mem: r.mem, Bits: c.bits, Print: r.printVal}
			if profiling {
				c.nenv.Committed = c.committed
				c.nenv.Addrs = c.addrs
			}
		}
	}
	for _, op := range t.Ops {
		if op.Kind == ir.OpExit && op.Exit == ir.ExitCall {
			if c.callee == nil {
				c.callee = make([]*ir.Function, len(t.Ops))
				c.calleeIdx = make([]int, len(t.Ops))
			}
			c.callee[op.Seq] = r.Prog.Funcs[op.Callee]
			c.calleeIdx[op.Seq] = r.fnIdx[op.Callee]
		}
	}
	c.profExit = make([]int64, len(c.exits))
	if r.Prof != nil {
		if n := len(c.awIdx); n > 0 {
			c.awAlias = make([]int64, n)
		}
		if n := len(c.gdIdx); n > 0 {
			c.gdExec = make([]int64, n)
			c.gdAlias = make([]int64, n)
		}
	}
	for pi, p := range r.Plans {
		ent := r.planTabs[pi][t.PIdx]
		if ent.tree != t || ent.comp == nil {
			return nil, fmt.Errorf("sim: plan %q has no schedule for tree %s: %w",
				p.Name, t.Name, resilience.ErrMissingSchedule)
		}
		c.comp = append(c.comp, ent.comp)
	}
	c.base = c.baseTables(t, c.comp)
	r.ctxes[t.PIdx] = c
	return c, nil
}

// ctxCheckEveryOps is how often (in dynamic ops) a run polls its context.
// At interpreter speeds this bounds cancellation latency to a few
// milliseconds while keeping the poll off the per-tree hot path.
const ctxCheckEveryOps = 1 << 16

// fuel charges one tree execution's nops dynamic operations against the
// run's budget, polls the deadline context, and fires the chaos-panic hook.
// Shared by both execution engines so fuel semantics cannot diverge. The
// charge is len(tree.Ops) regardless of tier, which is only sound because
// every compiled tier keeps instruction index == Seq — the contract the
// translation validators (internal/verify.CheckBCode/CheckNCode) enforce
// statically on every compiled and store-loaded artifact.
func (r *Runner) fuel(nops int) error {
	maxOps := r.MaxOps
	if maxOps == 0 {
		maxOps = DefaultMaxOps
	}
	r.ops += int64(nops)
	if r.ops > maxOps {
		return fmt.Errorf("sim: operation budget exceeded (%d): %w", maxOps, resilience.ErrFuelExhausted)
	}
	if r.ChaosPanicAt > 0 && r.ops >= r.ChaosPanicAt {
		panic(resilience.InjectedPanic(r.ops))
	}
	if r.Ctx != nil && r.ops >= r.ctxCheckAt {
		r.ctxCheckAt = r.ops + ctxCheckEveryOps
		if err := r.Ctx.Err(); err != nil {
			return fmt.Errorf("sim: run canceled after %d dynamic ops: %w (%w)", r.ops, resilience.ErrDeadline, err)
		}
	}
	return nil
}

// Run executes the program from main and returns the result.
func (r *Runner) Run() (*Result, error) {
	if r.SemLat == nil {
		return nil, fmt.Errorf("sim: SemLat is required")
	}
	r.mem = make([]ir.Value, r.Prog.MemSize)
	for _, g := range r.Prog.Globals {
		copy(r.mem[g.Base:g.Base+g.Size], g.Init)
	}
	r.out.Reset()
	r.ops = 0
	r.committed = 0
	r.ctxCheckAt = 0
	r.depth = 0
	if r.Ctx != nil {
		if err := r.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: run canceled before start: %w (%w)", resilience.ErrDeadline, err)
		}
	}
	r.times = make([]int64, len(r.Plans))
	numTrees := r.Prog.IndexTrees()
	r.ctxes = make([]*treeCtx, numTrees)
	r.profTree = make([]int64, numTrees)
	r.planTabs = make([][]planEntry, len(r.Plans))
	for pi, p := range r.Plans {
		r.planTabs[pi] = p.dense(numTrees)
	}
	r.fnIdx = make(map[string]int, len(r.Prog.Order))
	for i, name := range r.Prog.Order {
		r.fnIdx[name] = i
	}
	r.mainIdx = r.fnIdx[r.Prog.Main]
	// Size the frame/arg pools by the widest frame and call in the program,
	// so every pooled buffer fits every function and the steady-state call
	// loop never allocates.
	r.maxFrame, r.maxArgs = 1, 1
	for _, fn := range r.Prog.Funcs {
		if fn.NumRegs > r.maxFrame {
			r.maxFrame = fn.NumRegs
		}
		for _, t := range fn.Trees {
			for _, op := range t.Ops {
				if op.Kind == ir.OpExit && op.Exit == ir.ExitCall && len(op.CallArg) > r.maxArgs {
					r.maxArgs = len(op.CallArg)
				}
			}
		}
	}

	main := r.Prog.Funcs[r.Prog.Main]
	exit, err := r.call(main, r.mainIdx, nil)
	if err != nil {
		return nil, err
	}
	// Execution counted into dense per-tree tables; fold it into the
	// pointer-keyed Profile maps once, at the end of the run.
	if r.Prof != nil {
		for _, name := range r.Prog.Order {
			for _, t := range r.Prog.Funcs[name].Trees {
				if n := r.profTree[t.PIdx]; n > 0 {
					r.Prof.TreeExec[t] += n
				}
				if c := r.ctxes[t.PIdx]; c != nil {
					for e, cnt := range c.profExit {
						if cnt > 0 {
							r.Prof.ExitExec[t.Ops[c.exits[e]]] += cnt
						}
					}
					if c.nexec > 0 {
						for k, i := range c.awIdx {
							t.Arcs[i].ExecCount += c.nexec
							t.Arcs[i].AliasCount += c.awAlias[k]
						}
						for k, i := range c.gdIdx {
							if n := c.gdExec[k]; n > 0 {
								t.Arcs[i].ExecCount += n
								t.Arcs[i].AliasCount += c.gdAlias[k]
							}
						}
					}
				}
			}
		}
	}
	return &Result{
		Output:    r.out.String(),
		Times:     r.times,
		Ops:       r.ops,
		Committed: r.committed,
		Exit:      exit,
	}, nil
}

func (r *Runner) getFrame(n int) []ir.Value {
	if k := len(r.framePool); k > 0 && cap(r.framePool[k-1]) >= n {
		f := r.framePool[k-1][:n]
		r.framePool = r.framePool[:k-1]
		for i := range f {
			f[i] = ir.Value{}
		}
		return f
	}
	// Allocate at the program's widest frame so the pooled buffer fits every
	// function: after the warm-up to peak call depth, the loop is allocation
	// free.
	c := n
	if r.maxFrame > c {
		c = r.maxFrame
	}
	return make([]ir.Value, n, c)
}

func (r *Runner) putFrame(f []ir.Value) {
	if len(r.framePool) < 64 {
		r.framePool = append(r.framePool, f)
	}
}

// getArgs / putArgs pool call-argument buffers the same way frames are
// pooled: the buffer is dead as soon as the callee has copied its parameters
// into its frame, but recursion requires a stack of them, not one scratch.
func (r *Runner) getArgs(n int) []ir.Value {
	if k := len(r.argPool); k > 0 && cap(r.argPool[k-1]) >= n {
		a := r.argPool[k-1][:n]
		r.argPool = r.argPool[:k-1]
		return a
	}
	c := n
	if r.maxArgs > c {
		c = r.maxArgs
	}
	return make([]ir.Value, n, c)
}

func (r *Runner) putArgs(a []ir.Value) {
	if len(r.argPool) < 64 {
		r.argPool = append(r.argPool, a)
	}
}

// call runs one function invocation. fnOrd is fn's Program.Order index,
// resolved by the caller (treeCtx.calleeIdx) so call framing never hashes a
// function name.
func (r *Runner) call(fn *ir.Function, fnOrd int, args []ir.Value) (ir.Value, error) {
	if r.depth >= MaxCallDepth {
		return ir.Value{}, fmt.Errorf("sim: call depth exceeds %d in %s: %w", MaxCallDepth, fn.Name, resilience.ErrCallDepth)
	}
	r.depth++
	regs := r.getFrame(fn.NumRegs)
	defer func() {
		r.depth--
		r.putFrame(regs)
	}()
	for i, p := range fn.Params {
		regs[p] = args[i]
	}
	if r.Rec != nil {
		r.Rec.Call(fnOrd)
	}
	cur := fn.Entry
	mode := r.Exec
	for {
		t := fn.Trees[cur]
		var exit *ir.Op
		var err error
		switch mode {
		case ExecTree:
			exit, err = r.execTree(t, regs)
		case ExecNative:
			exit, err = r.execNC(t, regs)
		default:
			exit, err = r.execBC(t, regs)
		}
		if err != nil {
			return ir.Value{}, err
		}
		switch exit.Exit {
		case ir.ExitGoto:
			cur = exit.Target
		case ir.ExitRet:
			if r.Rec != nil {
				r.Rec.Ret()
			}
			if len(exit.Args) > 0 {
				return regs[exit.Args[0]], nil
			}
			return ir.Value{}, nil
		case ir.ExitCall:
			c := r.ctxes[t.PIdx] // built by the exec above
			cargs := r.getArgs(len(exit.CallArg))
			for i, a := range exit.CallArg {
				cargs[i] = regs[a]
			}
			rv, err := r.call(c.callee[exit.Seq], c.calleeIdx[exit.Seq], cargs)
			r.putArgs(cargs)
			if err != nil {
				return ir.Value{}, err
			}
			if exit.Dest != ir.NoReg {
				regs[exit.Dest] = rv
			}
			cur = exit.Target
		}
	}
}

func (r *Runner) clamp(a int64) int64 {
	if a < 0 {
		return 0
	}
	if a >= int64(len(r.mem)) {
		return int64(len(r.mem)) - 1
	}
	return a
}

func guardOK(op *ir.Op, regs []ir.Value) bool {
	if op.Guard == ir.NoReg {
		return true
	}
	nz := regs[op.Guard].I != 0
	if op.GuardNeg {
		return !nz
	}
	return nz
}

// execTree executes one tree over the register frame, returning the taken
// exit op. Ops run in Seq order, which is a topological order of the
// dependence graph (see treeCtx).
func (r *Runner) execTree(t *ir.Tree, regs []ir.Value) (*ir.Op, error) {
	c, err := r.ctx(t)
	if err != nil {
		return nil, err
	}
	if err := r.fuel(len(t.Ops)); err != nil {
		return nil, err
	}

	profiling := r.Prof != nil
	var taken *ir.Op
	var ncommit int64
	for i, op := range t.Ops {
		// Unguarded ops always commit (their committed entries are
		// pre-set); only guarded ops need their guard evaluated.
		ok := true
		if op.Guard != ir.NoReg {
			nz := regs[op.Guard].I != 0
			ok = nz != op.GuardNeg
			c.committed[i] = ok
			if ok {
				ncommit++
			}
		}

		switch op.Kind {
		case ir.OpLoad:
			a := r.clamp(regs[op.Args[0]].I)
			if profiling {
				c.addrs[i] = a
			}
			if ok {
				regs[op.Dest] = r.mem[a]
			}
		case ir.OpStore:
			a := r.clamp(regs[op.Args[0]].I)
			if profiling {
				c.addrs[i] = a
			}
			if ok {
				r.mem[a] = regs[op.Args[1]]
			}
		case ir.OpPrint:
			if ok {
				r.printVal(regs[op.Args[0]], op.PrintFloat)
			}
		case ir.OpExit:
			if ok {
				if taken != nil {
					return nil, fmt.Errorf("tree %s: two exits taken (%%%d and %%%d)", t.Name, taken.ID, op.ID)
				}
				taken = op
			}
		default:
			v := evalPure(op, regs)
			if ok && op.Dest != ir.NoReg {
				regs[op.Dest] = v
			}
		}
	}
	if taken == nil {
		return nil, fmt.Errorf("tree %s: no exit taken", t.Name)
	}
	r.committed += ncommit + int64(len(t.Ops)-len(c.guarded))

	if r.Rec != nil {
		for b := range c.recBits {
			c.recBits[b] = 0
		}
		for k, i := range c.guarded {
			if c.committed[i] {
				c.recBits[k>>3] |= 1 << uint(k&7)
			}
		}
		r.Rec.Tree(t.PIdx, c.exitOf[taken.Seq], c.recBits)
	}
	if len(r.times) > 0 {
		r.price(t, c, c.exitOf[taken.Seq])
	}
	if profiling {
		r.profTree[t.PIdx]++
		c.profExit[c.exitOf[taken.Seq]]++
		for _, a := range t.Arcs {
			if c.committed[a.From.Seq] && c.committed[a.To.Seq] {
				a.ExecCount++
				if c.addrs[a.From.Seq] == c.addrs[a.To.Seq] {
					a.AliasCount++
				}
			}
		}
	}
	return taken, nil
}

// price accumulates the cost of this execution under every plan: the time of
// one tree execution is the maximum completion cycle over the ops that
// committed on the taken path (results of speculative ops from other paths
// gate nothing). Unguarded ops always commit, so their maximum is the
// precomputed per-exit base; only the guarded ops' commit bits vary, and
// they form the memo key together with the taken exit.
func (r *Runner) price(t *ir.Tree, c *treeCtx, exitIdx int) {
	var times []int64
	if c.memoInt != nil {
		var bits uint32
		for k, i := range c.guarded {
			if c.committed[i] {
				bits |= 1 << uint(k)
			}
		}
		key := bits | uint32(exitIdx)<<24
		var ok bool
		times, ok = c.memoInt[key]
		if !ok {
			times = r.priceMiss(c, exitIdx)
			c.memoInt[key] = times
		}
	} else {
		for b := range c.mask {
			c.mask[b] = 0
		}
		for k, i := range c.guarded {
			if c.committed[i] {
				c.mask[k>>3] |= 1 << uint(k&7)
			}
		}
		c.mask[len(c.mask)-1] = byte(exitIdx)
		var ok bool
		times, ok = c.memo[string(c.mask)]
		if !ok {
			times = r.priceMiss(c, exitIdx)
			c.memo[string(c.mask)] = times
		}
	}
	for pi, dt := range times {
		r.times[pi] += dt
	}
}

// priceMiss computes the per-plan time of the current commit pattern.
func (r *Runner) priceMiss(c *treeCtx, exitIdx int) []int64 {
	times := make([]int64, len(r.Plans))
	for pi, comp := range c.comp {
		max := c.base[pi][exitIdx]
		for _, i := range c.guarded {
			if c.committed[i] && c.onPath[i][exitIdx] && comp[i] > max {
				max = comp[i]
			}
		}
		times[pi] = max
	}
	return times
}

// b2i converts a comparison result to the IR's boolean encoding.
func b2i(b bool) ir.Value {
	if b {
		return ir.Value{I: 1, F: 1}
	}
	return ir.Value{}
}

// evalPure computes the result of a side-effect-free, non-memory op.
func evalPure(op *ir.Op, regs []ir.Value) ir.Value {
	// Hot path: resolve the (at most two) operands once, without closures.
	var x, y ir.Value
	switch len(op.Args) {
	case 2:
		x, y = regs[op.Args[0]], regs[op.Args[1]]
	case 1:
		x = regs[op.Args[0]]
	}
	switch op.Kind {
	case ir.OpNop:
		return ir.Value{}
	case ir.OpConst:
		return op.Imm
	case ir.OpMove:
		return x
	case ir.OpAdd:
		return intV(x.I + y.I)
	case ir.OpSub:
		return intV(x.I - y.I)
	case ir.OpMul:
		return intV(x.I * y.I)
	case ir.OpDiv:
		d := y.I
		if d == 0 {
			return ir.Value{}
		}
		if x.I == math.MinInt64 && d == -1 {
			return intV(math.MinInt64)
		}
		return intV(x.I / d)
	case ir.OpRem:
		d := y.I
		if d == 0 {
			return ir.Value{}
		}
		if x.I == math.MinInt64 && d == -1 {
			return intV(0)
		}
		return intV(x.I % d)
	case ir.OpNeg:
		return intV(-x.I)
	case ir.OpAnd:
		return intV(x.I & y.I)
	case ir.OpOr:
		return intV(x.I | y.I)
	case ir.OpXor:
		return intV(x.I ^ y.I)
	case ir.OpNot:
		return intV(^x.I)
	case ir.OpShl:
		return intV(x.I << (uint64(y.I) & 63))
	case ir.OpShr:
		return intV(x.I >> (uint64(y.I) & 63))
	case ir.OpBNot:
		return b2i(x.I == 0)
	case ir.OpBAnd:
		return b2i(x.I != 0 && y.I != 0)
	case ir.OpBAndNot:
		return b2i(x.I != 0 && y.I == 0)
	case ir.OpCmpEQ:
		return b2i(x.I == y.I)
	case ir.OpCmpNE:
		return b2i(x.I != y.I)
	case ir.OpCmpLT:
		return b2i(x.I < y.I)
	case ir.OpCmpLE:
		return b2i(x.I <= y.I)
	case ir.OpCmpGT:
		return b2i(x.I > y.I)
	case ir.OpCmpGE:
		return b2i(x.I >= y.I)
	case ir.OpFAdd:
		return fltV(x.F + y.F)
	case ir.OpFSub:
		return fltV(x.F - y.F)
	case ir.OpFMul:
		return fltV(x.F * y.F)
	case ir.OpFDiv:
		return fltV(x.F / y.F)
	case ir.OpFNeg:
		return fltV(-x.F)
	case ir.OpFCmpEQ:
		return b2i(x.F == y.F)
	case ir.OpFCmpNE:
		return b2i(x.F != y.F)
	case ir.OpFCmpLT:
		return b2i(x.F < y.F)
	case ir.OpFCmpLE:
		return b2i(x.F <= y.F)
	case ir.OpFCmpGT:
		return b2i(x.F > y.F)
	case ir.OpFCmpGE:
		return b2i(x.F >= y.F)
	case ir.OpCvtIF:
		return fltV(float64(x.I))
	case ir.OpCvtFI:
		return cvtFI(x.F)
	case ir.OpSqrt:
		return fltV(math.Sqrt(x.F))
	case ir.OpFAbs:
		return fltV(math.Abs(x.F))
	case ir.OpSin:
		return fltV(math.Sin(x.F))
	case ir.OpCos:
		return fltV(math.Cos(x.F))
	case ir.OpExp:
		return fltV(math.Exp(x.F))
	case ir.OpLog:
		return fltV(math.Log(x.F))
	}
	panic("evalPure: unhandled op kind " + op.Kind.String())
}

func intV(i int64) ir.Value   { return ir.Value{I: i, F: float64(i)} }
func fltV(f float64) ir.Value { return ir.Value{I: int64(f), F: f} }

func cvtFI(f float64) ir.Value {
	if math.IsNaN(f) {
		return ir.Value{}
	}
	if f > math.MaxInt64 {
		return intV(math.MaxInt64)
	}
	if f < math.MinInt64 {
		return intV(math.MinInt64)
	}
	return intV(int64(f))
}

func (r *Runner) printVal(v ir.Value, isFloat bool) {
	if isFloat {
		f := v.F
		// Round to 6 significant decimals so that output checksums are
		// robust against benign floating-point noise across schedules.
		r.out.WriteString(strconv.FormatFloat(f, 'g', 6, 64))
	} else {
		r.out.WriteString(strconv.FormatInt(v.I, 10))
	}
	r.out.WriteByte('\n')
}
