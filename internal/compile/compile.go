// Package compile lowers checked MiniC programs to the decision-tree IR:
// expression lowering to guarded operations, CFG construction, decision-tree
// formation (single entry, no internal back edges), if-conversion with guard
// materialization, and conservative memory-dependence arc construction.
//
// Symbolic affine address analysis runs alongside lowering and attaches a
// MemRef to every load and store, which the alias package's static
// disambiguator (GCD/Banerjee) consumes.
package compile

import (
	"fmt"

	"specdis/internal/ir"
	"specdis/internal/lang"
	"specdis/internal/verify"
)

// redZone is the number of unmapped words kept below the first global, so
// that speculative accesses through small garbage addresses never collide
// with real data.
const redZone = 16

// memSlack is extra memory beyond the globals, absorbing speculative
// out-of-range addresses (the interpreter clamps addresses into the memory).
const memSlack = 4096

// MaxGlobalWords bounds the words all globals may occupy together. The
// engines allocate the whole memory image up front, so an unbounded
// declaration (int a[4000000000]) would exhaust the host's memory; Lower
// rejects it with a compile error instead. The largest benchmark image is
// ~5.2k words, so the budget leaves two orders of magnitude of headroom.
const MaxGlobalWords = 1 << 20

// Options configure compilation beyond the defaults.
type Options struct {
	// Verify runs the full static verifier (structural, guard, exit, and
	// arc invariants — see internal/verify) over the lowered program, on
	// top of the always-on ir.Validate sanity pass. Debug mode: it costs a
	// whole-program traversal per compile.
	Verify bool
}

// Compile parses, checks, and lowers a MiniC source file into a decision-tree
// program with conservative (NAIVE) memory-dependence arcs.
func Compile(src string) (*ir.Program, error) {
	return CompileOpts(src, Options{})
}

// CompileOpts is Compile with options.
func CompileOpts(src string, o Options) (*ir.Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	checked, err := lang.Check(ast)
	if err != nil {
		return nil, err
	}
	prog, err := Lower(checked)
	if err != nil {
		return nil, err
	}
	if o.Verify {
		if err := verify.Program(prog); err != nil {
			return nil, fmt.Errorf("compile: lowered program failed verification: %w", err)
		}
	}
	return prog, nil
}

// Lower lowers a checked program.
func Lower(checked *lang.CheckedProgram) (*ir.Program, error) {
	irp := &ir.Program{Funcs: map[string]*ir.Function{}, Main: "main"}

	// Lay out globals in the flat memory image. Comparing each size with
	// the budget still left keeps the running sum from overflowing.
	next := int64(redZone)
	for _, g := range checked.AST.Globals {
		if g.Size > MaxGlobalWords-(next-redZone) {
			return nil, fmt.Errorf("global %q: %d words overflow the %d-word global memory budget", g.Name, g.Size, MaxGlobalWords)
		}
		ga := &ir.GlobalArray{Name: g.Name, Base: next, Size: g.Size}
		for _, e := range g.Init {
			v, err := constValue(e, g.Elem)
			if err != nil {
				return nil, err
			}
			ga.Init = append(ga.Init, v)
		}
		irp.Globals = append(irp.Globals, ga)
		next += g.Size
	}
	irp.MemSize = next + memSlack

	for _, fd := range checked.AST.Funcs {
		fn, err := lowerFunc(checked, irp, fd)
		if err != nil {
			return nil, fmt.Errorf("func %s: %w", fd.Name, err)
		}
		irp.Funcs[fd.Name] = fn
		irp.Order = append(irp.Order, fd.Name)
	}

	// Conservative memory-dependence arcs (the NAIVE disambiguator state).
	for _, name := range irp.Order {
		for _, t := range irp.Funcs[name].Trees {
			t.BuildMemArcs()
		}
	}
	if err := irp.Validate(); err != nil {
		return nil, err
	}
	for _, name := range irp.Order {
		for _, t := range irp.Funcs[name].Trees {
			if err := t.ValidateBlocks(); err != nil {
				return nil, err
			}
		}
	}
	return irp, nil
}

func constValue(e lang.Expr, elem lang.Type) (ir.Value, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		if elem == lang.TypeFloat {
			return ir.Value{I: x.V, F: float64(x.V)}, nil
		}
		return ir.Value{I: x.V, F: float64(x.V)}, nil
	case *lang.FloatLit:
		return ir.Value{I: int64(x.V), F: x.V}, nil
	case *lang.UnaryExpr:
		if x.Op == '-' {
			v, err := constValue(x.X, elem)
			if err != nil {
				return ir.Value{}, err
			}
			return ir.Value{I: -v.I, F: -v.F}, nil
		}
	}
	return ir.Value{}, fmt.Errorf("global initializer is not a literal")
}

func lowerFunc(checked *lang.CheckedProgram, irp *ir.Program, fd *lang.FuncDecl) (*ir.Function, error) {
	fn := &ir.Function{Name: fd.Name, IsFloatRet: fd.Ret == lang.TypeFloat}
	lo := &lowerer{
		prog: checked,
		irp:  irp,
		fn:   fn,
		decl: fd,
	}
	lo.sym = newSymEnv(&lo.varID)
	lo.pushScope()
	for _, p := range fd.Params {
		r := lo.declareVar(p.Name, p.Type)
		fn.Params = append(fn.Params, r)
	}
	entry := lo.newBlock()
	lo.setCur(entry)
	if err := lo.lowerStmt(fd.Body); err != nil {
		return nil, err
	}
	// Implicit return at the end of the body; also terminate any dead
	// continuation blocks left open by return/break lowering.
	for _, b := range lo.blocks {
		if b.kind == termNone {
			b.kind = termRet
			b.retVal = ir.NoReg
		}
	}
	if err := buildTrees(fn, lo.blocks); err != nil {
		return nil, err
	}
	return fn, nil
}
