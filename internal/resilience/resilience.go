// Package resilience is the fault-tolerance layer of the evaluation stack:
// a typed error taxonomy for everything that can go wrong inside one
// evaluation cell, panic containment that converts a crash into a structured
// error, and a deterministic fault-injection harness that proves the
// degradation paths actually fire.
//
// The design mirrors the discipline of the speculative systems this
// repository models: wrong-path work must be containable and squashable. A
// runaway interpretation is bounded by a fuel budget (ErrFuelExhausted), a
// wall-clock deadline cancels whole runs (ErrDeadline), a panic in one cell
// of the experiment grid is recovered into a CellError instead of killing
// the process, and every recovery path is exercised on demand by a seeded
// FaultPlan (see fault.go).
//
// The package is a leaf: the simulators (internal/sim), the pipelines
// (internal/disamb) and the experiment engine (internal/exper) all import it
// for the shared error vocabulary; it imports only internal/trace (to
// classify corrupt-trace errors) and the standard library.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"specdis/internal/trace"
)

// Sentinel errors of the taxonomy. Producers wrap them with %w and context;
// consumers match with errors.Is or classify whole chains with Classify.
var (
	// ErrFuelExhausted marks an interpretation that ran out of its dynamic
	// operation budget — the bound that turns a nonterminating program into
	// a visible, typed failure instead of a hang.
	ErrFuelExhausted = errors.New("fuel exhausted")

	// ErrDeadline marks a run canceled by its context — deadline expiry or
	// explicit cancellation.
	ErrDeadline = errors.New("deadline exceeded")

	// ErrCallDepth marks an interpretation whose call nesting exceeded the
	// simulator's depth budget (sim.MaxCallDepth) — the bound that turns
	// unbounded recursion into a typed failure instead of a fatal Go stack
	// overflow.
	ErrCallDepth = errors.New("call depth exceeded")

	// ErrMissingSchedule marks a pricing attempt against a plan that has no
	// schedule for a tree the program executed (formerly a process-killing
	// panic in the simulator and the replayer).
	ErrMissingSchedule = errors.New("missing schedule")

	// ErrInjected marks a failure manufactured by the fault-injection
	// harness; injected panics carry it in their message so a recovered
	// CellError is recognizably synthetic.
	ErrInjected = errors.New("injected fault")
)

// Class is the coarse failure classification degradation policy keys on.
type Class uint8

// Failure classes, from most to least structured.
const (
	// ClassUnknown is any failure the taxonomy does not recognize
	// (divergence checks, compile errors, genuine bugs).
	ClassUnknown Class = iota
	// ClassPanic is a recovered runtime panic.
	ClassPanic
	// ClassFuel is an exhausted dynamic-operation budget.
	ClassFuel
	// ClassDeadline is a context deadline or cancellation.
	ClassDeadline
	// ClassCorruptTrace is a truncated or bit-flipped execution trace.
	ClassCorruptTrace
	// ClassMissingSchedule is a pricing plan lacking a tree's schedule.
	ClassMissingSchedule
	// ClassCallDepth is call nesting beyond the simulator's depth budget.
	ClassCallDepth
)

func (c Class) String() string {
	switch c {
	case ClassUnknown:
		return "unknown"
	case ClassPanic:
		return "panic"
	case ClassFuel:
		return "fuel"
	case ClassDeadline:
		return "deadline"
	case ClassCorruptTrace:
		return "corrupt-trace"
	case ClassMissingSchedule:
		return "missing-schedule"
	case ClassCallDepth:
		return "call-depth"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classify maps an error chain onto its failure class. A nil error is
// ClassUnknown; callers should only classify actual failures.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassUnknown
	case errors.Is(err, ErrFuelExhausted):
		return ClassFuel
	case errors.Is(err, ErrDeadline),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return ClassDeadline
	case errors.Is(err, ErrMissingSchedule):
		return ClassMissingSchedule
	case errors.Is(err, ErrCallDepth):
		return ClassCallDepth
	case errors.Is(err, trace.ErrCorrupt):
		return ClassCorruptTrace
	}
	var ce *CellError
	if errors.As(err, &ce) {
		return ce.Class
	}
	return ClassUnknown
}

// Retryable reports whether a failure of this class is worth retrying on a
// different execution backend. Fuel, call-depth and deadline failures are
// determined by the program and the budget, not the engine; missing
// schedules and corrupt traces have their own dedicated recovery rungs.
func (c Class) Retryable() bool {
	return c == ClassPanic || c == ClassUnknown
}

// CellError is one evaluation cell's structured failure: which cell, which
// pipeline stage, what class of fault, the underlying error, and — for
// recovered panics — the goroutine stack at the point of the crash.
type CellError struct {
	// Benchmark, Pipeline and MemLat identify the cell in the experiment
	// grid. MemLat 0 marks a canonical cell shared across memory latencies.
	Benchmark string
	Pipeline  string
	MemLat    int
	// Stage is the pipeline stage that failed: "prepare", "measure",
	// "capture", "replay" or "lint".
	Stage string
	Class Class
	Err   error
	// Stack is the recovered goroutine stack (panics only).
	Stack []byte
}

// Cell returns the cell's canonical "benchmark/pipeline/mN" name — the same
// string a FaultPlan selects on.
func (e *CellError) Cell() string {
	return CellName(e.Benchmark, e.Pipeline, e.MemLat)
}

// CellName builds the canonical cell name used by CellError and FaultPlan.
func CellName(benchmark, pipeline string, memLat int) string {
	return fmt.Sprintf("%s/%s/m%d", benchmark, pipeline, memLat)
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s %s [%s]: %v", e.Cell(), e.Stage, e.Class, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// AsCellError wraps err into a CellError for the given cell and stage,
// classifying it; an error that already is a CellError (however deep in the
// chain) is returned unchanged so cells fail with their original identity.
func AsCellError(err error, benchmark, pipeline string, memLat int, stage string) *CellError {
	var ce *CellError
	if errors.As(err, &ce) {
		return ce
	}
	return &CellError{
		Benchmark: benchmark,
		Pipeline:  pipeline,
		MemLat:    memLat,
		Stage:     stage,
		Class:     Classify(err),
		Err:       err,
	}
}

// Recover converts an in-flight panic into a *CellError stored in *errp,
// capturing the stack. Use it as a deferred call at every cell boundary:
//
//	func (r *Runner) cell(...) (res T, err error) {
//		defer resilience.Recover(&err, bench, pipe, memLat, "measure")
//		...
//	}
//
// A panic that is itself an error (or carries one) stays matchable through
// Unwrap; everything else is formatted.
func Recover(errp *error, benchmark, pipeline string, memLat int, stage string) {
	v := recover()
	if v == nil {
		return
	}
	inner, ok := v.(error)
	if !ok {
		inner = fmt.Errorf("panic: %v", v)
	} else {
		inner = fmt.Errorf("panic: %w", inner)
	}
	*errp = &CellError{
		Benchmark: benchmark,
		Pipeline:  pipeline,
		MemLat:    memLat,
		Stage:     stage,
		Class:     ClassPanic,
		Err:       inner,
		Stack:     debug.Stack(),
	}
}

// injectedPanic is the error value chaos panics throw: it unwraps to
// ErrInjected so recovered CellErrors from the harness are recognizable.
type injectedPanic struct{ at int64 }

func (p injectedPanic) Error() string {
	return fmt.Sprintf("injected panic at dynamic op %d", p.at)
}

func (p injectedPanic) Unwrap() error { return ErrInjected }

// InjectedPanic returns the value a chaos hook should panic with when the
// dynamic op count crosses its trigger: an error unwrapping to ErrInjected.
func InjectedPanic(at int64) error { return injectedPanic{at: at} }
