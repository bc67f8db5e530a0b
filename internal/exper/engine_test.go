package exper

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"specdis/internal/disamb"
	"specdis/internal/resilience"
)

// TestRunStealingRunsEveryTaskOnce drives the scheduler with heavily skewed
// costs — one shard gets the giant tasks, forcing idle workers to steal —
// and requires every task to run exactly once.
func TestRunStealingRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 7, 100} {
			costs := make([]int64, n)
			for i := range costs {
				// A few huge tasks and a long tail of tiny ones: LPT packs
				// the giants onto separate shards, the tail gets stolen.
				if i%17 == 0 {
					costs[i] = 1_000_000
				} else {
					costs[i] = int64(1 + i%5)
				}
			}
			ran := make([]atomic.Int32, n)
			runStealing(context.Background(), workers, costs, func(i int) {
				ran[i].Add(1)
			})
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestRunStealingStealsUnderSkew pins that stealing actually happens: with
// every task's cost on one shard-dominating scale, at least two workers
// must end up running tasks (the static LPT split plus work stealing spread
// the load), exercised under the race detector.
func TestRunStealingStealsUnderSkew(t *testing.T) {
	const n = 64
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = 1 // uniform: LPT spreads them evenly
	}
	var mu sync.Mutex
	seen := map[int]bool{} // distinct goroutines that ran tasks
	var barrier sync.WaitGroup
	barrier.Add(2)
	first := true
	runStealing(context.Background(), 2, costs, func(i int) {
		mu.Lock()
		if first {
			first = false
			mu.Unlock()
			// Park the first task long enough that its shard's remaining
			// tasks must be stolen by the other worker.
			barrier.Done()
			barrier.Wait()
			mu.Lock()
		}
		seen[i] = true
		if len(seen) == n-1 {
			// Every other task finished while the first was parked.
			barrier.Done()
		}
		mu.Unlock()
	})
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("ran %d of %d tasks", len(seen), n)
	}
}

// TestStealingCancelSkipsQueued pins the cancellation contract: once a
// worker observes the context cancelled, it exits without executing its
// queued tasks — a cancelled request's cells are skipped, not run and
// discarded. Both workers are parked inside in-flight tasks when the cancel
// lands, so any further task start would be a task started strictly after
// its worker could observe the cancellation.
func TestStealingCancelSkipsQueued(t *testing.T) {
	const n = 64
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(2)
	var started atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		runStealing(ctx, 2, costs, func(i int) {
			if started.Add(1) <= 2 {
				entered.Done()
			}
			<-release
		})
	}()
	entered.Wait() // both workers are mid-task
	cancel()       // cancellation is observable before any next pop
	close(release)
	<-done
	if got := started.Load(); got != 2 {
		t.Fatalf("%d tasks started; want exactly the 2 in-flight ones (queued tasks must be skipped)", got)
	}

	// The sequential path (one worker) honors a pre-cancelled context too.
	pre, stop := context.WithCancel(context.Background())
	stop()
	ran := 0
	runStealing(pre, 1, costs, func(i int) { ran++ })
	if ran != 0 {
		t.Fatalf("sequential path ran %d tasks under a cancelled context", ran)
	}
}

// BenchmarkRunStealingSkewed drives the scheduler with a pathological cost
// split — one shard's static assignment holds nearly all the simulated work
// — so throughput depends on idle workers stealing the tail. Simulated work
// is a calibrated spin, keeping the benchmark hermetic.
func BenchmarkRunStealingSkewed(b *testing.B) {
	const n = 256
	costs := make([]int64, n)
	for i := range costs {
		if i < 8 {
			costs[i] = 10_000 // giants: LPT pins one per shard
		} else {
			costs[i] = 100 // the stealable tail
		}
	}
	spin := func(units int64) int64 {
		var acc int64
		for j := int64(0); j < units*50; j++ {
			acc += j ^ (acc << 1)
		}
		return acc
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(map[int]string{1: "workers=1", 4: "workers=4", 8: "workers=8"}[workers], func(b *testing.B) {
			var sink atomic.Int64
			for i := 0; i < b.N; i++ {
				runStealing(context.Background(), workers, costs, func(t int) {
					sink.Add(spin(costs[t]))
				})
			}
		})
	}
}

// TestWarmCellCost sanity-checks the shard-balancing cost model's ordering:
// measurement cells dominate prepares, longer sources cost more.
func TestWarmCellCost(t *testing.T) {
	r := New()
	b := r.Benchmarks[0]
	prep := warmCell{bench: b, memLat: 2, task: taskPrepare}
	meas := warmCell{bench: b, memLat: 2, task: taskMeasure}
	if meas.cost() <= prep.cost() {
		t.Errorf("measure cost %d not above prepare cost %d", meas.cost(), prep.cost())
	}
	long, short := r.Benchmarks[0], r.Benchmarks[0]
	for _, cand := range r.Benchmarks {
		if len(cand.Source) > len(long.Source) {
			long = cand
		}
		if len(cand.Source) < len(short.Source) {
			short = cand
		}
	}
	if len(long.Source) > len(short.Source) {
		lc := warmCell{bench: long, memLat: 2, task: taskMeasure}
		sc := warmCell{bench: short, memLat: 2, task: taskMeasure}
		if lc.cost() <= sc.cost() {
			t.Errorf("longer source cost %d not above shorter %d", lc.cost(), sc.cost())
		}
	}
}

// TestReattributeKeepsCause checks that a failure shared through the base
// group is re-homed onto each requesting cell with its class, cause and
// stack intact, and that errors without a cell identity pass through.
func TestReattributeKeepsCause(t *testing.T) {
	cause := errors.New("boom")
	orig := &resilience.CellError{
		Benchmark: "moment", Pipeline: "SPEC", MemLat: 2, Stage: "prepare",
		Class: resilience.ClassPanic, Err: cause, Stack: []byte("stack"),
	}
	err := reattribute(fmt.Errorf("wrapped: %w", orig), "moment", disamb.Perfect, 0, "prepare")
	var ce *resilience.CellError
	if !errors.As(err, &ce) || ce == orig {
		t.Fatalf("err = %v, want a fresh CellError", err)
	}
	if ce.Cell() != "moment/PERFECT/m0" || ce.Class != resilience.ClassPanic || ce.Err != cause || string(ce.Stack) != "stack" {
		t.Fatalf("reattributed = %+v", ce)
	}
	if orig.Cell() != "moment/SPEC/m2" {
		t.Fatalf("original identity changed to %s", orig.Cell())
	}
	if err := reattribute(cause, "moment", disamb.Spec, 6, "prepare"); err != cause {
		t.Fatalf("plain error rewritten: %v", err)
	}
}
