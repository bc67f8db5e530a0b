// Command perfbench is the repository's benchmark: it measures the paper's
// compile → disambiguate → schedule → price pipeline end to end on three
// workloads, checks every op against committed reference outputs, and — in
// a separate traced run — attributes the work to the layers that did it.
//
//	perfbench --workload paper-cold|paper-warm|serve-eval --seed N --seconds S --trace 0|1
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones. README.md describes the workloads, the
// metrics and how the references were made; run.sh builds and runs it from
// the root of a checkout.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart anchors set-up timing: a set-up sample runs from process
// start to the moment the workload is ready to measure.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"op_cpu_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_mem_mb", "MB"},
	{"ok_frac", "ratio"},
}

// perLayer lists the metrics of a traced run. Every workload reports every
// metric; a layer the workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"compile.ms", "ms"}, {"compile.calls", "count"}, {"compile.ir_ops", "count"},
	{"alias.ms", "ms"}, {"alias.arcs_removed", "count"},
	{"sim.profile_ms", "ms"}, {"sim.profile_runs", "count"}, {"sim.profile_ops", "count"}, {"sim.profile_ns_per_op", "ns"},
	{"spd.ms", "ms"}, {"spd.apps", "count"}, {"spd.ops_added", "count"},
	{"sched.ms", "ms"}, {"sched.trees", "count"},
	{"trace.capture_ms", "ms"}, {"trace.captures", "count"}, {"trace.events", "count"}, {"trace.bytes", "B"}, {"trace.hist_ms", "ms"},
	{"sim.replay_ms", "ms"}, {"sim.replay_cells", "count"}, {"sim.ops_priced", "count"},
	{"codegen.trees_compiled", "count"}, {"codegen.cache_hits", "count"}, {"codegen.hit_ratio", "ratio"}, {"codegen.tier_ups", "count"},
	{"exper.prepares", "count"}, {"exper.measures", "count"}, {"exper.trace_hits", "count"}, {"exper.cpu_util", "ratio"},
	{"exper.other_ms", "ms"}, {"exper.render_ms", "ms"}, {"exper.render_bytes", "B"},
	{"store.open_ms", "ms"}, {"store.read_ms", "ms"}, {"store.hits", "count"}, {"store.misses", "count"}, {"store.hit_ratio", "ratio"},
	{"store.bytes_read", "B"}, {"store.puts", "count"}, {"store.bytes_written", "B"},
	{"serve.wait_ms", "ms"}, {"serve.eval_ms", "ms"}, {"serve.dedup_hits", "count"}, {"serve.admission_rejections", "count"}, {"serve.cache_hit_ratio", "ratio"},
	{"verify.lint_ms", "ms"}, {"verify.findings", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// workload is one benchmark workload, driven by one closed-loop client.
// setup builds the state ops run against; op is one untraced op; tracedOp
// is the same op with spans and counters, returning the op's own time in
// milliseconds (for serve-eval the request's latency, without the
// attribution work that follows it); midRound reports that the ops since
// the last round boundary are an incomplete unit of work, which a
// measurement finishes before it stops; layers reports the per-layer
// metrics of the traced ops (and cross-checks them against the untraced
// ones); close releases everything setup made.
type workload interface {
	setup() error
	op() error
	tracedOp(id int) (float64, error)
	midRound() bool
	layers(traced int, untraced window) (map[string]float64, error)
	close()
}

// workloads lists each workload with its fresh-process set-ups per run and
// the GC setting of the CLI it stands for (spdbench sets GOGC 400; spdd
// keeps Go's default).
var workloads = map[string]struct {
	setups, gogc int
	make         func(seed int64, dir string) workload
}{
	"paper-cold": {5, 400, func(int64, string) workload { return &coldWL{} }},
	"paper-warm": {5, 400, func(_ int64, dir string) workload { return &warmWL{dir: filepath.Join(dir, "store")} }},
	"serve-eval": {3, 100, func(seed int64, _ string) workload { return &serveWL{seed: seed} }},
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-cold, paper-warm or serve-eval")
	seed := fs.Int64("seed", 1, "workload seed: the serve mix's request draws derive from it")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	setupOnly := fs.Bool("setup-only", false, "set up once, print the set-up time and exit (one fresh-process set-up sample)")
	genServe := fs.String("gen-serve-refs", "", "write the serve-eval reference results to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *genServe != "" {
		if err := genServeRefs(*genServe); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	def, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want paper-cold, paper-warm or serve-eval)\n", *name)
		return 2
	}
	debug.SetGCPercent(def.gogc)

	// Scratch state (the warm workload's store) lives under the checkout's
	// build directory and is removed on exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	wl := def.make(*seed, dir)
	if err := wl.setup(); err != nil {
		wl.close()
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
		return 1
	}
	setupS := time.Since(processStart).Seconds()
	defer wl.close()
	if *setupOnly {
		fmt.Fprintf(stdout, "{\"setup_s\": %s}\n", strconv.FormatFloat(setupS, 'g', -1, 64))
		return 0
	}

	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traceFlag == 1 {
		res, err = tracedRun(stdout, *name, wl, dur)
	} else {
		samples := []float64{setupS}
		for i := 1; i < def.setups; i++ {
			s, err := childSetup(*name, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s fresh-process set-up: %v\n", *name, err)
				return 1
			}
			samples = append(samples, s)
		}
		res = timedRun(stdout, *name, *seed, wl, dur, samples)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// childSetup runs one set-up in a fresh process of this binary and returns
// its set-up time. Set-ups run one after another, never alongside
// measurement.
func childSetup(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var v struct {
		SetupS float64 `json:"setup_s"`
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return v.SetupS, nil
}

// window is one closed-loop measurement: one client runs ops back to back
// until the deadline, finishing the op in hand and, for a workload that
// works in rounds, the round in hand.
type window struct {
	samples           []float64 // op wall times, ms
	attempted, failed int
	firstErr          error
	wall, cpu         time.Duration
	alloc             uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// msSince returns the milliseconds elapsed since t0.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// timed adapts an untraced op to measure: the op's time is its wall time.
func timed(op func() error) func() (float64, error) {
	return func() (float64, error) {
		t0 := time.Now()
		err := op()
		return msSince(t0), err
	}
}

func measure(dur time.Duration, wl workload, op func() (float64, error)) window {
	var w window
	alloc0, cpu0 := totalAlloc(), cpuTime()
	start := time.Now()
	for time.Since(start) < dur || wl.midRound() {
		ms, err := op()
		w.attempted++
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		} else {
			w.samples = append(w.samples, ms)
		}
	}
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	w.alloc = totalAlloc() - alloc0
	return w
}

// rssMB reads the process's resident set (VmRSS) in MB.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// peakSampler tracks the largest resident set seen while measuring,
// sampling every 10 ms.
type peakSampler struct {
	stop chan struct{}
	done chan float64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		peak := rssMB()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, rssMB())
			case <-p.stop:
				p.done <- max(peak, rssMB())
				return
			}
		}
	}()
	return p
}

// end stops the sampler and returns the peak in MB.
func (p *peakSampler) end() float64 {
	close(p.stop)
	return <-p.done
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(out io.Writer, name string, seed int64, wl workload, dur time.Duration, setups []float64) *result {
	// Peak memory is the ops' own: set-up's garbage is collected and
	// returned to the OS before measuring starts.
	debug.FreeOSMemory()
	peak := startPeakSampler()
	w := measure(dur, wl, timed(wl.op))
	peakMB := peak.end()
	sorted := sortedCopy(w.samples)
	ops := float64(w.attempted)
	p50, p90 := pct(sorted, 0.5), pct(sorted, 0.9)
	vals := map[string]float64{
		"setup_s":         median(setups),
		"op_p50_ms":       p50.Value,
		"op_p90_ms":       p90.Value,
		"ops_per_s":       float64(len(w.samples)) / w.wall.Seconds(),
		"op_cpu_ms":       float64(w.cpu) / float64(time.Millisecond) / ops,
		"alloc_mb_per_op": float64(w.alloc) / (1 << 20) / ops,
		"peak_mem_mb":     peakMB,
		"ok_frac":         float64(w.attempted-w.failed) / ops,
	}
	fmt.Fprintf(out, "%s seed=%d: %d op(s) in %.2f s, %d failed; set-up samples %v s\n",
		name, seed, w.attempted, w.wall.Seconds(), w.failed, setups)
	for _, p := range []pctLine{p50, p90} {
		note := ""
		if p.Withheld {
			note = fmt.Sprintf("; withheld: fewer than %d samples beyond it, not evidence", minBeyond)
		}
		fmt.Fprintf(out, "  p%02.0f %10.3f ms  (%d of %d samples beyond%s)\n", 100*p.Q, p.Value, p.Beyond, len(sorted), note)
	}
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failed op: %v\n", name, w.firstErr)
	}
	res := &result{Correct: w.failed == 0 && len(w.samples) > 0, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
		fmt.Fprintf(out, "  %-16s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	return res
}

// tracedRun measures half the time untraced, then half traced, and reports
// the per-layer metrics plus the tracing overhead: the traced ops' median
// wall time over the untraced ops'. A cross-check failure makes the result
// incorrect.
func tracedRun(out io.Writer, name string, wl workload, dur time.Duration) (*result, error) {
	plain := measure(dur/2, wl, timed(wl.op))
	next := 0
	traced := measure(dur/2, wl, func() (float64, error) {
		next++
		return wl.tracedOp(next - 1)
	})
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	correct := failed == 0 && len(traced.samples) > 0 && len(plain.samples) > 0
	for _, err := range []error{plain.firstErr, traced.firstErr} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: failed op: %v\n", name, err)
		}
	}
	vals := map[string]float64{}
	if correct {
		var err error
		vals, err = wl.layers(len(traced.samples), plain)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: cross-check: %v\n", name, err)
			correct = false
			if vals == nil {
				vals = map[string]float64{}
			}
		}
		vals["bench.trace_overhead_pct"] = 100 * (median(traced.samples)/median(plain.samples) - 1)
	}
	fmt.Fprintf(out, "%s traced run: %d untraced + %d traced op(s), %d failed\n", name, plain.attempted, traced.attempted, failed)
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	if attempted == 0 {
		return nil, errors.New("no op completed")
	}
	return res, nil
}

// ratio returns a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
