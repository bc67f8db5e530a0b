package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/ncode"
	"specdis/internal/serve"
	"specdis/internal/sim"
	"specdis/internal/store"
)

// warmArtifacts is how many store reads a warm report makes: 22 SPEC
// prepare summaries and 55 priced cells.
const warmArtifacts = 77

// cpuUtil is the share of the host's cores a window kept busy.
func cpuUtil(w window) float64 {
	return w.cpu.Seconds() / (w.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// spanMetrics converts the recorder's per-name self times into per-op
// milliseconds.
func spanMetrics(rec *recorder, ops int) map[string]float64 {
	rec.mu.Lock()
	self := selfByName(rec.spans)
	rec.mu.Unlock()
	out := map[string]float64{}
	for k, v := range self {
		out[k] = v / float64(ops)
	}
	return out
}

// driverMetrics reports the traced driver's counters and span times per
// traced op.
func driverMetrics(vals, self map[string]float64, n layerCounts, ops int) {
	per := func(x int64) float64 { return float64(x) / float64(ops) }
	vals["compile.ms"] = self["compile"]
	vals["compile.calls"] = per(n.CompileCalls)
	vals["compile.ir_ops"] = per(n.IROps)
	vals["alias.ms"] = self["alias"]
	vals["alias.arcs_removed"] = per(n.AliasRemoved)
	vals["sim.profile_ms"] = self["sim.profile"]
	vals["sim.profile_runs"] = per(n.ProfileRuns)
	vals["sim.profile_ops"] = per(n.ProfileOps)
	if n.ProfileOps > 0 {
		vals["sim.profile_ns_per_op"] = self["sim.profile"] * 1e6 / per(n.ProfileOps)
	}
	vals["spd.ms"] = self["spd"]
	vals["spd.apps"] = per(n.SpDApps)
	vals["spd.ops_added"] = per(n.SpDOpsAdded)
	vals["sched.ms"] = self["sched"]
	vals["sched.trees"] = per(n.SchedTrees)
	vals["trace.capture_ms"] = self["trace.capture"]
	vals["trace.captures"] = per(n.Captures)
	vals["trace.events"] = per(n.Events)
	vals["trace.bytes"] = per(n.Bytes)
	vals["trace.hist_ms"] = self["trace.hist"]
	vals["sim.replay_ms"] = self["sim.replay"]
	vals["sim.replay_cells"] = per(n.ReplayCells)
	vals["sim.ops_priced"] = per(n.OpsPriced)
}

// ---- paper-cold -----------------------------------------------------------

// coldWL: an op is the full paper evaluation on a fresh runner with fresh
// compiled-code caches and no store, at spdbench's defaults.
type coldWL struct {
	ref    []byte
	golden map[string]string

	mu      sync.Mutex
	plain   *exper.Stats // the first untraced op's counters
	rec     *recorder
	n       layerCounts
	compile bcode.Counters // codegen counters summed over traced ops
}

func (w *coldWL) midRound() bool { return false }

// setup loads the references and runs one sequential cold evaluation,
// checked, so the process is past its first-use costs before measuring.
func (w *coldWL) setup() error {
	var err error
	if w.ref, err = paperRef(); err != nil {
		return err
	}
	if w.golden, err = loadGolden(); err != nil {
		return err
	}
	w.rec = newRecorder()
	return paperOp(newPaperRunner(1, nil), w.ref)
}

func (w *coldWL) op() error {
	r := newPaperRunner(0, nil)
	if err := paperOp(r, w.ref); err != nil {
		return err
	}
	// Every op does the same work: an op whose counters differ from the
	// first op's fails. Only the first op's are kept, so the benchmark's own
	// bookkeeping does not grow the heap it measures.
	st := r.Stats()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.plain == nil {
		w.plain = &st
	} else if st.Prepares != w.plain.Prepares || st.Measures != w.plain.Measures ||
		st.TraceCaptures != w.plain.TraceCaptures || st.TraceHits != w.plain.TraceHits || st.SimOps != w.plain.SimOps {
		return fmt.Errorf("op counters %+v differ from the first op's %+v", st, *w.plain)
	}
	return nil
}

func (w *coldWL) tracedOp(id int) (float64, error) {
	t0 := time.Now()
	n, ctrs, err := tracedColdOp(w.rec, id, w.ref, w.golden)
	if err != nil {
		return 0, err
	}
	ms := msSince(t0)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n.add(n)
	w.compile.Compiled.Add(ctrs.Compiled.Load())
	w.compile.Hits.Add(ctrs.Hits.Load())
	w.compile.TierUps.Add(ctrs.TierUps.Load())
	return ms, nil
}

func (w *coldWL) layers(ops int, plain window) (map[string]float64, error) {
	self := spanMetrics(w.rec, ops)
	vals := map[string]float64{}
	driverMetrics(vals, self, w.n, ops)
	per := func(x int64) float64 { return float64(x) / float64(ops) }
	compiled, hits := per(w.compile.Compiled.Load()), per(w.compile.Hits.Load())
	vals["codegen.trees_compiled"] = compiled
	vals["codegen.cache_hits"] = hits
	vals["codegen.hit_ratio"] = ratio(hits, compiled)
	vals["codegen.tier_ups"] = per(w.compile.TierUps.Load())
	vals["exper.other_ms"] = self["op"]
	vals["exper.render_ms"] = self["exper.render"]
	vals["exper.render_bytes"] = float64(len(w.ref))
	vals["exper.cpu_util"] = cpuUtil(plain)
	st := *w.plain
	vals["exper.prepares"] = float64(st.Prepares)
	vals["exper.measures"] = float64(st.Measures)
	vals["exper.trace_hits"] = float64(st.TraceHits)

	// Cross-check: the traced driver did exactly the untraced ops' work
	// per op (which every untraced op checked it shares with the first).
	n, o := w.n, int64(ops)
	for _, c := range []struct {
		what          string
		traced, plain int64
	}{
		{"prepares", n.Prepares, st.Prepares},
		{"measures", n.Measures, st.Measures},
		{"trace captures", n.Captures, st.TraceCaptures},
		{"trace hits", n.TraceReqs - n.Captures, st.TraceHits},
		{"sim ops", n.OpsPriced, st.SimOps},
		{"sim ops (pinned)", n.OpsPriced, pinnedSimOps},
	} {
		if c.traced != c.plain*o {
			return vals, fmt.Errorf("traced %s %d over %d op(s), untraced %d per op", c.what, c.traced, ops, c.plain)
		}
	}
	if want := int64(len(bench.All())) * 3 * o; n.OutputsChecked != want {
		return vals, fmt.Errorf("checked %d program outputs against golden files, want %d", n.OutputsChecked, want)
	}
	return vals, nil
}

func (w *coldWL) close() {}

// ---- paper-warm -----------------------------------------------------------

// warmPar is the warm ops' worker-pool width. A warm op is ~1 ms of store
// reads and rendering, so at spdbench's Par 0 most of its wall time is
// handing cells between two workers; on a shared host that handoff waits
// on whichever core the host is slowing, and the op times measured the
// host, not the program. One worker keeps the op on one core.
const warmPar = 1

// warmWL: an op renders the report from a fresh store handle (empty memory
// front) over the store set-up filled, on a fresh runner.
type warmWL struct {
	dir  string
	ref  []byte
	fill store.Stats // the set-up fill's writes

	mu     sync.Mutex
	rec    *recorder
	traced store.Stats // summed over traced ops
}

func (w *warmWL) midRound() bool { return false }

// setup fills the store with one sequential cold evaluation, checked.
func (w *warmWL) setup() error {
	var err error
	if w.ref, err = paperRef(); err != nil {
		return err
	}
	st, err := store.Open(w.dir)
	if err != nil {
		return err
	}
	w.rec = newRecorder()
	if err := paperOp(newPaperRunner(1, st), w.ref); err != nil {
		return err
	}
	w.fill = st.Stats()
	return nil
}

func (w *warmWL) op() error {
	st, err := store.Open(w.dir)
	if err != nil {
		return err
	}
	r := newPaperRunner(warmPar, st)
	if err := paperOp(r, w.ref); err != nil {
		return err
	}
	if err := checkWarm(r.Stats()); err != nil {
		return err
	}
	if h := st.Stats().Hits; h != warmArtifacts {
		return fmt.Errorf("warm op read %d artifact(s) from the store, want %d", h, warmArtifacts)
	}
	return nil
}

func (w *warmWL) tracedOp(id int) (float64, error) {
	t0 := time.Now()
	es, ss, err := tracedWarmOp(w.rec, id, w.dir, w.ref)
	if err != nil {
		return 0, err
	}
	ms := msSince(t0)
	if err := checkWarm(es); err != nil {
		return 0, err
	}
	if ss.Hits != warmArtifacts || ss.Misses != 0 {
		return 0, fmt.Errorf("traced warm op: %d store hit(s), %d miss(es), want %d and 0", ss.Hits, ss.Misses, warmArtifacts)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.traced.Hits += ss.Hits
	w.traced.Misses += ss.Misses
	w.traced.BytesRead += ss.BytesRead
	return ms, nil
}

func (w *warmWL) layers(ops int, plain window) (map[string]float64, error) {
	self := spanMetrics(w.rec, ops)
	per := func(x int64) float64 { return float64(x) / float64(ops) }
	vals := map[string]float64{
		"store.open_ms":       self["store.open"],
		"store.read_ms":       self["store.read"],
		"store.hits":          per(w.traced.Hits),
		"store.misses":        per(w.traced.Misses),
		"store.hit_ratio":     ratio(float64(w.traced.Hits), float64(w.traced.Misses)),
		"store.bytes_read":    per(w.traced.BytesRead),
		"store.puts":          float64(w.fill.Puts),
		"store.bytes_written": float64(w.fill.BytesWritten),
		"exper.other_ms":      self["op"] + self["exper.assemble"],
		"exper.render_ms":     self["exper.render"],
		"exper.render_bytes":  float64(len(w.ref)),
		"exper.cpu_util":      cpuUtil(plain),
	}
	// Untraced ops fail unless they computed nothing and read every
	// artifact from the store, so their exper and codegen counters are 0.
	return vals, nil
}

func (w *warmWL) close() {}

// ---- serve-eval -----------------------------------------------------------

// serveWL: an in-process spdd with the daemon's default configuration,
// driven by a closed loop of one client.
type serveWL struct {
	seed   int64
	d      *daemon
	refs   map[string]json.RawMessage
	golden map[string]string
	draw   *drawer

	mu       sync.Mutex
	rec      *recorder
	n        layerCounts
	bc       *bcode.Cache // the traced driver's own warm caches
	nc       *ncode.Cache
	requests int
	waitMS   float64
	evalMS   float64
	lints    int
	findings int
	m0       *serve.Metrics // /metrics when the traced phase began
}

// midRound keeps a measurement going to the end of the drawer's round, so
// every run measures whole rounds: the same requests under every seed.
func (w *serveWL) midRound() bool { return !w.draw.atRoundStart() }

// setupReqs is the set-up traffic: every cell of the mix once, named and
// sent as source in turn. The compiled-code caches are keyed by tree
// content, so this puts every tree the mix can execute in them; lint's
// translation validation compiles privately and adds nothing to warm.
func setupReqs() []evalReq {
	var out []evalReq
	for i, c := range allCells() {
		out = append(out, evalReq{evalCell: c, Source: i%2 == 1})
	}
	return out
}

// setup boots the daemon (spdd's defaults: storeless, max-inflight 4,
// shared caches) and sends the set-up traffic sequentially, each reply
// checked.
func (w *serveWL) setup() error {
	var err error
	if w.refs, err = serveRefs(); err != nil {
		return err
	}
	if w.golden, err = loadGolden(); err != nil {
		return err
	}
	if w.d, err = startDaemon(serve.Config{}); err != nil {
		return err
	}
	for _, q := range setupReqs() {
		if _, err := w.d.checkedEval(q, w.refs); err != nil {
			return err
		}
	}
	w.draw = newDrawer(w.seed)
	w.rec = newRecorder()
	var ctrs bcode.Counters
	w.bc, w.nc = bcode.NewCache(&ctrs), ncode.NewCache(&ctrs)
	return nil
}

func (w *serveWL) op() error {
	_, err := w.d.checkedEval(w.draw.next(), w.refs)
	return err
}

func parseKind(s string) disamb.Kind {
	for _, k := range disamb.Kinds {
		if k.String() == s {
			return k
		}
	}
	panic("unknown pipeline " + s)
}

// tracedOp sends the request, then attributes it: it drives the same cell
// through the layers directly (the work the daemon's runner does for it)
// and, for a linted request, times disamb.Lint on the program. The driven
// cell's prices must equal the reply's.
func (w *serveWL) tracedOp(id int) (float64, error) {
	w.mu.Lock()
	if w.m0 == nil {
		m, err := w.d.metrics()
		if err != nil {
			w.mu.Unlock()
			return 0, err
		}
		w.m0 = m
	}
	w.mu.Unlock()
	q := w.draw.next()
	root := w.rec.begin("op", -1, id)
	defer w.rec.end(root)
	var rep *evalReply
	if err := w.rec.do("serve.request", root, id, func() error {
		var err error
		rep, err = w.d.checkedEval(q, w.refs)
		return err
	}); err != nil {
		return 0, err
	}
	b := bench.ByName(q.Bench)
	kind := parseKind(q.Pipeline)
	lats, slot := []int{q.MemLat}, 0
	if !kind.LatencySensitive() {
		lats = exper.MemLats
		for i, l := range lats {
			if l == q.MemLat {
				slot = i
			}
		}
	}
	d := newBenchDriver(b, w.rec, root, id, w.bc, w.nc, w.golden[b.Name])
	ms, err := d.measure(kind, lats)
	if err != nil {
		return 0, err
	}
	var got serve.EvalResult
	if err := json.Unmarshal(rep.Result, &got); err != nil {
		return 0, err
	}
	m := ms[slot]
	if got.CyclesInf != m.Inf || got.Ops != m.Ops || fmt.Sprint(got.CyclesByWidth) != fmt.Sprint(m.ByWidth[:]) {
		return 0, fmt.Errorf("%s: traced driver priced the cell differently from the daemon", q.key())
	}
	findings := 0
	if q.Lint {
		if err := w.rec.do("verify.lint", root, id, func() error {
			rep, err := disamb.Lint(b.Source, disamb.LintOptions{
				Exec: sim.ExecNative, MaxOps: serve.DefaultFuelCap, BCode: w.bc, NCode: w.nc,
			})
			if err != nil {
				return err
			}
			findings = len(rep.Findings)
			return nil
		}); err != nil {
			return 0, err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n.add(d.n)
	w.requests++
	w.waitMS += rep.LatencyMS - rep.Stats.ElapsedMS
	w.evalMS += rep.Stats.ElapsedMS
	if q.Lint {
		w.lints++
		w.findings += findings
	}
	return rep.LatencyMS, nil
}

func (w *serveWL) layers(ops int, plain window) (map[string]float64, error) {
	perOp := spanMetrics(w.rec, ops)
	vals := map[string]float64{}
	driverMetrics(vals, perOp, w.n, ops)
	m1, err := w.d.metrics()
	if err != nil {
		return vals, err
	}
	dc := float64(m1.Cache.Compiled - w.m0.Cache.Compiled)
	dh := float64(m1.Cache.Hits - w.m0.Cache.Hits)
	vals["serve.wait_ms"] = w.waitMS / float64(w.requests)
	vals["serve.eval_ms"] = w.evalMS / float64(w.requests)
	vals["serve.dedup_hits"] = float64(m1.Server.DedupHits)
	vals["serve.admission_rejections"] = float64(m1.Server.AdmissionRejections)
	vals["serve.cache_hit_ratio"] = ratio(dh, dc)
	vals["codegen.trees_compiled"] = dc / float64(ops)
	vals["codegen.cache_hits"] = dh / float64(ops)
	vals["codegen.hit_ratio"] = ratio(dh, dc)
	vals["codegen.tier_ups"] = float64(m1.Degradation.TierUps-w.m0.Degradation.TierUps) / float64(ops)
	if w.lints > 0 {
		vals["verify.lint_ms"] = perOp["verify.lint"] * float64(ops) / float64(w.lints)
	}
	vals["verify.findings"] = float64(w.findings)
	vals["exper.cpu_util"] = cpuUtil(plain)
	if m1.Server.DedupHits != 0 || m1.Server.AdmissionRejections != 0 || m1.Server.EvalErrors != 0 {
		return vals, fmt.Errorf("/metrics: %d dedup hit(s), %d admission rejection(s), %d eval error(s); want all 0",
			m1.Server.DedupHits, m1.Server.AdmissionRejections, m1.Server.EvalErrors)
	}
	return vals, nil
}

func (w *serveWL) close() {
	if w.d != nil {
		w.d.stop()
	}
}
