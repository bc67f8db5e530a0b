package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/ncode"
	"specdis/internal/store"
)

// defaultFuel is spdbench's default per-interpretation budget (ten times the
// pinned sim_ops total). It is part of every store key, so the warm
// workload's store is keyed exactly as a user's `spdbench -store` run.
const defaultFuel = 465_534_040

// pinnedSimOps is the dynamic-operation total the full evaluation prices,
// pinned by CI against BENCH_spdbench.json.
const pinnedSimOps = 46_553_404

// newPaperRunner returns a runner at spdbench's defaults: native tier,
// replay, tier-up 32, Par 0 (GOMAXPROCS) unless par says otherwise.
func newPaperRunner(par int, st *store.Store) *exper.Runner {
	r := exper.New()
	r.Par = par
	r.Fuel = defaultFuel
	r.Store = st
	return r
}

// renderReport writes spdbench's default report (Tables 6-1 to 6-3,
// Figures 6-2 to 6-4), streaming each computed report as spdbench does.
func renderReport(w io.Writer, r *exper.Runner) error {
	exper.RenderTable61(w)
	fmt.Fprintln(w)
	exper.RenderTable62(w, r.Benchmarks)
	fmt.Fprintln(w)
	for _, stream := range []func(io.Writer) error{r.StreamTable63, r.StreamFigure62, r.StreamFigure63, r.StreamFigure64} {
		if err := stream(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if fails := r.Failures(); len(fails) > 0 {
		return fmt.Errorf("%d cell(s) failed, first %s: %v", len(fails), fails[0].Cell(), fails[0].Err)
	}
	return nil
}

// paperOp renders the report on r and checks it byte for byte against the
// reference.
func paperOp(r *exper.Runner, ref []byte) error {
	var buf bytes.Buffer
	buf.Grow(len(ref))
	if err := renderReport(&buf, r); err != nil {
		return err
	}
	return sameBytes("paper report", buf.Bytes(), ref)
}

// sameBytes fails unless got equals want exactly, naming the first
// differing byte.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s differs from its reference at byte %d (got %d bytes, want %d)", what, i, len(got), len(want))
}

// benchRows is one program's cells as the report needs them.
type benchRows struct {
	b       *bench.Benchmark
	meas    map[prepKey]*exper.Measurement // lat is 2 or 6 for every kind
	spd     map[int]*disamb.Prepared       // SPEC preparation per latency
	driverN layerCounts
}

// tracedColdOp computes the whole evaluation through the traced driver on
// two workers (each program's cells on one worker, programs handed out
// longest first), renders it with exper's renderers and checks the bytes.
// It returns the op's driver counters and codegen counters.
func tracedColdOp(rec *recorder, op int, ref []byte, golden map[string]string) (layerCounts, *bcode.Counters, error) {
	var ctrs bcode.Counters
	bc, nc := bcode.NewCache(&ctrs), ncode.NewCache(&ctrs)
	root := rec.begin("op", -1, op)
	defer rec.end(root)

	// Longest programs first, so neither worker is left with a big one at
	// the end.
	benches := bench.All()
	order := append([]*bench.Benchmark(nil), benches...)
	sort.SliceStable(order, func(a, b int) bool { return len(order[a].Source) > len(order[b].Source) })
	var mu sync.Mutex
	var n layerCounts
	var rows []*benchRows
	if err := eachBench(order, func(b *bench.Benchmark) error {
		br, err := coldBench(b, rec, root, op, bc, nc, golden[b.Name])
		if err != nil {
			return err
		}
		mu.Lock()
		n.add(br.driverN)
		rows = append(rows, br)
		mu.Unlock()
		return nil
	}); err != nil {
		return n, &ctrs, err
	}
	var buf bytes.Buffer
	_ = rec.do("exper.render", root, op, func() error {
		renderRows(&buf, benches, rows)
		return nil
	})
	return n, &ctrs, sameBytes("traced paper report", buf.Bytes(), ref)
}

// coldBench computes every cell of one program: the grid exper evaluates
// (every pipeline at both latencies, the latency-insensitive ones as one
// shared cell).
func coldBench(b *bench.Benchmark, rec *recorder, root, op int, bc *bcode.Cache, nc *ncode.Cache, golden string) (*benchRows, error) {
	d := newBenchDriver(b, rec, root, op, bc, nc, golden)
	br := &benchRows{b: b, meas: map[prepKey]*exper.Measurement{}, spd: map[int]*disamb.Prepared{}}
	for _, kind := range disamb.Kinds {
		if kind.LatencySensitive() {
			for _, lat := range exper.MemLats {
				ms, err := d.measure(kind, []int{lat})
				if err != nil {
					return nil, err
				}
				br.meas[prepKey{kind, lat}] = ms[0]
				br.spd[lat], _ = d.prepared(kind, lat)
			}
			continue
		}
		ms, err := d.measure(kind, exper.MemLats)
		if err != nil {
			return nil, err
		}
		for li, lat := range exper.MemLats {
			br.meas[prepKey{kind, lat}] = ms[li]
		}
	}
	br.driverN = d.n
	return br, nil
}

// speedup is exper's bar height: base/x − 1.
func speedup(base, x int64) float64 {
	if x == 0 {
		return 0
	}
	return float64(base)/float64(x) - 1
}

// renderBatch renders the report from precomputed rows with exper's batch
// renderers, in spdbench's section order.
func renderBatch(w io.Writer, benches []*bench.Benchmark, t63 []exper.Table63Row, f62 []exper.Fig62Row, f63 []exper.Fig63Row, f64 []exper.Fig64Row) {
	exper.RenderTable61(w)
	fmt.Fprintln(w)
	exper.RenderTable62(w, benches)
	fmt.Fprintln(w)
	exper.RenderTable63(w, t63)
	fmt.Fprintln(w)
	exper.RenderFigure62(w, f62)
	fmt.Fprintln(w)
	exper.RenderFigure63(w, f63)
	fmt.Fprintln(w)
	exper.RenderFigure64(w, f64)
	fmt.Fprintln(w)
}

// renderRows builds the report rows from the driver's cells, as exper's
// row builders do, and renders them.
func renderRows(w io.Writer, benches []*bench.Benchmark, rows []*benchRows) {
	by := map[string]*benchRows{}
	for _, r := range rows {
		by[r.b.Name] = r
	}
	var t63 []exper.Table63Row
	total := exper.Table63Row{Program: "TOTAL"}
	for _, b := range benches {
		s2, s6 := by[b.Name].spd[2].SpD, by[b.Name].spd[6].SpD
		row := exper.Table63Row{Program: b.Name,
			RAW2: s2.RAW, WAR2: s2.WAR, WAW2: s2.WAW,
			RAW6: s6.RAW, WAR6: s6.WAR, WAW6: s6.WAW}
		total.RAW2 += row.RAW2
		total.WAR2 += row.WAR2
		total.WAW2 += row.WAW2
		total.RAW6 += row.RAW6
		total.WAR6 += row.WAR6
		total.WAW6 += row.WAW6
		t63 = append(t63, row)
	}
	t63 = append(t63, total)

	var f62 []exper.Fig62Row
	for _, lat := range exper.MemLats {
		for _, b := range benches {
			m := by[b.Name].meas
			base := m[prepKey{disamb.Naive, lat}].ByWidth[exper.Fig62Width-1]
			at := func(k disamb.Kind) float64 {
				return speedup(base, m[prepKey{k, lat}].ByWidth[exper.Fig62Width-1])
			}
			f62 = append(f62, exper.Fig62Row{Program: b.Name, MemLat: lat,
				Static: at(disamb.Static), Spec: at(disamb.Spec), Perfect: at(disamb.Perfect)})
		}
	}

	var f63 []exper.Fig63Row
	for _, lat := range exper.MemLats {
		for _, b := range bench.NRC() {
			m := by[b.Name].meas
			row := exper.Fig63Row{Program: b.Name, MemLat: lat}
			for wd := 0; wd < exper.MaxWidth; wd++ {
				row.Speedup[wd] = speedup(m[prepKey{disamb.Static, lat}].ByWidth[wd], m[prepKey{disamb.Spec, lat}].ByWidth[wd])
			}
			f63 = append(f63, row)
		}
	}

	var f64 []exper.Fig64Row
	for _, b := range benches {
		p := by[b.Name].spd[2]
		row := exper.Fig64Row{Program: b.Name, BeforeOps: p.BaseOps, AfterOps: p.Prog.OpCount()}
		if row.BeforeOps > 0 {
			row.IncreasePct = 100 * float64(row.AfterOps-row.BeforeOps) / float64(row.BeforeOps)
		}
		f64 = append(f64, row)
	}
	renderBatch(w, benches, t63, f62, f63, f64)
}

// warmReads reads one program's cells from the store: its SPEC prepare
// summaries (Table 6-3, Figure 6-4) and its priced cells (Figures 6-2 and
// 6-3) — 7 artifacts, 77 for the suite.
func warmReads(r *exper.Runner, b *bench.Benchmark) error {
	for _, lat := range exper.MemLats {
		if _, err := r.Summary(b, disamb.Spec, lat); err != nil {
			return err
		}
		for _, kind := range disamb.Kinds {
			if _, err := r.Measure(b, kind, lat); err != nil {
				return err
			}
		}
	}
	return nil
}

// eachBench runs fn for every program on GOMAXPROCS workers, the width of
// the Par 0 pool, and returns the first error in suite order.
func eachBench(benches []*bench.Benchmark, fn func(b *bench.Benchmark) error) error {
	errs := make([]error, len(benches))
	next := make(chan int, len(benches))
	for i := range benches {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(benches[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedWarmOp renders the report from a fresh store handle with spans
// around the handle's open, the store reads (exper.Runner.Summary/Measure
// served from the store), the row assembly over the now-cached cells and
// the render.
func tracedWarmOp(rec *recorder, op int, dir string, ref []byte) (exper.Stats, store.Stats, error) {
	root := rec.begin("op", -1, op)
	defer rec.end(root)
	var st *store.Store
	if err := rec.do("store.open", root, op, func() error {
		var err error
		st, err = store.Open(dir)
		return err
	}); err != nil {
		return exper.Stats{}, store.Stats{}, err
	}
	r := newPaperRunner(warmPar, st)
	for _, b := range r.Benchmarks {
		if err := rec.do("store.read", root, op, func() error { return warmReads(r, b) }); err != nil {
			return r.Stats(), st.Stats(), err
		}
	}
	var t63 []exper.Table63Row
	var f62 []exper.Fig62Row
	var f63 []exper.Fig63Row
	var f64 []exper.Fig64Row
	if err := rec.do("exper.assemble", root, op, func() error {
		var err error
		if t63, err = r.Table63(); err != nil {
			return err
		}
		if f62, err = r.Figure62(); err != nil {
			return err
		}
		if f63, err = r.Figure63(); err != nil {
			return err
		}
		f64, err = r.Figure64()
		return err
	}); err != nil {
		return r.Stats(), st.Stats(), err
	}
	var buf bytes.Buffer
	_ = rec.do("exper.render", root, op, func() error {
		renderBatch(&buf, r.Benchmarks, t63, f62, f63, f64)
		return nil
	})
	return r.Stats(), st.Stats(), sameBytes("traced warm report", buf.Bytes(), ref)
}

// checkWarm fails a warm op that computed anything instead of reading it.
func checkWarm(st exper.Stats) error {
	if st.Prepares != 0 || st.Measures != 0 || st.TraceCaptures != 0 {
		return fmt.Errorf("warm op recomputed cells: %d prepare(s), %d measure(s), %d capture(s)", st.Prepares, st.Measures, st.TraceCaptures)
	}
	return nil
}
