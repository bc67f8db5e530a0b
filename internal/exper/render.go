package exper

import (
	"fmt"
	"io"
	"strings"

	"specdis/internal/bench"
	"specdis/internal/machine"
)

// Each report has three layers: a header printer and a row printer (the
// formatting, shared verbatim), a batch renderer over precomputed rows
// (RenderX — kept for tests and programmatic use), and a streaming renderer
// on the Runner (StreamX — what spdbench uses) that prints each row the
// moment its cells resolve, while later cells are still computing on the
// work-stealing pool. Both renderers drive the same printers over rows in
// the same order, so their output is byte-identical by construction.

// Section is one block of the paper report.
type Section struct {
	// Name selects the section: spdbench's -only value and wall_ms key, and
	// spdd's only query parameter.
	Name string
	// Computed marks sections that evaluate benchmark cells; Tables 6-1 and
	// 6-2 only describe the machine and the suite.
	Computed bool
	// Render streams the section to w, without the blank line that follows
	// every section in the report.
	Render func(r *Runner, w io.Writer) error
}

// Sections lists the paper report's sections in print order.
var Sections = []Section{
	{"table61", false, func(_ *Runner, w io.Writer) error { RenderTable61(w); return nil }},
	{"table62", false, func(r *Runner, w io.Writer) error { RenderTable62(w, r.Benchmarks); return nil }},
	{"table63", true, (*Runner).StreamTable63},
	{"fig62", true, (*Runner).StreamFigure62},
	{"fig63", true, (*Runner).StreamFigure63},
	{"fig64", true, (*Runner).StreamFigure64},
}

// RenderTable62 prints the benchmark listing (Table 6-2).
func RenderTable62(w io.Writer, benches []*bench.Benchmark) {
	fmt.Fprintf(w, "Table 6-2: Benchmark Descriptions\n")
	fmt.Fprintf(w, "%-10s %-9s %6s  %s\n", "Benchmark", "Suite", "Lines", "Description")
	for _, b := range benches {
		fmt.Fprintf(w, "%-10s %-9s %6d  %s\n", b.Name, b.Suite, b.Lines(), b.Desc)
	}
}

// RenderTable61 prints the latency table (Table 6-1).
func RenderTable61(w io.Writer) {
	fmt.Fprintf(w, "Table 6-1: Operation latencies (memory latency 2 or 6)\n")
	fmt.Fprint(w, machine.Describe(2))
}

// ---- Table 6-3 ----------------------------------------------------------

func printTable63Header(w io.Writer) {
	fmt.Fprintf(w, "Table 6-3: Frequency of SpD application by dependence type\n")
	fmt.Fprintf(w, "%-10s | %-17s | %-17s\n", "", "2 Cycle Memory", "6 Cycle Memory")
	fmt.Fprintf(w, "%-10s | %5s %5s %5s | %5s %5s %5s\n",
		"Program", "RAW", "WAR", "WAW", "RAW", "WAR", "WAW")
	fmt.Fprintln(w, strings.Repeat("-", 50))
}

func printTable63Row(w io.Writer, r Table63Row) {
	if r.Fail != "" {
		fmt.Fprintf(w, "%-10s | FAIL(%s)\n", r.Program, r.Fail)
		return
	}
	fmt.Fprintf(w, "%-10s | %5d %5d %5d | %5d %5d %5d\n",
		r.Program, r.RAW2, r.WAR2, r.WAW2, r.RAW6, r.WAR6, r.WAW6)
}

// RenderTable63 prints Table 6-3 from precomputed rows.
func RenderTable63(w io.Writer, rows []Table63Row) {
	printTable63Header(w)
	for _, r := range rows {
		printTable63Row(w, r)
	}
}

// StreamTable63 computes and prints Table 6-3, emitting each row as soon as
// its cells resolve. Output is byte-identical to RenderTable63 over
// Table63().
func (r *Runner) StreamTable63(w io.Writer) error {
	printTable63Header(w)
	return r.streamTable63(func(row Table63Row) { printTable63Row(w, row) })
}

// ---- Figure 6-2 ----------------------------------------------------------

func printFigure62Header(w io.Writer) {
	fmt.Fprintf(w, "Figure 6-2: Speedup over the NAIVE disambiguator, %d-FU machine\n", Fig62Width)
	fmt.Fprintf(w, "(speedup = cycles(NAIVE)/cycles(X) - 1)\n")
}

func printFigure62Section(w io.Writer, memLat int) {
	fmt.Fprintf(w, "\n%d Cycle Memory Latency\n", memLat)
	fmt.Fprintf(w, "%-10s %8s %8s %8s\n", "Program", "STATIC", "SPEC", "PERFECT")
}

func printFigure62Row(w io.Writer, r Fig62Row) {
	if r.Fail != "" {
		fmt.Fprintf(w, "%-10s FAIL(%s)\n", r.Program, r.Fail)
		return
	}
	fmt.Fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%%\n",
		r.Program, 100*r.Static, 100*r.Spec, 100*r.Perfect)
}

// RenderFigure62 prints Figure 6-2 from precomputed rows.
func RenderFigure62(w io.Writer, rows []Fig62Row) {
	printFigure62Header(w)
	for _, memLat := range MemLats {
		printFigure62Section(w, memLat)
		for _, r := range rows {
			if r.MemLat != memLat {
				continue
			}
			printFigure62Row(w, r)
		}
	}
}

// StreamFigure62 computes and prints Figure 6-2 row by row. Output is
// byte-identical to RenderFigure62 over Figure62().
func (r *Runner) StreamFigure62(w io.Writer) error {
	printFigure62Header(w)
	memLat := -1
	return r.streamFigure62(func(row Fig62Row) {
		if row.MemLat != memLat {
			memLat = row.MemLat
			printFigure62Section(w, memLat)
		}
		printFigure62Row(w, row)
	})
}

// ---- Figure 6-3 ----------------------------------------------------------

func printFigure63Header(w io.Writer) {
	fmt.Fprintf(w, "Figure 6-3: Speedup of SPEC over STATIC (NRC benchmarks)\n")
}

func printFigure63Section(w io.Writer, memLat int) {
	fmt.Fprintf(w, "\n%d Cycle Memory Latency (speedup %% per machine width)\n", memLat)
	fmt.Fprintf(w, "%-10s", "Program")
	for wd := 1; wd <= MaxWidth; wd++ {
		fmt.Fprintf(w, " %6dFU", wd)
	}
	fmt.Fprintln(w)
}

func printFigure63Row(w io.Writer, r Fig63Row) {
	if r.Fail != "" {
		fmt.Fprintf(w, "%-10s FAIL(%s)\n", r.Program, r.Fail)
		return
	}
	fmt.Fprintf(w, "%-10s", r.Program)
	for _, s := range r.Speedup {
		fmt.Fprintf(w, " %7.1f%%", 100*s)
	}
	fmt.Fprintln(w)
}

// RenderFigure63 prints Figure 6-3 from precomputed rows.
func RenderFigure63(w io.Writer, rows []Fig63Row) {
	printFigure63Header(w)
	for _, memLat := range MemLats {
		printFigure63Section(w, memLat)
		for _, r := range rows {
			if r.MemLat != memLat {
				continue
			}
			printFigure63Row(w, r)
		}
	}
}

// StreamFigure63 computes and prints Figure 6-3 row by row. Output is
// byte-identical to RenderFigure63 over Figure63().
func (r *Runner) StreamFigure63(w io.Writer) error {
	printFigure63Header(w)
	memLat := -1
	return r.streamFigure63(func(row Fig63Row) {
		if row.MemLat != memLat {
			memLat = row.MemLat
			printFigure63Section(w, memLat)
		}
		printFigure63Row(w, row)
	})
}

// ---- Figure 6-4 ----------------------------------------------------------

func printFigure64Header(w io.Writer) {
	fmt.Fprintf(w, "Figure 6-4: Code size increase due to SpD (2-cycle memory)\n")
	fmt.Fprintf(w, "(operations, not VLIW instructions)\n")
	fmt.Fprintf(w, "%-10s %8s %8s %9s\n", "Program", "before", "after", "increase")
}

func printFigure64Row(w io.Writer, r Fig64Row) {
	if r.Fail != "" {
		fmt.Fprintf(w, "%-10s FAIL(%s)\n", r.Program, r.Fail)
		return
	}
	fmt.Fprintf(w, "%-10s %8d %8d %8.1f%%\n",
		r.Program, r.BeforeOps, r.AfterOps, r.IncreasePct)
}

// RenderFigure64 prints Figure 6-4 from precomputed rows.
func RenderFigure64(w io.Writer, rows []Fig64Row) {
	printFigure64Header(w)
	for _, r := range rows {
		printFigure64Row(w, r)
	}
}

// StreamFigure64 computes and prints Figure 6-4 row by row. Output is
// byte-identical to RenderFigure64 over Figure64().
func (r *Runner) StreamFigure64(w io.Writer) error {
	printFigure64Header(w)
	return r.streamFigure64(func(row Fig64Row) { printFigure64Row(w, row) })
}
