package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"specdis/internal/serve"
)

func TestPercentileAndBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0.001, 1, 99},
	} {
		p := pct(xs, c.q)
		if p.Value != c.want || p.Beyond != c.beyond {
			t.Errorf("q=%v: got %v with %d beyond, want %v with %d", c.q, p.Value, p.Beyond, c.want, c.beyond)
		}
		if p.Withheld != (c.beyond < minBeyond) {
			t.Errorf("q=%v: withheld=%v with %d beyond", c.q, p.Withheld, p.Beyond)
		}
	}
	// Ties: samples equal to the percentile are not beyond it.
	tied := []float64{1, 2, 2, 2, 3}
	if p := pct(tied, 0.5); p.Value != 2 || p.Beyond != 1 {
		t.Errorf("tied median: got %v with %d beyond, want 2 with 1", p.Value, p.Beyond)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Start: ms(0), End: ms(100), Parent: -1},
		// Two workers' children overlap on [20, 30]: covered once.
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "b", Start: ms(20), End: ms(50), Parent: 0},
		// Nested under b: a grandchild counts against b, not op.
		{Name: "c", Start: ms(25), End: ms(35), Parent: 2},
		// Disjoint child of op.
		{Name: "d", Start: ms(80), End: ms(90), Parent: 0},
		// A child sticking out of its parent is clipped to the parent.
		{Name: "e", Start: ms(45), End: ms(60), Parent: 2},
	}
	self := selfTimes(spans)
	want := []time.Duration{
		ms(100 - 40 - 10), // op: children cover [10,50] and [80,90]
		ms(20),            // a: no children
		ms(30 - 10 - 5),   // b: c covers 10, e covers [45,50] after clipping
		ms(10),
		ms(10),
		ms(15),
	}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	by := selfByName(spans)
	if by["op"] != 50 {
		t.Errorf("selfByName op = %v ms, want 50", by["op"])
	}

	rec := newRecorder()
	root := rec.begin("op", -1, 7)
	_ = rec.do("child", root, 7, func() error { time.Sleep(2 * time.Millisecond); return nil })
	rec.end(root)
	if got := rec.spans[1]; got.Parent != root || got.Op != 7 || got.End <= got.Start {
		t.Errorf("recorded child span %+v", got)
	}
}

func TestDrawerRoundsSameUnderEverySeed(t *testing.T) {
	cells := allCells()
	if len(cells) != 14*4*2 {
		t.Fatalf("%d cells, want 112", len(cells))
	}
	// round draws one whole round, checking the drawer's round boundary.
	round := func(d *drawer) []evalReq {
		if !d.atRoundStart() {
			t.Fatal("drawer is not at a round boundary")
		}
		out := []evalReq{d.next()}
		for !d.atRoundStart() {
			out = append(out, d.next())
		}
		return out
	}
	// multiset counts a round's requests by cell and lint flag, and its
	// source requests.
	multiset := func(r []evalReq) (map[evalCell]bool, int) {
		lint := map[evalCell]bool{}
		src := 0
		for _, q := range r {
			if _, dup := lint[q.evalCell]; dup {
				t.Fatalf("cell %v drawn twice in one round", q.evalCell)
			}
			lint[q.evalCell] = q.Lint
			if q.Source {
				src++
			}
		}
		return lint, src
	}

	a, b, other := newDrawer(42), newDrawer(42), newDrawer(43)
	var first map[evalCell]bool
	differs := false
	for i := 0; i < 3; i++ {
		ra, rb, ro := round(a), round(b), round(other)
		if fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("round %d differs under one seed", i)
		}
		differs = differs || fmt.Sprint(ra) != fmt.Sprint(ro)
		for _, r := range [][]evalReq{ra, ro} {
			lint, src := multiset(r)
			if len(lint) != len(cells) {
				t.Fatalf("a round draws %d cells, want all %d", len(lint), len(cells))
			}
			if src != len(cells)/2 {
				t.Errorf("a round sends source in %d requests, want %d", src, len(cells)/2)
			}
			if first == nil {
				first = lint
			}
			if fmt.Sprint(lint) != fmt.Sprint(first) {
				t.Error("the linted quarter differs between rounds or seeds")
			}
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 drew identical streams")
	}
	lints, perProg := 0, map[string]int{}
	for c, l := range first {
		if l {
			lints++
			perProg[c.Bench]++
		}
	}
	if lints != len(cells)/4 {
		t.Errorf("%d linted cells per round, want a quarter, %d", lints, len(cells)/4)
	}
	for p, n := range perProg {
		if n != 2 {
			t.Errorf("program %s has %d linted cells per round, want 2", p, n)
		}
	}
}

func TestOneByteMismatchFailsOp(t *testing.T) {
	ref, err := paperRef()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), ref...)
	bad[len(bad)/2] ^= 1
	if err := paperOp(newPaperRunner(0, nil), ref); err != nil {
		t.Fatalf("paper op against its reference: %v", err)
	}
	if err := paperOp(newPaperRunner(0, nil), bad); err == nil {
		t.Fatal("paper op passed against a reference with one byte flipped")
	}

	refs, err := serveRefs()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(allReqs()) {
		t.Fatalf("%d serve references, want one per request form (%d)", len(refs), len(allReqs()))
	}
	d, err := startDaemon(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	q := evalReq{evalCell: evalCell{"intmm", "NAIVE", 2}, Source: true}
	if _, err := d.checkedEval(q, refs); err != nil {
		t.Fatalf("serve op against its reference: %v", err)
	}
	tampered := map[string]json.RawMessage{}
	for k, v := range refs {
		tampered[k] = v
	}
	raw := append(json.RawMessage(nil), refs[q.key()]...)
	raw[len(raw)-3]++ // a digit or letter near the end of the result
	tampered[q.key()] = raw
	if _, err := d.checkedEval(q, tampered); err == nil {
		t.Fatal("serve op passed against a reference with one byte changed")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the program prints in
// step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}
