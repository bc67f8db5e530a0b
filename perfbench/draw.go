package main

import (
	"fmt"
	"math/rand"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
)

// evalCell is one (program, pipeline, memory latency) cell of the serve
// mix.
type evalCell struct {
	Bench    string
	Pipeline string
	MemLat   int
}

// evalReq is one drawn /v1/eval request: a cell, whether the program is
// named (bench) or sent as source text, and whether lint is requested.
type evalReq struct {
	evalCell
	Source bool
	Lint   bool
}

// key names the request form its reference result is stored under.
func (q evalReq) key() string {
	form := "bench"
	if q.Source {
		form = "source"
	}
	return fmt.Sprintf("%s|%s|%s|%d|lint=%t", form, q.Bench, q.Pipeline, q.MemLat, q.Lint)
}

// allCells lists every cell of the mix: the 14 suite programs × 4 pipelines
// × memory latencies 2 and 6, in a fixed order.
func allCells() []evalCell {
	var out []evalCell
	for _, b := range bench.Everything() {
		for _, k := range disamb.Kinds {
			for _, lat := range exper.MemLats {
				out = append(out, evalCell{b.Name, k.String(), lat})
			}
		}
	}
	return out
}

// allReqs lists every distinct request form: each cell named and as
// source, with and without lint.
func allReqs() []evalReq {
	var out []evalReq
	for _, c := range allCells() {
		for _, src := range []bool{false, true} {
			for _, lint := range []bool{false, true} {
				out = append(out, evalReq{c, src, lint})
			}
		}
	}
	return out
}

// lintedPipeline names, for the i-th suite program and a memory latency,
// the one pipeline whose cell is linted in every round: pipeline i mod 4 at
// latency 2 and the opposite one, (i+2) mod 4, at latency 6. That lints a
// quarter of the cells, two per program, spread over all four pipelines.
// The set is the same for every seed, so a run's linted requests — the
// slowest quarter of the mix — do the same work whatever the seed.
func lintedPipeline(i, memLat int) int {
	if memLat == exper.MemLats[0] {
		return i % len(disamb.Kinds)
	}
	return (i + 2) % len(disamb.Kinds)
}

// drawer is the client's seeded request stream. It draws rounds: each
// round sends every cell once, in a seeded order, with the fixed linted
// quarter (lintedPipeline), and names the program in one half of the round
// and sends its source in the other, the halves seeded too. Every round is
// the same multiset of requests, so a run of whole rounds does the same
// work under every seed; the seed moves only the order and which requests
// carry source.
type drawer struct {
	rng   *rand.Rand
	round []evalReq
}

func newDrawer(seed int64) *drawer {
	return &drawer{rng: rand.New(rand.NewSource(seed))}
}

// atRoundStart reports whether the next draw starts a new round.
func (d *drawer) atRoundStart() bool { return len(d.round) == 0 }

func (d *drawer) next() evalReq {
	if len(d.round) == 0 {
		prog := map[string]int{}
		for i, b := range bench.Everything() {
			prog[b.Name] = i
		}
		for _, c := range allCells() {
			lint := disamb.Kinds[lintedPipeline(prog[c.Bench], c.MemLat)].String() == c.Pipeline
			d.round = append(d.round, evalReq{evalCell: c, Lint: lint})
		}
		d.rng.Shuffle(len(d.round), func(i, j int) { d.round[i], d.round[j] = d.round[j], d.round[i] })
		for i := range d.round {
			d.round[i].Source = i%2 == 0
		}
		d.rng.Shuffle(len(d.round), func(i, j int) { d.round[i], d.round[j] = d.round[j], d.round[i] })
	}
	q := d.round[0]
	d.round = d.round[1:]
	return q
}
