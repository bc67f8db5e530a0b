package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Parent is the index of the enclosing span in the
// recorder (-1 for an op's root); Op ties the spans of one op together.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int
	Op         int
}

// recorder keeps spans in memory; nothing is written until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// do runs fn inside a span named name and returns fn's error.
func (r *recorder) do(name string, parent, op int, fn func() error) error {
	defer r.end(r.begin(name, parent, op))
	return fn()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may nest arbitrarily and
// overlap each other (parallel workers under one parent); overlapping
// coverage is counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, kids[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the child intervals, clipped
// to [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / float64(time.Millisecond)
	}
	return out
}
