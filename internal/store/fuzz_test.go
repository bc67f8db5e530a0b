package store_test

import (
	"bytes"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/store"
)

// decoders runs every artifact codec over one payload. A payload that
// decodes must re-encode to a canonical form that decodes and re-encodes
// to the same bytes.
var decoders = []struct {
	name  string
	check func(payload []byte) (enc, reenc []byte, ok bool)
}{
	{"prep", func(b []byte) ([]byte, []byte, bool) {
		p, err := store.DecodePrep(b)
		if err != nil {
			return nil, nil, false
		}
		enc := store.EncodePrep(p)
		p2, err := store.DecodePrep(enc)
		if err != nil {
			return enc, nil, true
		}
		return enc, store.EncodePrep(p2), true
	}},
	{"meas", func(b []byte) ([]byte, []byte, bool) {
		m, err := store.DecodeMeas(b)
		if err != nil {
			return nil, nil, false
		}
		enc := store.EncodeMeas(m)
		m2, err := store.DecodeMeas(enc)
		if err != nil {
			return enc, nil, true
		}
		return enc, store.EncodeMeas(m2), true
	}},
}

// FuzzStoreDecode feeds arbitrary bytes to every store Decode* codec: each
// must return an artifact or an error, never panic, and any artifact it
// accepts must survive an encode/decode round trip unchanged. Seeded with
// the summaries and measurement cells of real suite programs (what a cold
// -store run persists for them) and with raw suite sources.
func FuzzStoreDecode(f *testing.F) {
	f.Add(store.EncodePrep(&store.PrepSummary{RAW: 3, WAR: 1, WAW: 2, BaseOps: 120, AfterOps: 131, Grafts: 1}))
	f.Add(store.EncodeMeas(&store.MeasCell{Lats: []int{2, 6}, Times: [][]int64{{10, 40, 30}, {12, 44, 33}}, Ops: 900}))
	r := exper.New()
	r.Par = 1
	for _, name := range []string{"quick", "fft"} {
		b := bench.ByName(name)
		f.Add([]byte(b.Source))
		for _, lat := range exper.MemLats {
			sum, err := r.Summary(b, disamb.Spec, lat)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(store.EncodePrep(sum))
		}
		// NAIVE prices both latencies in one cell; SPEC one per latency.
		for _, c := range []struct {
			kind disamb.Kind
			lats []int
		}{{disamb.Naive, exper.MemLats}, {disamb.Spec, exper.MemLats[:1]}} {
			mc := &store.MeasCell{Lats: c.lats}
			for _, lat := range c.lats {
				m, err := r.Measure(b, c.kind, lat)
				if err != nil {
					f.Fatal(err)
				}
				mc.Times = append(mc.Times, append([]int64{m.Inf}, m.ByWidth[:]...))
				mc.Ops = m.Ops
			}
			f.Add(store.EncodeMeas(mc))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, d := range decoders {
			enc, reenc, ok := d.check(payload)
			if !ok {
				continue
			}
			if reenc == nil {
				t.Fatalf("%s: re-encoded artifact does not decode", d.name)
			}
			if !bytes.Equal(enc, reenc) {
				t.Fatalf("%s: encode/decode round trip is not a fixpoint", d.name)
			}
		}
	})
}
