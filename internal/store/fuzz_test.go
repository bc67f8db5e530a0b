package store_test

import (
	"bytes"
	"testing"

	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/machine"
	"specdis/internal/sim"
	"specdis/internal/store"
	"specdis/internal/trace"
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
	{"trace", func(b []byte) ([]byte, []byte, bool) {
		tr, err := store.DecodeTrace(b)
		if err != nil {
			return nil, nil, false
		}
		enc := store.EncodeTrace(tr)
		tr2, err := store.DecodeTrace(enc)
		if err != nil {
			return enc, nil, true
		}
		return enc, store.EncodeTrace(tr2), true
	}},
	{"bcode", func(b []byte) ([]byte, []byte, bool) {
		p, err := store.DecodeBCode(b)
		if err != nil {
			return nil, nil, false
		}
		enc := store.EncodeBCode(p)
		p2, err := store.DecodeBCode(enc)
		if err != nil {
			return enc, nil, true
		}
		return enc, store.EncodeBCode(p2), true
	}},
}

// FuzzStoreDecode feeds arbitrary bytes to every store Decode* codec: each
// must return an artifact or an error, never panic, and any artifact it
// accepts must survive an encode/decode round trip unchanged. Seeded with
// encoded artifacts of real suite programs (summaries, measurement cells,
// traces, compiled bytecode) and with raw suite sources.
func FuzzStoreDecode(f *testing.F) {
	f.Add(store.EncodePrep(&store.PrepSummary{RAW: 3, WAR: 1, WAW: 2, BaseOps: 120, AfterOps: 131, Grafts: 1}))
	f.Add(store.EncodeMeas(&store.MeasCell{Lats: []int{2, 6}, Times: [][]int64{{10, 40, 30}, {12, 44, 33}}, Ops: 900}))
	for _, name := range []string{"quick", "fft"} {
		b := bench.ByName(name)
		f.Add([]byte(b.Source))
		prog, err := compile.Compile(b.Source)
		if err != nil {
			f.Fatal(err)
		}
		rec := trace.NewRecorder()
		res, err := (&sim.Runner{Prog: prog, SemLat: machine.Infinite(2).LatencyFunc(), Rec: rec}).Run()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(store.EncodeTrace(rec.Finish(res.Ops, res.Committed)))
		for _, fn := range prog.Order {
			for _, t := range prog.Funcs[fn].Trees[:1] {
				if bp, err := bcode.Compile(t); err == nil {
					f.Add(store.EncodeBCode(bp))
				}
			}
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
