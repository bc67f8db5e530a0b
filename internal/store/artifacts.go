package store

// Typed artifact codecs. Every payload is
//
//	kind byte | version uvarint | body…
//
// and the whole payload is sealed with the CRC footer by Store.Put. The
// decoders are strict: a wrong kind byte, an unknown version word, or a
// malformed body drops the artifact (Store.DropCorrupt) and reports a miss,
// so format evolution and corruption both degrade to recompute instead of
// ever surfacing stale or garbage results.

import (
	"encoding/binary"
	"fmt"
	"math"

	"specdis/internal/bcode"
	"specdis/internal/ir"
	"specdis/internal/trace"
)

// Format versions, one per artifact kind. Bump on any body layout change:
// old artifacts then read as misses and are rewritten on the next cold run.
const (
	VersionBCode = 1
	VersionTrace = 1
	VersionPrep  = 1
	VersionMeas  = 1
)

// header appends the payload preamble.
func header(buf []byte, kind Kind, version uint64) []byte {
	buf = append(buf, byte(kind))
	return binary.AppendUvarint(buf, version)
}

// checkHeader validates the preamble and returns the body.
func checkHeader(payload []byte, kind Kind, version uint64) ([]byte, error) {
	if len(payload) == 0 || Kind(payload[0]) != kind {
		return nil, fmt.Errorf("%w: artifact kind mismatch", ErrCorrupt)
	}
	v, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad version varint", ErrCorrupt)
	}
	if v != version {
		return nil, fmt.Errorf("%w: %s version %d, want %d", ErrCorrupt, kind, v, version)
	}
	return payload[1+n:], nil
}

// dec is a strict little decoder over an artifact body.
type dec struct {
	b   []byte
	err error
}

func (d *dec) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad %s varint", ErrCorrupt, what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad %s varint", ErrCorrupt, what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count decodes a length field and sanity-bounds it against the remaining
// bytes (every counted element costs at least one byte on the wire).
func (d *dec) count(what string, max int) int {
	v := d.uvarint(what)
	if d.err == nil && (v > uint64(max) || v > uint64(len(d.b))) {
		d.err = fmt.Errorf("%w: %s count %d out of range", ErrCorrupt, what, v)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return nil
}

// ---- Prepare summary -----------------------------------------------------

// PrepSummary is the report-visible residue of one prepare cell — exactly
// what Table 6-3 and Figure 6-4 read off a disamb.Prepared — so a warm run
// can render those rows without compiling or interpreting anything.
type PrepSummary struct {
	// RAW, WAR, WAW are the SpD application counts by dependence type
	// (zero for non-SPEC pipelines).
	RAW, WAR, WAW int
	// BaseOps and AfterOps are the operation counts before and after SpD.
	BaseOps, AfterOps int
	// Grafts counts applied tree grafts.
	Grafts int
}

// EncodePrep encodes a prepare summary payload.
func EncodePrep(p *PrepSummary) []byte {
	buf := header(make([]byte, 0, 32), KindPrep, VersionPrep)
	for _, v := range [...]int{p.RAW, p.WAR, p.WAW, p.BaseOps, p.AfterOps, p.Grafts} {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// DecodePrep decodes a prepare summary payload.
func DecodePrep(payload []byte) (*PrepSummary, error) {
	body, err := checkHeader(payload, KindPrep, VersionPrep)
	if err != nil {
		return nil, err
	}
	d := &dec{b: body}
	p := &PrepSummary{
		RAW:      int(d.varint("raw")),
		WAR:      int(d.varint("war")),
		WAW:      int(d.varint("waw")),
		BaseOps:  int(d.varint("base ops")),
		AfterOps: int(d.varint("after ops")),
		Grafts:   int(d.varint("grafts")),
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// ---- Measurement cell ----------------------------------------------------

// MeasCell is one priced measurement cell: for each memory latency the cell
// covered, the cycle counts of every machine model (infinite first, then
// each width), plus the run's dynamic operation count.
type MeasCell struct {
	// Lats are the memory latencies priced, in cell order.
	Lats []int
	// Times holds one cycle-count slice per latency, parallel to Lats.
	Times [][]int64
	// Ops is the dynamic operation count of the measured run.
	Ops int64
}

// maxMeasSlots bounds decoded slice sizes against corrupt length fields.
const maxMeasSlots = 1 << 10

// EncodeMeas encodes a measurement-cell payload.
func EncodeMeas(m *MeasCell) []byte {
	buf := header(make([]byte, 0, 64), KindMeas, VersionMeas)
	buf = binary.AppendVarint(buf, m.Ops)
	buf = binary.AppendUvarint(buf, uint64(len(m.Lats)))
	for i, lat := range m.Lats {
		buf = binary.AppendVarint(buf, int64(lat))
		buf = binary.AppendUvarint(buf, uint64(len(m.Times[i])))
		for _, t := range m.Times[i] {
			buf = binary.AppendVarint(buf, t)
		}
	}
	return buf
}

// DecodeMeas decodes a measurement-cell payload.
func DecodeMeas(payload []byte) (*MeasCell, error) {
	body, err := checkHeader(payload, KindMeas, VersionMeas)
	if err != nil {
		return nil, err
	}
	d := &dec{b: body}
	m := &MeasCell{Ops: d.varint("ops")}
	nl := d.count("latencies", maxMeasSlots)
	for i := 0; i < nl && d.err == nil; i++ {
		m.Lats = append(m.Lats, int(d.varint("latency")))
		nt := d.count("times", maxMeasSlots)
		times := make([]int64, 0, nt)
		for j := 0; j < nt && d.err == nil; j++ {
			times = append(times, d.varint("cycles"))
		}
		m.Times = append(m.Times, times)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---- Execution trace -----------------------------------------------------

// EncodeTrace encodes a captured trace payload (the trace's own sealed CRC
// footer rides along inside the body, so a persisted trace is
// double-protected).
func EncodeTrace(t *trace.Trace) []byte {
	enc := t.Marshal()
	buf := header(make([]byte, 0, len(enc)+8), KindTrace, VersionTrace)
	return append(buf, enc...)
}

// DecodeTrace decodes a trace payload, verifying the trace's own integrity
// footer.
func DecodeTrace(payload []byte) (*trace.Trace, error) {
	body, err := checkHeader(payload, KindTrace, VersionTrace)
	if err != nil {
		return nil, err
	}
	t, err := trace.Unmarshal(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// ---- Compiled bytecode ---------------------------------------------------

// maxBCodeSlots bounds decoded instruction and constant counts.
const maxBCodeSlots = 1 << 20

// EncodeBCode encodes a compiled bytecode program. The source tree is not
// part of the artifact: the executor reads nothing tree-specific beyond the
// instruction stream, and the cache that loads the artifact binds it to the
// requesting tree (the same aliasing the in-process cache already performs).
func EncodeBCode(p *bcode.Prog) []byte {
	buf := header(make([]byte, 0, 16+20*len(p.Code)), KindBCode, VersionBCode)
	buf = binary.AppendUvarint(buf, uint64(p.NumGuarded))
	buf = binary.AppendUvarint(buf, uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		flags := byte(0)
		if in.GNeg {
			flags = 1
		}
		buf = append(buf, byte(in.Op), flags)
		buf = binary.AppendUvarint(buf, uint64(in.GIdx))
		buf = binary.AppendVarint(buf, int64(in.Guard))
		buf = binary.AppendVarint(buf, int64(in.A))
		buf = binary.AppendVarint(buf, int64(in.B))
		buf = binary.AppendVarint(buf, int64(in.Dest))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Consts)))
	for _, c := range p.Consts {
		buf = binary.AppendVarint(buf, c.I)
		buf = binary.AppendUvarint(buf, math.Float64bits(c.F))
	}
	return buf
}

// DecodeBCode decodes a compiled bytecode program. Prog.Tree is nil; the
// caller binds it to the tree the lookup was keyed by.
func DecodeBCode(payload []byte) (*bcode.Prog, error) {
	body, err := checkHeader(payload, KindBCode, VersionBCode)
	if err != nil {
		return nil, err
	}
	d := &dec{b: body}
	p := &bcode.Prog{NumGuarded: int(d.uvarint("guarded"))}
	n := d.count("instructions", maxBCodeSlots)
	p.Code = make([]bcode.Instr, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		if len(d.b) < 2 {
			d.err = fmt.Errorf("%w: truncated instruction", ErrCorrupt)
			break
		}
		in := bcode.Instr{Op: bcode.Op(d.b[0]), GNeg: d.b[1] != 0}
		d.b = d.b[2:]
		in.GIdx = uint16(d.uvarint("gidx"))
		in.Guard = int32(d.varint("guard"))
		in.A = int32(d.varint("a"))
		in.B = int32(d.varint("b"))
		in.Dest = int32(d.varint("dest"))
		p.Code = append(p.Code, in)
	}
	nc := d.count("constants", maxBCodeSlots)
	p.Consts = make([]ir.Value, 0, nc)
	for i := 0; i < nc && d.err == nil; i++ {
		v := ir.Value{I: d.varint("const int")}
		v.F = math.Float64frombits(d.uvarint("const float"))
		p.Consts = append(p.Consts, v)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return p, nil
}
