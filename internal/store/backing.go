package store

// The adapter wiring the persistent store behind the bytecode cache: bcode
// programs round-trip in full (the instruction stream is pure data). Native
// closure chains are process-bound and are not persisted. Programs key on
// the tree's execution content (ir.AppendExecKey) hashed under the artifact
// kind, so the on-disk namespace is shared across every process, program
// clone, and pipeline that ever compiles the same content.
//
// Loads are validated, not just decoded: a bcode payload that survives the
// CRC footer and the format decoder is still run through the translation
// validator (internal/verify.CheckBCode) against the tree that requested
// it. A stale or tampered artifact — plausible bytes under a matching key —
// is dropped (Stats.InvalidDropped) and reported as a miss, so the caller
// recompiles and the next Put repairs the store: the same
// drop→recompute→repair rung corruption takes, one layer deeper.

import (
	"specdis/internal/bcode"
	"specdis/internal/ir"
	"specdis/internal/verify"
)

// bcodeBacking implements bcode.Backing over a store.
type bcodeBacking struct{ s *Store }

// BCodeBacking returns a bcode.Backing persisting compiled programs in s.
func BCodeBacking(s *Store) bcode.Backing { return bcodeBacking{s} }

func (b bcodeBacking) Load(t *ir.Tree, execKey []byte) (*bcode.Prog, bool) {
	k := NewKey(KindBCode, execKey)
	p, ok := getTyped(b.s, k, DecodeBCode)
	if !ok {
		return nil, false
	}
	// Bind the loaded stream to the requesting tree (the caller's cache does
	// the same on a hit) and validate the pair before serving it.
	p.Tree = t
	if fs := verify.CheckBCode(t, p); len(fs) > 0 {
		b.s.DropInvalid(k)
		return nil, false
	}
	return p, true
}

func (b bcodeBacking) Store(execKey []byte, p *bcode.Prog) {
	_ = b.s.Put(NewKey(KindBCode, execKey), EncodeBCode(p))
}
