package disamb_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/graft"
	"specdis/internal/spd"
)

// profileSig renders everything a preparation's profile determines, by
// structural position so two programs can be compared: every tree's
// execution count, every exit's count, and every arc with its counters.
// Profile entries keyed by a tree or op the program does not contain — a
// remap that missed — are counted as stale.
func profileSig(p *disamb.Prepared) string {
	var sb strings.Builder
	trees, exits := 0, 0
	for _, name := range p.Prog.Order {
		for i, t := range p.Prog.Funcs[name].Trees {
			n, ok := p.Profile.TreeExec[t]
			if ok {
				trees++
			}
			fmt.Fprintf(&sb, "%s/%d exec=%d ops=%d\n", name, i, n, len(t.Ops))
			for j, op := range t.Ops {
				if n, ok := p.Profile.ExitExec[op]; ok {
					exits++
					fmt.Fprintf(&sb, "  exit %d: %d\n", j, n)
				}
			}
			for _, a := range t.Arcs {
				fmt.Fprintf(&sb, "  arc %s exec=%d alias=%d\n", a, a.ExecCount, a.AliasCount)
			}
		}
	}
	fmt.Fprintf(&sb, "stale trees=%d exits=%d\n", len(p.Profile.TreeExec)-trees, len(p.Profile.ExitExec)-exits)
	return sb.String()
}

// checkSharedMatchesFresh compares a preparation made from a shared base
// with one that profiled on its own: same profile and arc counters, same
// SpD counts, same code size, same output. It returns the first mismatch.
func checkSharedMatchesFresh(shared, fresh *disamb.Prepared) error {
	if shared.Output != fresh.Output {
		return fmt.Errorf("output %q, fresh %q", shared.Output, fresh.Output)
	}
	if shared.BaseOps != fresh.BaseOps || shared.Prog.OpCount() != fresh.Prog.OpCount() {
		return fmt.Errorf("ops %d→%d, fresh %d→%d", shared.BaseOps, shared.Prog.OpCount(), fresh.BaseOps, fresh.Prog.OpCount())
	}
	if (shared.SpD == nil) != (fresh.SpD == nil) {
		return fmt.Errorf("SpD result presence %v, fresh %v", shared.SpD != nil, fresh.SpD != nil)
	}
	if shared.SpD != nil {
		s, f := shared.SpD, fresh.SpD
		if s.RAW != f.RAW || s.WAR != f.WAR || s.WAW != f.WAW || s.AddedOps != f.AddedOps {
			return fmt.Errorf("SpD RAW/WAR/WAW/added %d/%d/%d/%d, fresh %d/%d/%d/%d",
				s.RAW, s.WAR, s.WAW, s.AddedOps, f.RAW, f.WAR, f.WAW, f.AddedOps)
		}
	}
	if s, f := profileSig(shared), profileSig(fresh); s != f {
		return fmt.Errorf("profiles differ:\n--- shared ---\n%s--- fresh ---\n%s", s, f)
	}
	return nil
}

// TestSharedProfileMatchesFresh pins the equivalence the sweep engine's
// one-profile-per-benchmark sharing rests on: for every suite benchmark,
// PERFECT and SPEC at both latencies prepared from one recorded base equal
// preparations that profile on their own, and PERFECT's inherited trace is
// byte-identical to a dedicated capture of the fresh PERFECT program.
func TestSharedProfileMatchesFresh(t *testing.T) {
	params := spd.DefaultParams()
	for _, bm := range bench.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			base, err := disamb.NewProfiled(bm.Source, disamb.Options{MemLat: 2}, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				kind   disamb.Kind
				memLat int
			}{{disamb.Perfect, 2}, {disamb.Spec, 2}, {disamb.Spec, 6}} {
				shared, err := disamb.PrepareOpts("", disamb.Options{Kind: c.kind, MemLat: c.memLat, SpD: params, Base: base})
				if err != nil {
					t.Fatalf("%s@%d shared: %v", c.kind, c.memLat, err)
				}
				fresh, err := disamb.Prepare(bm.Source, c.kind, c.memLat, params)
				if err != nil {
					t.Fatalf("%s@%d fresh: %v", c.kind, c.memLat, err)
				}
				if err := checkSharedMatchesFresh(shared, fresh); err != nil {
					t.Fatalf("%s@%d: %v", c.kind, c.memLat, err)
				}
				if c.kind != disamb.Perfect {
					if shared.Trace != nil {
						t.Fatalf("%s@%d inherited the base trace of the untransformed program", c.kind, c.memLat)
					}
					continue
				}
				tr, err := disamb.Capture(fresh)
				if err != nil {
					t.Fatal(err)
				}
				if shared.Trace == nil || !bytes.Equal(shared.Trace.Bytes(), tr.Bytes()) {
					t.Fatalf("PERFECT's base trace differs from a dedicated capture")
				}
			}
		})
	}
}

// TestBaseIsNotMutated checks a shared base stays untouched by the
// preparations cloned from it, and that grafting refuses a supplied base.
func TestBaseIsNotMutated(t *testing.T) {
	src := bench.ByName("fft").Source
	base, err := disamb.NewProfiled(src, disamb.Options{MemLat: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	before := base.Prog.OpCount()
	arcs := 0
	for _, name := range base.Prog.Order {
		for _, tr := range base.Prog.Funcs[name].Trees {
			arcs += len(tr.Arcs)
		}
	}
	for _, kind := range []disamb.Kind{disamb.Perfect, disamb.Spec} {
		if _, err := disamb.PrepareOpts("", disamb.Options{Kind: kind, MemLat: 6, SpD: spd.DefaultParams(), Base: base}); err != nil {
			t.Fatal(err)
		}
	}
	after := 0
	for _, name := range base.Prog.Order {
		for _, tr := range base.Prog.Funcs[name].Trees {
			after += len(tr.Arcs)
		}
	}
	if base.Prog.OpCount() != before || after != arcs {
		t.Fatalf("base mutated: ops %d→%d, arcs %d→%d", before, base.Prog.OpCount(), arcs, after)
	}
	gp := disamb.Options{Kind: disamb.Spec, MemLat: 6, SpD: spd.DefaultParams(), Base: base}
	graftParams := graft.DefaultParams()
	gp.Graft = &graftParams
	if _, err := disamb.PrepareOpts("", gp); err == nil {
		t.Fatal("grafting accepted a supplied base")
	}
}
