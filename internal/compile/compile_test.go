package compile_test

import (
	"strings"
	"testing"

	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sim"
)

func mustCompile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := compile.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func run(t *testing.T, src string) string {
	t.Helper()
	p := mustCompile(t, src)
	r := &sim.Runner{Prog: p, SemLat: machine.Infinite(2).LatencyFunc()}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Output
}

func TestExpressionSemantics(t *testing.T) {
	cases := []struct{ expr, want string }{
		{"7 + 3", "10"},
		{"7 - 3", "4"},
		{"7 * 3", "21"},
		{"7 / 3", "2"},
		{"-7 / 3", "-2"},
		{"7 % 3", "1"},
		{"-7 % 3", "-1"},
		{"6 & 3", "2"},
		{"6 | 3", "7"},
		{"6 ^ 3", "5"},
		{"~0", "-1"},
		{"1 << 4", "16"},
		{"256 >> 3", "32"},
		{"3 < 4", "1"},
		{"4 < 3", "0"},
		{"3 <= 3", "1"},
		{"3 == 3", "1"},
		{"3 != 3", "0"},
		{"4 > 3", "1"},
		{"3 >= 4", "0"},
		{"1 && 1", "1"},
		{"1 && 0", "0"},
		{"0 || 2", "1"}, // strict logical: nonzero normalizes to 1
		{"!5", "0"},
		{"!0", "1"},
		{"-(3 + 4)", "-7"},
		{"int(3.9)", "3"},
		{"int(-3.9)", "-3"},
	}
	for _, c := range cases {
		got := run(t, "void main() { print("+c.expr+"); }")
		if got != c.want+"\n" {
			t.Errorf("%s = %q, want %s", c.expr, strings.TrimSpace(got), c.want)
		}
	}
}

func TestFloatSemantics(t *testing.T) {
	cases := []struct{ expr, want string }{
		{"1.5 + 2.25", "3.75"},
		{"10.0 / 4.0", "2.5"},
		{"2.0 * 3.5", "7"},
		{"float(3) / 2.0", "1.5"},
		{"sqrt(16.0)", "4"},
		{"fabs(-2.5)", "2.5"},
		{"1 + 0.5", "1.5"}, // int widens
	}
	for _, c := range cases {
		got := run(t, "void main() { print("+c.expr+"); }")
		if got != c.want+"\n" {
			t.Errorf("%s = %q, want %s", c.expr, strings.TrimSpace(got), c.want)
		}
	}
}

func TestGlobalInitialization(t *testing.T) {
	out := run(t, `
int a[4] = {10, 20, 30};
float f[2] = {1.5, -2};
int s = 99;
void main() {
	print(a[0]); print(a[1]); print(a[2]); print(a[3]);
	print(f[0]); print(f[1]);
	print(s);
}`)
	want := "10\n20\n30\n0\n1.5\n-2\n99\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestGlobalScalarReadModifyWrite(t *testing.T) {
	out := run(t, `
int counter = 5;
void bump() { counter = counter + 2; }
void main() {
	bump();
	bump();
	counter += 1;
	print(counter);
}`)
	if out != "10\n" {
		t.Fatalf("got %q", out)
	}
}

func TestParamArraysShareStorage(t *testing.T) {
	out := run(t, `
int buf[4];
void fill(int dst[], int v) { dst[0] = v; dst[1] = v * 2; }
int get(int src[], int i) { return src[i]; }
void main() {
	fill(buf, 21);
	print(get(buf, 0) + get(buf, 1));
}`)
	if out != "63\n" {
		t.Fatalf("got %q", out)
	}
}

func TestTreeStructureProperties(t *testing.T) {
	p := mustCompile(t, `
int a[8];
int f(int x) {
	int s = 0;
	for (int i = 0; i < x; i = i + 1) {
		if (a[i] > 3) { s = s + a[i]; } else { s = s - 1; }
	}
	return s;
}
void main() { a[2] = 9; print(f(8)); }
`)
	for _, name := range p.Order {
		fn := p.Funcs[name]
		if len(fn.Trees) == 0 {
			t.Fatalf("%s has no trees", name)
		}
		for _, tr := range fn.Trees {
			if err := tr.Validate(); err != nil {
				t.Errorf("%v", err)
			}
			if err := tr.ValidateBlocks(); err != nil {
				t.Errorf("%v", err)
			}
			// Pure non-merge ops must be speculative (unguarded).
			for _, op := range tr.Ops {
				if !op.Kind.HasSideEffect() && !op.VarWrite && op.Guard != ir.NoReg {
					t.Errorf("%s: pure op %s carries a guard", tr.Name, op)
				}
			}
		}
	}
}

func TestLoopBodyLivesInHeaderTree(t *testing.T) {
	p := mustCompile(t, `
int a[4];
void main() {
	for (int i = 0; i < 4; i = i + 1) { a[i] = i; }
	print(a[3]);
}`)
	main := p.Funcs["main"]
	// One tree must exit back to itself (the loop).
	selfLoop := false
	for _, tr := range main.Trees {
		for _, ex := range tr.Exits() {
			if ex.Exit == ir.ExitGoto && ex.Target == tr.ID {
				selfLoop = true
				// The store must be in this same tree, guarded.
				hasStore := false
				for _, op := range tr.Ops {
					if op.Kind == ir.OpStore {
						hasStore = true
						if op.Guard == ir.NoReg {
							t.Error("loop-body store unguarded in header tree")
						}
					}
				}
				if !hasStore {
					t.Error("loop body not fused into header tree")
				}
			}
		}
	}
	if !selfLoop {
		t.Fatal("no self-looping tree found")
	}
}

func TestMemRefsForAffineAccesses(t *testing.T) {
	p := mustCompile(t, `
int a[16];
int idx[16];
void f(int x[]) {
	for (int i = 2; i < 10; i = i + 1) {
		a[2 * i + 1] = x[i];      // affine global + affine param
		a[idx[i]] = 0;            // subscript loaded from memory
	}
}
void main() { f(idx); print(a[5]); }
`)
	fn := p.Funcs["f"]
	var affG, affP, opaque int
	for _, tr := range fn.Trees {
		for _, op := range tr.Ops {
			if op.Ref == nil {
				continue
			}
			switch {
			case op.Ref.BaseKind == ir.BaseGlobal && op.Ref.Sub != nil && len(op.Ref.Sub.Terms) == 1 && op.Ref.Sub.Terms[0].Coef == 2:
				affG++
				// Loop bounds widened by one step: [2, 10].
				if len(op.Ref.Loops) != 1 || !op.Ref.Loops[0].BoundsKnown ||
					op.Ref.Loops[0].Lo != 2 || op.Ref.Loops[0].Hi != 10 {
					t.Errorf("loop info wrong: %+v", op.Ref.Loops)
				}
			case op.Ref.BaseKind == ir.BaseParam && op.Ref.Sub != nil:
				affP++
			case op.Ref.BaseKind == ir.BaseGlobal && op.Ref.Sub == nil:
				opaque++
			}
		}
	}
	if affG == 0 || affP == 0 || opaque == 0 {
		t.Errorf("memref classes missing: affG=%d affP=%d opaque=%d", affG, affP, opaque)
	}
}

func TestCallsInConditionsAndArgs(t *testing.T) {
	out := run(t, `
int id(int x) { return x; }
void main() {
	if (id(3) > id(2)) { print(1); } else { print(0); }
	while (id(0) == 1) { print(99); }
	print(id(id(id(5))));
}`)
	if out != "1\n5\n" {
		t.Fatalf("got %q", out)
	}
}

func TestRecursionDepth(t *testing.T) {
	out := run(t, `
int down(int n) {
	if (n == 0) { return 0; }
	return down(n - 1) + 1;
}
void main() { print(down(500)); }`)
	if out != "500\n" {
		t.Fatalf("got %q", out)
	}
}

func TestVoidMainImplicitReturn(t *testing.T) {
	out := run(t, `void main() { print(1); }`)
	if out != "1\n" {
		t.Fatal("implicit return broken")
	}
}

func TestMixedIntFloatCompare(t *testing.T) {
	out := run(t, `void main() { if (1 < 1.5) { print(1); } else { print(0); } }`)
	if out != "1\n" {
		t.Fatalf("mixed compare got %q", out)
	}
}

func TestDeeplyNestedControl(t *testing.T) {
	out := run(t, `
void main() {
	int s = 0;
	for (int i = 0; i < 3; i = i + 1) {
		for (int j = 0; j < 3; j = j + 1) {
			if (i == j) {
				if (i > 0) { s = s + 10; } else { s = s + 1; }
			} else {
				if (i + j == 2) { s = s + 100; }
			}
		}
	}
	print(s);
}`)
	// pairs: (0,0)+1 (1,1)+10 (2,2)+10, off-diagonal i+j==2: (0,2),(2,0) +200
	if out != "221\n" {
		t.Fatalf("got %q", out)
	}
}

func TestWhileWithComplexCondition(t *testing.T) {
	out := run(t, `
int a[8] = {1, 2, 3, 0, 5, 6, 7, 8};
void main() {
	int i = 0;
	while (i < 8 && a[i] != 0) { i = i + 1; }
	print(i);
}`)
	if out != "3\n" {
		t.Fatalf("got %q", out)
	}
}

func TestDownwardLoop(t *testing.T) {
	out := run(t, `
void main() {
	int s = 0;
	for (int i = 10; i > 0; i = i - 2) { s = s + i; }
	print(s);
}`)
	if out != "30\n" { // 10+8+6+4+2
		t.Fatalf("got %q", out)
	}
}

// TestGlobalMemoryBudget pins that globals too large for the memory budget
// are a compile error, never an allocation: the image is sized here, long
// before any engine allocates it.
func TestGlobalMemoryBudget(t *testing.T) {
	const main = "\nvoid main() { print(1); }"
	for _, c := range []struct {
		src string
		ok  bool
	}{
		{"int a[1048576];", true},
		{"int a[1048576]; int b;", false},
		{"int a[4000000000];", false},
		{"int a[1048575]; float b[2];", false},
		// Sizes whose running sum would overflow int64.
		{"int a[9223372036854775807]; int b[9223372036854775807];", false},
		{"int a[1]; int b[9223372036854775807];", false},
	} {
		_, err := compile.Compile(c.src + main)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: unexpected error: %v", c.src, err)
		case !c.ok && err == nil:
			t.Errorf("%s: compiled; want a memory-budget error", c.src)
		case !c.ok && !strings.Contains(err.Error(), "global memory budget"):
			t.Errorf("%s: error %q does not name the budget", c.src, err)
		}
	}
}
