package compile_test

import (
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
)

// FuzzCompileSource feeds arbitrary bytes to the front end: lexing,
// checking and lowering must return a valid program or an error, and never
// panic. Seeded from every suite program plus the shapes most likely to
// stress a recursive-descent parser.
func FuzzCompileSource(f *testing.F) {
	for _, b := range bench.Everything() {
		f.Add(b.Source)
	}
	for _, s := range []string{
		"",
		"void main() {}",
		"int f(int n) { return f(n + 1); }\nvoid main() { print(f(0)); }",
		"int a[4000000000];\nvoid main() { a[0] = 1; print(a[0]); }",
		"void main() { print(((((((((1)))))))))); }",
		"void main() { int x = 1 +; }",
		"float g[3]; void main() { g[1] = 2.5; print(g[1] * 2); }",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		prog, err := compile.Compile(src)
		switch {
		case err != nil && prog != nil:
			t.Fatalf("Compile returned both a program and an error: %v", err)
		case err == nil && prog == nil:
			t.Fatal("Compile returned neither a program nor an error")
		case err == nil:
			if verr := prog.Validate(); verr != nil {
				t.Fatalf("Compile returned an invalid program: %v\n%s", verr, src)
			}
		}
	})
}
