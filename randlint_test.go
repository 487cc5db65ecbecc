package mtbench_test

// Reproducibility lint: every noise maker, random strategy and native
// runtime must draw randomness from a per-run core.NewRand(seed) —
// never from math/rand's process-global source — so that a (program,
// seed) pair always reproduces the same schedule (the property
// TestStrategyDeterministicPerSeed pins for one strategy; this test
// pins the whole module). A call to the global source would make runs
// depend on whatever else drew from it first.
//
// Inside the program proper (internal/ and cmd/), rand.NewSource is
// flagged too: core.NewRand yields the same stream without the
// 607-word seeding cost, and internal/core, which implements it, is
// the one place allowed to build a stock source.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// globalRandFuncs are the package-level math/rand functions that read
// the shared global source (or reseed it under callers' feet).
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

func TestNoGlobalRandSource(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		// Names under which this file imports math/rand (usually
		// "rand", but aliases count too).
		randNames := map[string]bool{}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != "math/rand" && p != "math/rand/v2" {
				continue
			}
			name := "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			randNames[name] = true
		}
		if len(randNames) == 0 {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || !randNames[pkg.Name] || pkg.Obj != nil {
				return true
			}
			if globalRandFuncs[sel.Sel.Name] {
				t.Errorf("%s: %s.%s uses math/rand's global source; route through a per-run core.NewRand(seed)",
					fset.Position(call.Pos()), pkg.Name, sel.Sel.Name)
			}
			if sel.Sel.Name == "NewSource" && noNewSource(path) {
				t.Errorf("%s: %s.NewSource seeds a 607-word register per call; use core.NewRand(seed), which yields the same stream",
					fset.Position(call.Pos()), pkg.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// noNewSource reports whether the rand.NewSource rule covers the file
// at path (slash-separated, relative to the module root): the
// program's own packages under internal/ and cmd/, except internal/core.
func noNewSource(path string) bool {
	path = filepath.ToSlash(path)
	if strings.HasPrefix(path, "internal/core/") {
		return false
	}
	return strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")
}
