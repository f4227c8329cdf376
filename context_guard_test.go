package hetarch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// rootContextAllowed lists the non-test files under internal/ that may mint
// a root context: the fabric worker's lease submit outlives the cancelled
// run context by design (a draining worker still ships its tallies), and
// the telemetry server's base context belongs to the server, not to a run.
var rootContextAllowed = map[string]bool{
	"internal/fabric/worker.go":   true,
	"internal/obs/serve/serve.go": true,
}

// TestInternalTakesContextFromCaller guards the engine's one way in: code
// under internal/ receives its context from the caller, so cancellation,
// the checkpoint scope and the fabric Remote reach every Monte Carlo run.
// A wrapper that calls context.Background() and panics on error would cut
// all three.
func TestInternalTakesContextFromCaller(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if rootContextAllowed[filepath.ToSlash(path)] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
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
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "context" &&
				(sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") {
				t.Errorf("%s: context.%s() in library code; take a ctx from the caller", fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
