package vectorref

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// moduleRoot walks up from the test's working directory to the
// directory holding go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// TestNoProductionImports keeps the reference out of production: no
// non-test Go file of the module (the nested perfbench module and
// testdata fixtures aside) may import this package, and the retired
// sourcecat package, whose only vector use was the string-keyed
// surface, must stay gone.
func TestNoProductionImports(t *testing.T) {
	const self = "thor/internal/vector/vectorref"
	const retired = "thor/internal/sourcecat"
	root := moduleRoot(t)
	if _, err := os.Stat(filepath.Join(root, "internal", "sourcecat")); err == nil {
		t.Errorf("internal/sourcecat exists again")
	}
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" ||
				(name == "perfbench" && filepath.Dir(path) == root)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		rel, _ := filepath.Rel(root, path)
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); p {
			case self:
				t.Errorf("%s imports the test-only %s", rel, self)
			case retired:
				t.Errorf("%s imports the retired %s", rel, retired)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files found under the module root")
	}
}
