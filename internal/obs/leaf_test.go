package obs

import (
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// TestLeafPackage holds the package to its first design constraint: its
// non-test files import the standard library only, so instrumenting any
// package of this module — or serving its state through a Handler closure
// — can never create an import cycle.
func TestLeafPackage(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				// A standard-library path has no dot in its first element.
				if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") {
					t.Errorf("%s imports %s: obs must stay a leaf", name, path)
				}
			}
		}
	}
	if files == 0 {
		t.Fatal("parsed no source files")
	}
}
