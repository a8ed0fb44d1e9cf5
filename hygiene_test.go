package ntier_test

// Repository hygiene gates, run as part of `go test ./...` and therefore
// in CI: gofmt cleanliness, no dangling relative links in the Markdown
// docs, the godoc paper-reference audit (every internal/ package comment
// must say which paper section or figure it reproduces), a build of
// every examples/ program, and the dead-code gate over internal/.

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// goFiles yields every .go file in the repository, skipping VCS and
// generated-output directories.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && path != "." || name == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found — wrong working directory?")
	}
	return files
}

// TestGofmt is the `gofmt -l` gate: every Go file must already be
// formatted.
func TestGofmt(t *testing.T) {
	for _, path := range goFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if string(src) != string(want) {
			t.Errorf("%s: not gofmt-formatted (run gofmt -w %s)", path, path)
		}
	}
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks asserts every relative link in the repository's
// Markdown files points at a file or directory that exists.
func TestMarkdownLinks(t *testing.T) {
	var docs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		// PAPERS.md and SNIPPETS.md are verbatim source-material dumps
		// (paper extraction, exemplar code) whose links we don't own.
		if strings.HasSuffix(path, ".md") && path != "PAPERS.md" && path != "SNIPPETS.md" {
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dangling link %q (%s does not exist)", doc, m[1], resolved)
			}
		}
	}
}

// TestGodocPaperReferences is the godoc audit: the package comment of
// every internal/ package must state which part of the paper it
// reproduces, by naming a section (§), a figure (Fig.), a table, an
// algorithm, or the paper itself.
func TestGodocPaperReferences(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`§|Fig\.|Table|Algorithm|paper`)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join("internal", e.Name())
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		var doc strings.Builder
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				if f.Doc != nil {
					doc.WriteString(f.Doc.Text())
				}
			}
		}
		switch {
		case doc.Len() == 0:
			t.Errorf("internal/%s: no package doc comment", e.Name())
		case !ref.MatchString(doc.String()):
			t.Errorf("internal/%s: package doc does not reference the paper (want a §, Fig., Table, Algorithm, or \"paper\" mention)", e.Name())
		}
	}
}

// TestExamplesBuild asserts every examples/ program compiles.
func TestExamplesBuild(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command("go", "build", "./examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("examples do not build: %v\n%s", err, out)
	}
}

// stdlibMethods are the method names the standard library calls through
// its interfaces (fmt, errors, encoding/json), so a method by one of these
// names has a user even if no Go file in the repository selects it.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "Format": true,
}

// TestNoDeadInternalFuncs is the dead-code gate. Go forbids importing
// internal/ from outside this repository, so an exported top-level
// function there that no non-test code references, and that no test of
// another package calls, has no user. An exported method there has none
// if no Go file at all, test or not, selects its name (x.Method) and the
// standard library does not call it (stdlibMethods). Every file is
// parsed, bench/ included, since it imports internal packages.
func TestNoDeadInternalFuncs(t *testing.T) {
	const module = "github.com/softres/ntier/"
	declared := map[string]token.Position{} // "internal/pkg.Func" -> declaration
	used := map[string]bool{}
	methods := map[string][]string{} // "Method" -> "pos: internal/pkg.Method" per declaration
	selected := map[string]bool{}    // every name any file selects
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		test := strings.HasSuffix(path, "_test.go")
		imports := map[string]string{} // local name -> repository directory
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(ip, module+"internal/") {
				continue
			}
			name := ip[strings.LastIndexByte(ip, '/')+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(ip, module)
		}
		var decls map[*ast.Ident]bool
		if !test {
			decls = map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fd.Recv != nil {
					if name := fd.Name.Name; strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() && !stdlibMethods[name] {
						methods[name] = append(methods[name], fmt.Sprintf("%s: %s.%s", fset.Position(fd.Pos()), dir, name))
					}
					continue
				}
				decls[fd.Name] = true
				if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
					declared[dir+"."+fd.Name.Name] = fset.Position(fd.Pos())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				// pkg.Func from another directory; a test of the
				// package itself does not count.
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok && !(test && pkg == dir) {
						used[pkg+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				// A bare name in the package's own non-test code.
				if !test && !decls[n] {
					used[dir+"."+n.Name] = true
				}
			}
			return true
		})
	}
	var dead []string
	for key, pos := range declared {
		if !used[key] {
			dead = append(dead, pos.String()+": "+key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported internal functions have no user outside their own package's tests; delete them:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
	var deadMethods []string
	for name, decls := range methods {
		if !selected[name] {
			deadMethods = append(deadMethods, decls...)
		}
	}
	sort.Strings(deadMethods)
	if len(deadMethods) > 0 {
		t.Errorf("%d exported internal methods are selected by no Go file, test or not; delete them:\n%s",
			len(deadMethods), strings.Join(deadMethods, "\n"))
	}
}
