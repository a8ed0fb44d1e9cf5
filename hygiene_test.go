package ntier_test

// Repository hygiene gates, run as part of `go test ./...` and therefore
// in CI: gofmt cleanliness, no dangling relative links in the Markdown
// docs, the godoc paper-reference audit (every internal/ package comment
// must say which paper section or figure it reproduces), a build of
// every examples/ program, the dead-code and single-valued-settings gates
// over internal/, the gate that keeps the journal images' fields in their
// own packages, and the gate that keeps one trial protocol.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
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

const modulePath = "github.com/softres/ntier"

// repoDir returns the repository directory of an import path in this
// module, bench/ included (its module path extends this one).
func repoDir(path string) (string, bool) {
	if path == modulePath {
		return ".", true
	}
	dir, ok := strings.CutPrefix(path, modulePath+"/")
	return dir, ok
}

// typedFiles is one type-checked package of the repository: a directory's
// package with its in-package tests, or the directory's external test
// package.
type typedFiles struct {
	dir   string
	files []*ast.File
	info  *types.Info
}

// repoTypes holds the one type-check of the repository that the gates
// share.
var repoTypes struct {
	once sync.Once
	fset *token.FileSet
	pkgs []*typedFiles
	err  error
}

// typecheckRepo type-checks every Go file of the repository that the
// build context selects, once per test binary. The repository's packages
// are checked from source, each once, so every file shares their objects;
// the standard library comes from the export data of one `go list -export`.
func typecheckRepo(t *testing.T) (*token.FileSet, []*typedFiles) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	repoTypes.once.Do(func() {
		repoTypes.err = errors.New("type-checking the repository did not finish")
		repoTypes.fset, repoTypes.pkgs, repoTypes.err = typecheck(goFiles(t))
	})
	if repoTypes.err != nil {
		t.Fatal(repoTypes.err)
	}
	return repoTypes.fset, repoTypes.pkgs
}

func typecheck(paths []string) (*token.FileSet, []*typedFiles, error) {
	fset := token.NewFileSet()
	pkgFiles, xtestFiles := map[string][]*ast.File{}, map[string][]*ast.File{}
	std := map[string]bool{}
	for _, path := range paths {
		if ok, err := build.Default.MatchFile(filepath.Dir(path), filepath.Base(path)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtestFiles[dir] = append(xtestFiles[dir], f)
		} else {
			pkgFiles[dir] = append(pkgFiles[dir], f)
		}
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if _, repo := repoDir(ip); !repo {
				std[ip] = true
			}
		}
	}
	exports := map[string]string{}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for ip := range std {
		args = append(args, ip)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			err = fmt.Errorf("%v\n%s", err, ee.Stderr)
		}
		return nil, nil, fmt.Errorf("go list -export: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, file, _ := strings.Cut(line, "\t")
		exports[ip] = file
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})

	var typeErrs []error
	checked := map[string]*types.Package{}
	var pkgs []*typedFiles
	var check func(dir string, xtest bool) *types.Package
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			dir, ok := repoDir(path)
			if !ok {
				return stdImporter.Import(path)
			}
			if pkg, done := checked[dir]; done {
				if pkg == nil {
					return nil, fmt.Errorf("import cycle through %s", path)
				}
				return pkg, nil
			}
			return check(dir, false), nil
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	check = func(dir string, xtest bool) *types.Package {
		path, files := modulePath, pkgFiles[dir]
		if dir != "." {
			path += "/" + dir
		}
		if xtest {
			path, files = path+"_test", xtestFiles[dir]
		} else {
			checked[dir] = nil
		}
		tf := &typedFiles{dir: dir, files: files, info: &types.Info{
			Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		pkg, _ := conf.Check(path, fset, files, tf.info)
		if !xtest {
			checked[dir] = pkg
		}
		pkgs = append(pkgs, tf)
		return pkg
	}
	dirs := make([]string, 0, len(pkgFiles))
	for dir := range pkgFiles {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, done := checked[dir]; !done {
			check(dir, false)
		}
	}
	for dir := range xtestFiles {
		check(dir, true)
	}
	if len(typeErrs) > 0 {
		return nil, nil, fmt.Errorf("type-checking the repository: %v", errors.Join(typeErrs...))
	}
	return fset, pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestNoDeadInternalFuncs is the dead-code gate. Go forbids importing
// internal/ from outside this repository, so an exported function or
// method there that no non-test code references, and that no test of
// another package calls, has no user: its own package's tests alone do
// not keep it. A method is kept also if it implements an interface method
// that some file, test or not, selects, or if the standard library calls
// it (stdlibMethods). Selections are resolved by type, so a field, a
// package function or another type's method of the same name does not
// keep a method alive. Every file is checked, bench/ included, since it
// imports internal packages.
func TestNoDeadInternalFuncs(t *testing.T) {
	fset, pkgs := typecheckRepo(t)
	declared := map[*types.Func]string{} // declaration -> "pos: internal/pkg.Func" or "...pkg.Type.Method"
	used := map[*types.Func]bool{}
	ifaceMethods := map[*types.Func]bool{} // interface methods some file selects
	var named []*types.Named               // the repository's non-generic named types
	for _, tp := range pkgs {
		for _, f := range tp.files {
			if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") || !strings.HasPrefix(tp.dir, "internal/") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || fd.Recv != nil && stdlibMethods[fd.Name.Name] {
					continue
				}
				fn := tp.info.Defs[fd.Name].(*types.Func)
				name := fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = recvName(recv.Type()) + "." + name
				}
				declared[fn] = fmt.Sprintf("%s: %s.%s", fset.Position(fd.Pos()), tp.dir, name)
			}
		}
		for id, obj := range tp.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !strings.HasSuffix(fset.Position(id.Pos()).Filename, "_test.go") {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		for id, obj := range tp.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			recv := fn.Type().(*types.Signature).Recv()
			if recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods[fn] = true
				continue
			}
			// A function or method counts where non-test code selects it
			// or a test of another package does.
			test := strings.HasSuffix(fset.Position(id.Pos()).Filename, "_test.go")
			if declDir, ok := repoDir(fn.Pkg().Path()); !test || !ok || declDir != tp.dir {
				used[fn] = true
			}
		}
	}
	for im := range ifaceMethods {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			if types.IsInterface(n) {
				continue
			}
			ptr := types.NewPointer(n)
			if !types.Implements(ptr, iface) {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name()); obj != nil {
				used[obj.(*types.Func).Origin()] = true
			}
		}
	}
	var dead []string
	for fn, decl := range declared {
		if !used[fn] {
			dead = append(dead, decl)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported internal functions and methods have no user outside their own package's tests; delete or unexport them:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}

// TestOneTrialProtocol keeps one trial protocol: internal/experiment's run
// (ramp, reset, measure, audit, and the drain a Disturbance asks for) is
// the only non-test code under internal/, cmd/ or examples/ that advances
// a simulation's clock. Any other caller of (*des.Env).Run is a second,
// hand-rolled protocol that skips the horizon audit; arm it through
// experiment.Disturbance instead. Calls are resolved by type, so another
// type's Run method does not trip the gate.
func TestOneTrialProtocol(t *testing.T) {
	fset, pkgs := typecheckRepo(t)
	var calls []string
	for _, tp := range pkgs {
		inScope := strings.HasPrefix(tp.dir, "internal/") || strings.HasPrefix(tp.dir, "cmd/") || strings.HasPrefix(tp.dir, "examples/")
		if !inScope || tp.dir == "internal/experiment" {
			continue
		}
		for id, obj := range tp.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Name() != "Run" || fn.Pkg() == nil || fn.Pkg().Path() != modulePath+"/internal/des" {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if pos := fset.Position(id.Pos()); recv != nil && recvName(recv.Type()) == "Env" && !strings.HasSuffix(pos.Filename, "_test.go") {
				calls = append(calls, pos.String())
			}
		}
	}
	sort.Strings(calls)
	if len(calls) > 0 {
		t.Errorf("%d non-test calls of (*des.Env).Run outside internal/experiment; run the trial through experiment.Run or experiment.RunDisturbed:\n%s",
			len(calls), strings.Join(calls, "\n"))
	}
}

// recvName names a method's receiver type without its package or pointer.
func recvName(recv types.Type) string {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok {
		return n.Obj().Name()
	}
	return recv.String()
}

// singleValuedAllowed are the settings TestNoUnsetSettings lets have one
// value in sight, unset or one constant, each with the reason it stays a
// field.
var singleValuedAllowed = map[string]string{
	"internal/rubbos.ClientConfig.Patience": "experiment.RunConfig has no Patience, so every trial's Result.Abandoned, " +
		"the sweep CSV's abandoned column and ntier sweep's abandoned-sessions row read 0; " +
		"only rubbos tests set it, and the benchmark's bench/campaign.go reads Result.Abandoned",
	"internal/experiment.ScenarioConfig.Elastic": "the scenario-elastic-brownout pin runs it",
	"internal/chaos.GenConfig.MinSpeed":          "the chaos fingerprint images GenConfig",
	"internal/chaos.GenConfig.MaxSpeed":          "the chaos fingerprint images GenConfig",
	"internal/chaos.GenConfig.MaxExtra":          "the chaos fingerprint images GenConfig",
	"internal/testbed.Options.TuneTomcat":        "tests inject panics through it",
	"internal/tier.ResilienceConfig.Backlog": "two values in use: 0 (unbounded) in DefaultResilienceConfig, " +
		"which the gate cannot see, and 128 in experiment.OverloadProtection",
	"internal/tier.ResilienceConfig.Admission": "two values in use: false in DefaultResilienceConfig, " +
		"which the gate cannot see, and true in experiment.OverloadProtection",
	"internal/tier.TomcatConfig.CtxSwitchCoeff": "a mechanisms-off oracle must zero it, " +
		"as the thrash ablation zeroes C-JDBC's (ROADMAP item 7)",
}

// TestNoUnsetSettings is the single-valued-settings gate. An exported
// named field of a struct type named *Config or *Options in internal/ is a
// setting. One that no non-test Go file writes (bench/, cmd/ and examples/
// included) has one value, and so has one whose every such write stores
// the same constant: each should be a constant. A write is a
// composite-literal key, an assignment or increment of the field or of a
// field inside it, or taking its address (as flag.DurationVar does); only
// a plain assignment or a composite-literal key of a constant expression
// stores a constant. Writes in the declaring type's own methods, such as
// the defaults it fills in, do not count; writes in Default* constructors
// do. A positional composite literal is not counted as a write, so it
// reads as a false alarm, never a silent pass; nor is a field a keyed
// literal leaves zero, so a setting whose other value in use is that zero
// needs its allowlist entry.
func TestNoUnsetSettings(t *testing.T) {
	fset, pkgs := typecheckRepo(t)
	test := func(pos token.Pos) bool { return strings.HasSuffix(fset.Position(pos).Filename, "_test.go") }
	type setting struct {
		owner    *types.TypeName
		key, pos string // key is "internal/pkg.Type.Field"
	}
	settings := map[*types.Var]setting{}
	type write struct {
		field *types.Var
		in    *types.TypeName // receiver type of the enclosing method, if any
		val   constant.Value  // the constant stored, nil for any other write
	}
	var writes []write
	for _, tp := range pkgs {
		for _, f := range tp.files {
			if test(f.Pos()) {
				continue
			}
			if strings.HasPrefix(tp.dir, "internal/") {
				for _, d := range f.Decls {
					gd, ok := d.(*ast.GenDecl)
					if !ok || gd.Tok != token.TYPE {
						continue
					}
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						st, ok := ts.Type.(*ast.StructType)
						if !ok || !strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
							continue
						}
						owner := tp.info.Defs[ts.Name].(*types.TypeName)
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								if id.IsExported() {
									settings[tp.info.Defs[id].(*types.Var)] = setting{owner,
										tp.dir + "." + ts.Name.Name + "." + id.Name, fset.Position(id.Pos()).String()}
								}
							}
						}
					}
				}
			}
			var in *types.TypeName
			// chain marks the field x.F selects, storing val, and each
			// field x's own selection chain passes through, which the write
			// changes in part.
			var chain func(e ast.Expr, val constant.Value)
			chain = func(e ast.Expr, val constant.Value) {
				for {
					switch x := e.(type) {
					case *ast.ParenExpr:
						e = x.X
						continue
					case *ast.SelectorExpr:
						if v, ok := tp.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
							writes = append(writes, write{v, in, val})
						}
						e, val = x.X, nil
						continue
					}
					return
				}
			}
			for _, d := range f.Decls {
				in = nil
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					if fn, ok := tp.info.Defs[fd.Name].(*types.Func); ok {
						in = recvTypeName(fn.Type().(*types.Signature).Recv().Type())
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						for i, lhs := range x.Lhs {
							var val constant.Value
							if x.Tok == token.ASSIGN && len(x.Rhs) == len(x.Lhs) {
								val = tp.info.Types[x.Rhs[i]].Value
							}
							chain(lhs, val)
						}
					case *ast.IncDecStmt:
						chain(x.X, nil)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							chain(x.X, nil)
						}
					case *ast.KeyValueExpr:
						if id, ok := x.Key.(*ast.Ident); ok {
							if v, ok := tp.info.Uses[id].(*types.Var); ok && v.IsField() {
								writes = append(writes, write{v, in, tp.info.Types[x.Value].Value})
							}
						}
					}
					return true
				})
			}
		}
	}
	set := map[*types.Var]bool{}
	stored := map[*types.Var]constant.Value{} // the one constant every write stores
	varied := map[*types.Var]bool{}
	for _, w := range writes {
		s, ok := settings[w.field]
		if !ok || s.owner == w.in {
			continue
		}
		set[w.field] = true
		switch c, seen := stored[w.field]; {
		case w.val == nil:
			varied[w.field] = true
		case !seen:
			stored[w.field] = w.val
		case !constant.Compare(c, token.EQL, w.val):
			varied[w.field] = true
		}
	}
	var unset, single []string
	allowed := 0
	for v, s := range settings {
		switch _, ok := singleValuedAllowed[s.key]; {
		case set[v] && varied[v]:
		case ok:
			allowed++
		case set[v]:
			single = append(single, fmt.Sprintf("%s: %s = %s", s.pos, s.key, stored[v]))
		default:
			unset = append(unset, s.pos+": "+s.key)
		}
	}
	if allowed != len(singleValuedAllowed) {
		t.Errorf("%d of the %d allowlisted settings have one value; drop the allowlist entries that vary or are gone",
			allowed, len(singleValuedAllowed))
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d of %d settings are written by no non-test Go file outside their own type's methods; make each a constant:\n%s",
			len(unset), len(settings), strings.Join(unset, "\n"))
	}
	sort.Strings(single)
	if len(single) > 0 {
		t.Errorf("%d of %d settings are given one constant by every non-test Go file outside their own type's methods; make each a constant:\n%s",
			len(single), len(settings), strings.Join(single, "\n"))
	}
	t.Logf("%d settings", len(settings))
}

// recvTypeName is a method receiver's named type.
func recvTypeName(recv types.Type) *types.TypeName {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// imageTypes are the journal images that metrics.Sample, metrics.Histogram
// and sla.Collector embed: unexported structs that encoding/json writes
// directly, so their exported fields are promoted.
var imageTypes = []string{"internal/metrics.sampleJSON", "internal/metrics.histogramJSON", "internal/sla.collectorJSON"}

// TestNoForeignImageFields keeps the promoted fields of the journal images
// (imageTypes) in their own packages: another package could write c.Good
// or s.Sorted, and a write to Sorted would corrupt Percentile. No non-test
// Go file outside the declaring package may select one of those fields.
func TestNoForeignImageFields(t *testing.T) {
	fset, pkgs := typecheckRepo(t)
	test := func(pos token.Pos) bool { return strings.HasSuffix(fset.Position(pos).Filename, "_test.go") }
	image := map[string]bool{}
	for _, name := range imageTypes {
		image[name] = true
	}
	fields := map[*types.Var]string{} // field -> "internal/pkg.type.Field"
	for _, tp := range pkgs {
		for id, obj := range tp.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || test(id.Pos()) || !image[tp.dir+"."+tn.Name()] {
				continue
			}
			delete(image, tp.dir+"."+tn.Name())
			st := tn.Type().Underlying().(*types.Struct)
			for i := range st.NumFields() {
				fields[st.Field(i)] = tp.dir + "." + tn.Name() + "." + st.Field(i).Name()
			}
		}
	}
	if len(image) > 0 {
		t.Errorf("image types not found, drop them from imageTypes: %v", image)
	}
	var foreign []string
	for _, tp := range pkgs {
		for id, obj := range tp.info.Uses {
			v, ok := obj.(*types.Var)
			if !ok || test(id.Pos()) {
				continue
			}
			if name, ok := fields[v]; ok {
				if dir, _ := repoDir(v.Pkg().Path()); dir != tp.dir {
					foreign = append(foreign, fmt.Sprintf("%s: %s", fset.Position(id.Pos()), name))
				}
			}
		}
	}
	sort.Strings(foreign)
	if len(foreign) > 0 {
		t.Errorf("%d selections of a journal image's field outside its package; use the type's methods:\n%s",
			len(foreign), strings.Join(foreign, "\n"))
	}
}
