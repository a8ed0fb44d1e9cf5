package ntier_test

// Flag-wiring gate: every trial-running command must expose the shared
// execution-control flags (-parallel, -state-dir, -resume, -trial-timeout,
// -obs) with identical usage text. The single source of that text is
// cli.RegisterCommonFlags, so the gate checks (a) every command calls it,
// and (b) no command re-declares one of the shared names inline, where its
// usage could drift. Commands that run no trials may exempt themselves by
// documenting it in their source ("exempt from cli.RegisterCommonFlags"):
// ntier-report, which also uses -obs as an input directory.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// commonFlagNames are the shared names owned by cli.RegisterCommonFlags.
var commonFlagNames = map[string]bool{
	"parallel":      true,
	"state-dir":     true,
	"resume":        true,
	"trial-timeout": true,
	"obs":           true,
}

func TestCommandsWireCommonFlags(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no commands under cmd/")
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, filepath.Join("cmd", name), func(fi os.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			registers := false
			var inline []string
			for _, pkg := range pkgs {
				for _, file := range pkg.Files {
					ast.Inspect(file, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						sel, ok := call.Fun.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						recv, ok := sel.X.(*ast.Ident)
						if !ok {
							return true
						}
						if recv.Name == "cli" && sel.Sel.Name == "RegisterCommonFlags" {
							registers = true
						}
						// fs.String("state-dir", ...) and friends: a shared
						// name declared inline can drift from the canonical
						// usage text.
						if isFlagDecl(sel.Sel.Name) && len(call.Args) > 0 {
							if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
								if fname, err := strconv.Unquote(lit.Value); err == nil && commonFlagNames[fname] {
									inline = append(inline, fname)
								}
							}
						}
						return true
					})
				}
			}
			src, err := os.ReadFile(filepath.Join("cmd", name, "main.go"))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "exempt from cli.RegisterCommonFlags") {
				// A documented exemption: the command runs no trials, so
				// it must not declare any of the shared names inline
				// either (ntier-report's -obs input directory is the one
				// allowed overlap).
				for _, fname := range inline {
					if name == "ntier-report" && fname == "obs" {
						continue
					}
					t.Errorf("%s declares shared flag -%s inline; use cli.RegisterCommonFlags", name, fname)
				}
				return
			}
			if !registers {
				t.Errorf("%s does not call cli.RegisterCommonFlags; every trial-running command must expose the shared execution-control flags", name)
			}
			for _, fname := range inline {
				t.Errorf("%s re-declares shared flag -%s inline; its usage text can drift from the canonical one", name, fname)
			}
		})
	}
}

// isFlagDecl reports whether a method name is one of flag.FlagSet's
// flag-declaring constructors.
func isFlagDecl(name string) bool {
	switch name {
	case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration",
		"StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "DurationVar":
		return true
	}
	return false
}
