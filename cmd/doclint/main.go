// Command doclint enforces the repository's documentation contract in
// `make ci` (a go-vet-style check, no external dependencies):
//
//   - every package under internal/ carries a package doc comment
//     ("// Package xxx ..."), and
//   - the public surfaces listed in surfaceDirs (cache, collect, store,
//     tsdb, core and transport — the packages other components program
//     against)
//     document every exported symbol: types, functions, methods on
//     exported types, and exported const/var specs (a doc comment on
//     the enclosing const/var block covers the whole block), and
//   - the metric catalog in docs/OBSERVABILITY.md matches the code:
//     every "dcdb_…" series registered by non-test code under internal/
//     has a table row there, and every row names a registered series.
//
// Findings print as file:line messages; any finding fails the run.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// surfaceDirs are the packages whose exported symbols must all carry
// doc comments. internal/core/units rides along with core: operator
// plugins program directly against it; cache and collect joined when
// they became the sink and agent surfaces other components consume;
// resultcache joined when the serving tier started programming against
// its invalidation protocol.
var surfaceDirs = []string{
	"internal/cache",
	"internal/collect",
	"internal/store",
	"internal/tsdb",
	"internal/core",
	"internal/core/units",
	"internal/resultcache",
	"internal/telemetry",
	"internal/transport",
}

func main() {
	var findings []string
	pkgDirs, err := goPackageDirs("internal")
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	surface := make(map[string]bool, len(surfaceDirs))
	for _, d := range surfaceDirs {
		surface[filepath.Clean(d)] = true
	}
	series := make(map[string]string)
	for _, dir := range pkgDirs {
		fs, err := lintDir(dir, surface[filepath.Clean(dir)], series)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	fs, err := catalogFindings(series)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	findings = append(findings, fs...)
	if len(findings) > 0 {
		sort.Strings(findings)
		for _, f := range findings {
			fmt.Println(f)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// goPackageDirs returns every directory under root containing at least
// one non-test Go file.
func goPackageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// lintDir checks one package directory: the package doc always, the
// exported surface when surface is set. It records every series the
// package registers in series.
func lintDir(dir string, surface bool, series map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	for name, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasDoc = true
			}
		}
		if !hasDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
		for path, f := range pkg.Files {
			registeredSeries(fset, f, series)
			if surface {
				findings = append(findings, lintFile(fset, path, f)...)
			}
		}
	}
	return findings, nil
}

// lintFile reports every exported top-level symbol of one file that
// lacks a doc comment.
func lintFile(fset *token.FileSet, path string, f *ast.File) []string {
	var findings []string
	report := func(pos token.Pos, what, name string) {
		findings = append(findings,
			fmt.Sprintf("%s: exported %s %s has no doc comment", fset.Position(pos), what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				recv := receiverTypeName(d.Recv)
				if !ast.IsExported(recv) {
					continue // method on an unexported type
				}
				report(d.Pos(), "method", recv+"."+d.Name.Name)
			} else {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil {
						report(ts.Pos(), "type", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				// A doc comment on the block documents every spec in it
				// (the idiomatic shape for enums and sentinel errors).
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, n := range vs.Names {
						if n.IsExported() {
							report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return findings
}

// receiverTypeName unwraps a method receiver to its type name.
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// catalogPath is the metric catalog the registered series are checked
// against.
const catalogPath = "docs/OBSERVABILITY.md"

// registerFuncs are the telemetry.Registry methods that register a
// series under the name given as their first argument.
var registerFuncs = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterFunc": true, "GaugeFunc": true,
	"NewCounterVec": true, "NewGaugeVec": true, "NewHistogramVec": true,
}

// registeredSeries records where f registers each "dcdb_…" series: a
// registerFuncs call whose first argument is that string literal.
func registeredSeries(fset *token.FileSet, f *ast.File, series map[string]string) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		lit, isLit := call.Args[0].(*ast.BasicLit)
		if !ok || !registerFuncs[sel.Sel.Name] || !isLit || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if _, seen := series[name]; err == nil && !seen && strings.HasPrefix(name, "dcdb_") {
			series[name] = fset.Position(lit.Pos()).String()
		}
		return true
	})
}

// catalogFindings checks the registered series against the catalog's
// table rows — those whose first cell is a backticked "dcdb_…" name,
// labels in braces ignored: every registered series needs a row, and
// every row must name a registered series.
func catalogFindings(series map[string]string) ([]string, error) {
	raw, err := os.ReadFile(catalogPath)
	if err != nil {
		return nil, err
	}
	var findings []string
	rows := make(map[string]bool)
	for i, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue
		}
		first := strings.TrimSpace(cells[1])
		if !strings.HasPrefix(first, "`dcdb_") {
			continue
		}
		name, _, _ := strings.Cut(strings.Trim(first, "`"), "{")
		rows[name] = true
		if _, ok := series[name]; !ok {
			findings = append(findings, fmt.Sprintf("%s:%d: catalog row names %s, which nothing registers", catalogPath, i+1, name))
		}
	}
	for name, pos := range series {
		if !rows[name] {
			findings = append(findings, fmt.Sprintf("%s: series %s has no row in %s", pos, name, catalogPath))
		}
	}
	return findings, nil
}
