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
//     has a table row there, and every row names a registered series,
//     and
//   - the flag tables in docs/OPERATIONS.md match the daemons: every
//     flag cmd/collectagent and cmd/dcdbpusher register has a row in
//     that binary's section, and every row names a registered flag.
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
	for _, check := range []func() ([]string, error){
		func() ([]string, error) { return catalogFindings(series) },
		flagFindings,
	} {
		fs, err := check()
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
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
	"NewCounterVec": true, "NewHistogramVec": true,
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
		first, ok := firstCell(line)
		if !ok || !strings.HasPrefix(first, "`dcdb_") {
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

// firstCell returns the trimmed first cell of a markdown table row.
func firstCell(line string) (string, bool) {
	cells := strings.Split(line, "|")
	if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
		return "", false
	}
	return strings.TrimSpace(cells[1]), true
}

// operationsPath is the runbook whose flag tables are checked against
// the daemons; flagBinaries are the daemons, each documented under a
// "## <name>" section there.
const operationsPath = "docs/OPERATIONS.md"

var flagBinaries = []string{"collectagent", "dcdbpusher"}

// flagFindings checks each daemon's registered flags against the table
// rows of its OPERATIONS.md section — those whose first cell is a
// backticked "-flag": every flag needs a row, and every row must name a
// registered flag.
func flagFindings() ([]string, error) {
	raw, err := os.ReadFile(operationsPath)
	if err != nil {
		return nil, err
	}
	rows := make(map[string]map[string]int) // section -> flag -> line
	section := ""
	for i, line := range strings.Split(string(raw), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			section = strings.TrimSpace(h)
			continue
		}
		first, ok := firstCell(line)
		if !ok || !strings.HasPrefix(first, "`-") {
			continue
		}
		if rows[section] == nil {
			rows[section] = make(map[string]int)
		}
		rows[section][strings.Trim(first, "`-")] = i + 1
	}
	var findings []string
	for _, bin := range flagBinaries {
		flags, err := registeredFlags(filepath.Join("cmd", bin))
		if err != nil {
			return nil, err
		}
		for name, pos := range flags {
			if _, ok := rows[bin][name]; !ok {
				findings = append(findings, fmt.Sprintf("%s: flag -%s has no row in %s section %q", pos, name, operationsPath, bin))
			}
		}
		for name, line := range rows[bin] {
			if _, ok := flags[name]; !ok {
				findings = append(findings, fmt.Sprintf("%s:%d: row names -%s, which cmd/%s does not register", operationsPath, line, name, bin))
			}
		}
	}
	return findings, nil
}

// registeredFlags returns where the non-test code of one command
// registers each flag: a call flag.X("name", ...) — or, for the
// flag.XVar forms, flag.XVar(p, "name", ...).
func registeredFlags(dir string) (map[string]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	flags := make(map[string]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
					return true
				}
				arg := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1
				}
				if len(call.Args) <= arg {
					return true
				}
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = fset.Position(lit.Pos()).String()
					}
				}
				return true
			})
		}
	}
	return flags, nil
}
