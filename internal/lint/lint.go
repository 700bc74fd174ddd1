// Package lint is the repository's invariant analyzer suite: a small,
// stdlib-only static-analysis framework (go/ast + go/parser + go/types,
// the same zero-dependency constraint cmd/doclint satisfies) plus the
// repo-specific analyzers that mechanically enforce the concurrency and
// pooling contracts documented in docs/ANALYSIS.md:
//
//   - lockorder: mutex acquisitions must respect the partial order
//     declared with //lint:lockorder directives, and every Lock must be
//     released on every return path.
//   - poolescape: values obtained from a sync.Pool (or a trivial pool
//     accessor) must not outlive the call that got them — no stores into
//     struct fields, package variables or channels, no returns and no
//     goroutine captures; broker-owned handler readings obey the same
//     rule.
//   - batchinsert: per-batch InsertBatch calls inside loops are flagged
//     when the receiver offers InsertBatches.
//
// Findings print vet-style (file:line:col) through cmd/invlint, which
// runs as `make lint` inside `make ci`. A finding is suppressed with an
// inline directive on the same line or the line directly above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory: suppressions double as documentation of why
// the invariant is safe to break at that site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one invariant violation, positioned at the offending
// expression or statement.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding vet-style.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one module-wide invariant check.
type Analyzer struct {
	// Name is the short identifier used in output and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run reports every violation found in the module.
	Run func(m *Module) []Finding
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockOrder(),
		PoolEscape(),
		BatchInsert(),
	}
}

// RunAll executes every analyzer, drops findings suppressed by ignore
// directives, and returns the rest sorted by position.
func RunAll(m *Module, analyzers []*Analyzer) []Finding {
	var out []Finding
	ignores := collectIgnores(m)
	for _, a := range analyzers {
		for _, f := range a.Run(m) {
			if ignores.suppressed(f) {
				continue
			}
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignoreKey locates one suppression: a file, a line and the analyzer it
// silences.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// ignoreSet indexes every //lint:ignore directive in the module.
type ignoreSet map[ignoreKey]bool

// suppressed reports whether a directive on the finding's line, or on
// the line directly above it, names the finding's analyzer.
func (s ignoreSet) suppressed(f Finding) bool {
	return s[ignoreKey{f.Pos.Filename, f.Pos.Line, f.Analyzer}] ||
		s[ignoreKey{f.Pos.Filename, f.Pos.Line - 1, f.Analyzer}]
}

// collectIgnores parses the //lint:ignore directives of every file. A
// directive must carry a reason after the analyzer list; a bare
// suppression is itself reported by cmd/invlint via BadDirectives.
func collectIgnores(m *Module) ignoreSet {
	set := ignoreSet{}
	for _, d := range directives(m, "ignore") {
		fields := strings.Fields(d.args)
		if len(fields) < 2 {
			continue // malformed; surfaced by BadDirectives
		}
		for _, name := range strings.Split(fields[0], ",") {
			set[ignoreKey{d.pos.Filename, d.pos.Line, name}] = true
		}
	}
	return set
}

// BadDirectives reports malformed //lint:ignore directives (missing
// analyzer name or missing reason), so a suppression can never silently
// decay into a no-op.
func BadDirectives(m *Module) []Finding {
	var out []Finding
	for _, d := range directives(m, "ignore") {
		if len(strings.Fields(d.args)) < 2 {
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: "directive",
				Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
			})
		}
	}
	return out
}

// directive is one //lint:<verb> comment with its trailing arguments.
type directive struct {
	pos  token.Position
	args string
}

// directives returns every //lint:<verb> comment in the module, in file
// order.
func directives(m *Module, verb string) []directive {
	prefix := "//lint:" + verb
	var out []directive
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, prefix) {
						continue
					}
					rest := c.Text[len(prefix):]
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue // e.g. //lint:ignorefoo
					}
					out = append(out, directive{
						pos:  m.Fset.Position(c.Pos()),
						args: strings.TrimSpace(rest),
					})
				}
			}
		}
	}
	return out
}

// walkFuncs visits every function body in the module: declared functions
// and methods. Function literals are reachable from those bodies; the
// analyzers that need them descend explicitly.
func walkFuncs(m *Module, fn func(pkg *Package, decl *ast.FuncDecl)) {
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					fn(pkg, fd)
				}
			}
		}
	}
}
