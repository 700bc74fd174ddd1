package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFixtures drives every analyzer over its golden fixture package
// under testdata/. Expectations live in the fixtures themselves as
//
//	expr // want "regexp"
//
// comments: every finding must land on a line carrying a want comment
// whose pattern matches the message, and every want must be matched by
// exactly one finding. The variant `// want-above "regexp"` anchors the
// expectation to the preceding line, for findings positioned on comment
// directives. Lines without a want comment must stay clean.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir       string
		analyzers []*Analyzer
	}{
		{"lockorder", []*Analyzer{LockOrder()}},
		{"poolescape", []*Analyzer{PoolEscape()}},
		{"batchinsert", []*Analyzer{BatchInsert()}},
		// The directive fixture runs the full suite plus the malformed-
		// directive check, proving suppression end to end.
		{"directives", Analyzers()},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			root := filepath.Join("testdata", tc.dir)
			m, err := Load(root, nil)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			findings := RunAll(m, tc.analyzers)
			findings = append(findings, BadDirectives(m)...)
			checkWants(t, root, findings)
		})
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want(-above)? "((?:[^"\\]|\\.)*)"`)

// parseWants scans the fixture directory's Go files for want comments.
func parseWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(root, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, match := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(match[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, match[2], err)
				}
				at := line
				if match[1] == "-above" {
					at = line - 1
				}
				wants = append(wants, &want{file: e.Name(), line: at, pattern: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// checkWants matches findings against expectations one-to-one.
func checkWants(t *testing.T, root string, findings []Finding) {
	t.Helper()
	wants := parseWants(t, root)
	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == base && w.line == f.Pos.Line && w.pattern.MatchString(f.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", filepath.Join(root, w.file), w.line, w.pattern)
		}
	}
}
