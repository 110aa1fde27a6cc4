package diversecast_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// topDocs are the documents the docs gates read.
var topDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// TestDocsNameExistingPaths: every cmd/, internal/, examples/ and
// perfbench/ path the top-level docs name must exist, so deleting a
// package or tool cannot leave a doc pointing at it. A trailing
// .Identifier (internal/baseline.Exhaustive) names a symbol of the
// package before it.
func TestDocsNameExistingPaths(t *testing.T) {
	pathRE := regexp.MustCompile(`\b(?:cmd|internal|examples|perfbench)/[A-Za-z0-9_./-]*`)
	symbolRE := regexp.MustCompile(`\.[A-Z][A-Za-z0-9_]*$`)
	for _, doc := range topDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, m := range pathRE.FindAllString(string(b), -1) {
			p := symbolRE.ReplaceAllString(strings.TrimRight(m, "."), "")
			if seen[p] {
				continue
			}
			seen[p] = true
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, m)
			}
		}
	}
}

// TestDocsFlagsExist: every -flag in a tool invocation the top-level
// docs show must be defined by that tool, so deleting a flag cannot
// leave a doc running it. An invocation is a backticked span that
// starts with a tool's name, or the rest of a line after
// "go run ./cmd/<tool>". A flag is defined when its name is the name
// literal of a flag definition in cmd/<tool> or internal/cli.
func TestDocsFlagsExist(t *testing.T) {
	tools := []string{"bcastsim", "bcastexp", "bcastgen", "bcastserver", "bcastclient", "bcastbench", "diverselint"}
	defRE := regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var)(?:Var)?\((?:&[^,()]+,\s*)?"([^"]+)"`)
	defined := make(map[string]map[string]bool)
	for _, tool := range tools {
		files, err := filepath.Glob(filepath.Join("cmd", tool, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for cmd/%s (err %v)", tool, err)
		}
		cli, err := filepath.Glob(filepath.Join("internal", "cli", "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined[tool] = make(map[string]bool)
		for _, f := range append(files, cli...) {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range defRE.FindAllStringSubmatch(string(b), -1) {
				defined[tool][m[1]] = true
			}
		}
	}

	alt := strings.Join(tools, "|")
	spanRE := regexp.MustCompile("`(" + alt + ")((?:\\s[^`\n]*)?)`")
	goRunRE := regexp.MustCompile(`go run \./cmd/(` + alt + ")((?:\\s[^`\n#]*)?)")
	flagRE := regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	for _, doc := range topDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, re := range []*regexp.Regexp{spanRE, goRunRE} {
			for _, m := range re.FindAllStringSubmatch(text, -1) {
				for _, f := range flagRE.FindAllStringSubmatch(m[2], -1) {
					if !defined[m[1]][f[1]] {
						t.Errorf("%s runs %q, but %s defines no -%s", doc, strings.TrimSpace(m[0]), m[1], f[1])
					}
				}
			}
		}
	}
}
