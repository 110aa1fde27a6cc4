package diversecast_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExistingPaths: every cmd/, internal/, examples/ and
// perfbench/ path the top-level docs name must exist, so deleting a
// package or tool cannot leave a doc pointing at it. A trailing
// .Identifier (internal/baseline.Exhaustive) names a symbol of the
// package before it.
func TestDocsNameExistingPaths(t *testing.T) {
	pathRE := regexp.MustCompile(`\b(?:cmd|internal|examples|perfbench)/[A-Za-z0-9_./-]*`)
	symbolRE := regexp.MustCompile(`\.[A-Z][A-Za-z0-9_]*$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
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
