package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutationCorpusApplies keeps the seeded-bug corpus in step with
// the tree: the pre-image of every hunk of every patch under
// testdata/mutations (its context and removed lines, in order) must
// still occur in the file the patch names. A refactor that moves a
// seeded site fails here, instead of leaving run.sh to report "does
// not apply" the next time someone asks which analyzers earn their
// keep.
func TestMutationCorpusApplies(t *testing.T) {
	patches, err := filepath.Glob("testdata/mutations/*.patch")
	if err != nil || len(patches) == 0 {
		t.Fatalf("no corpus patches found (err %v)", err)
	}
	for _, p := range patches {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var file string
		var pre []string
		check := func() {
			if len(pre) == 0 {
				return
			}
			src, err := os.ReadFile(filepath.Join("..", "..", file))
			if err != nil {
				t.Errorf("%s: %v", filepath.Base(p), err)
			} else if !strings.Contains(string(src), strings.Join(pre, "\n")+"\n") {
				t.Errorf("%s: a hunk no longer matches %s; regenerate the seed against the current tree", filepath.Base(p), file)
			}
			pre = nil
		}
		for _, line := range strings.Split(string(data), "\n") {
			switch {
			case strings.HasPrefix(line, "diff --git "):
				check()
				file = ""
			case strings.HasPrefix(line, "+++ b/"):
				file = strings.TrimPrefix(line, "+++ b/")
			case strings.HasPrefix(line, "@@"):
				check()
			case file != "" && (strings.HasPrefix(line, " ") || strings.HasPrefix(line, "-")):
				pre = append(pre, line[1:])
			}
		}
		check()
	}
}
