package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives.
//
// A finding is suppressed by a comment of the form
//
//	//diverselint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either on the flagged line itself (end-of-line comment) or
// on the line immediately above it. The reason is mandatory: an
// ignore without a justification is itself reported as a finding, so
// every suppression in the tree documents why the invariant does not
// apply. The analyzer list may be "all".
//
// The prefix is deliberately not staticcheck's //lint:ignore —
// staticcheck validates the check names in those directives, and the
// two tools run side by side in CI.

// ParseDirective splits a //diverselint:<verb> comment into its verb
// and the text after it. ok is false for every other comment. The
// verb runs to the first space, so //diverselint:hotpathX is the verb
// "hotpathX", not a hotpath directive.
func ParseDirective(c *ast.Comment) (verb, rest string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	text, ok = strings.CutPrefix(text, "diverselint:")
	if !ok {
		return "", "", false
	}
	verb, rest, _ = strings.Cut(text, " ")
	return verb, strings.TrimSpace(rest), true
}

// A Suppression is one parsed //diverselint:ignore directive. The
// driver's -audit mode walks every directive in the module through
// this type; the lint run itself uses the same records keyed by the
// lines they cover.
type Suppression struct {
	Pos       token.Position // of the comment
	Analyzers []string       // as written, in order; may contain "all"
	Reason    string
}

// Matches reports whether the directive covers the named analyzer.
func (s *Suppression) Matches(analyzer string) bool {
	for _, a := range s.Analyzers {
		if a == "all" || a == analyzer {
			return true
		}
	}
	return false
}

// FileSuppressions extracts every ignore directive from a file.
// Malformed directives (no analyzer, or no reason) are returned
// separately so callers can report them.
func FileSuppressions(fset *token.FileSet, f *ast.File) (valid, malformed []Suppression) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			verb, rest, ok := ParseDirective(c)
			if !ok || verb != "ignore" {
				continue
			}
			s := Suppression{Pos: fset.Position(c.Pos())}
			if fields := strings.Fields(rest); len(fields) >= 1 {
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						s.Analyzers = append(s.Analyzers, name)
					}
				}
				s.Reason = strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
			}
			if len(s.Analyzers) == 0 || s.Reason == "" {
				malformed = append(malformed, s)
				continue
			}
			valid = append(valid, s)
		}
	}
	return valid, malformed
}

// parseDirectives keys a file's valid directives by the lines they
// suppress: a directive on line N suppresses findings on line N and
// on line N+1.
func parseDirectives(fset *token.FileSet, f *ast.File) (byLine map[int][]*Suppression, malformed []Suppression) {
	valid, malformed := FileSuppressions(fset, f)
	byLine = make(map[int][]*Suppression)
	for i := range valid {
		s := &valid[i]
		byLine[s.Pos.Line] = append(byLine[s.Pos.Line], s)
		byLine[s.Pos.Line+1] = append(byLine[s.Pos.Line+1], s)
	}
	return byLine, malformed
}
