package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// A Package is one parsed and type-checked package, ready for
// analyzers to consume.
type Package struct {
	Path  string // import path ("diversecast/internal/core")
	Dir   string // absolute directory
	Files []*ast.File

	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors collects type-checker complaints. The tree is
	// expected to type-check cleanly; the driver surfaces these as
	// warnings so a partially broken package still gets best-effort
	// analysis instead of aborting the run.
	TypeErrors []error
}

// A Loader parses and type-checks packages. Imports inside the target
// tree resolve through Resolve; everything else (the standard
// library) is type-checked from GOROOT source via go/importer, the
// only import mechanism that needs neither export data nor network.
type Loader struct {
	Fset *token.FileSet
	// Resolve maps an import path to its source directory. It
	// returns ok=false for paths outside the target tree (handed to
	// the standard-library importer instead).
	Resolve func(path string) (dir string, ok bool)
	// IncludeTests adds *_test.go files of the package under test
	// (not external _test packages) to the parse set.
	IncludeTests bool
	// GoVersion is the language version for the type checker
	// (e.g. "go1.24"); empty means the toolchain default.
	GoVersion string

	std  types.Importer
	pkgs map[string]*Package
	busy map[string]bool
}

// NewLoader returns a loader resolving in-tree imports via resolve.
func NewLoader(resolve func(string) (string, bool)) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Resolve: resolve,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		busy:    make(map[string]bool),
	}
}

// Load parses and type-checks the package at the given import path
// (which must resolve through l.Resolve), loading in-tree
// dependencies first. Results are cached per path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, ok := l.Resolve(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %q does not resolve to a source directory", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	// Load in-tree dependencies up front so type-checking below only
	// ever sees already-cached packages (the importer func must not
	// recurse into the checker).
	for _, f := range files {
		for _, imp := range f.Imports {
			depPath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if _, inTree := l.Resolve(depPath); inTree && depPath != path {
				if _, err := l.Load(depPath); err != nil {
					return nil, fmt.Errorf("analysis: loading %s (for %s): %w", depPath, path, err)
				}
			}
		}
	}

	pkg := &Package{Path: path, Dir: dir, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		GoVersion: l.GoVersion,
		Importer:  importerFunc(l.importDep),
		Error:     func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns an error when TypeErrors is non-empty; the
	// partially checked package is still usable for analysis.
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.TypesInfo = info
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) importDep(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, inTree := l.Resolve(path); inTree {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// parseDir parses the non-test (plus, optionally, in-package test)
// files of one directory that the go command would build for the host:
// build constraints and _GOOS/_GOARCH file suffixes apply, so a
// per-architecture file and its fallback are never loaded together.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !l.IncludeTests {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		// One package per directory: ignore external test packages
		// ("foo_test") and, should both main and foo coexist, keep
		// the first package name seen.
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// --- module discovery -------------------------------------------------

var (
	moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)
	goLineRE     = regexp.MustCompile(`(?m)^go\s+(\d+\.\d+)`)
)

// A Module locates a Go module on disk: its root directory, module
// path, and declared language version.
type Module struct {
	Root      string
	Path      string
	GoVersion string
}

// FindModule walks up from dir to the enclosing go.mod.
func FindModule(dir string) (*Module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			m := moduleLineRE.FindSubmatch(data)
			if m == nil {
				return nil, fmt.Errorf("analysis: %s/go.mod has no module line", dir)
			}
			mod := &Module{Root: dir, Path: string(m[1])}
			if g := goLineRE.FindSubmatch(data); g != nil {
				mod.GoVersion = "go" + string(g[1])
			}
			return mod, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

// Resolver returns a Loader resolve function mapping the module's own
// import paths to directories under its root.
func (m *Module) Resolver() func(string) (string, bool) {
	return func(path string) (string, bool) {
		if path == m.Path {
			return m.Root, true
		}
		rel, ok := strings.CutPrefix(path, m.Path+"/")
		if !ok {
			return "", false
		}
		dir := filepath.Join(m.Root, filepath.FromSlash(rel))
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return "", false
		}
		return dir, true
	}
}

// skipDir reports whether a directory subtree is invisible to the Go
// toolchain (and therefore to the linter): testdata corpora, VCS
// metadata, vendored or underscore/dot-prefixed trees.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" || name == "node_modules" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// ExpandPatterns turns package patterns ("./...", "./internal/core",
// an import path) into the module's matching import paths, in sorted
// order. Only directories containing at least one non-test Go file
// are returned.
func (m *Module) ExpandPatterns(patterns ...string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			err := filepath.WalkDir(m.Root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				if p != m.Root && skipDir(d.Name()) {
					return filepath.SkipDir
				}
				if !hasGoFiles(p) {
					return nil
				}
				rel, err := filepath.Rel(m.Root, p)
				if err != nil {
					return err
				}
				if rel == "." {
					add(m.Path)
				} else {
					add(m.Path + "/" + filepath.ToSlash(rel))
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
		case strings.HasPrefix(pat, "./"):
			rel := filepath.ToSlash(strings.TrimPrefix(pat, "./"))
			if rel == "" || rel == "." {
				add(m.Path)
			} else {
				add(m.Path + "/" + rel)
			}
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}
