package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one lint unit: a module package (augmented with its in-package
// test files, mirroring how `go test` compiles them together), or the
// external _test package of a directory.
type Package struct {
	// Path is the import path ("dime/internal/core"); external test packages
	// carry a ".test" suffix for display.
	Path string
	// Dir is the absolute directory.
	Dir string
	// Module is the module path from go.mod ("dime").
	Module string
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Files holds the parsed files, sorted by file name.
	Files []*ast.File
	// Info holds type-check results. Analyzers must tolerate missing entries:
	// a package with type errors is still linted on a best-effort basis.
	Info *types.Info
	// Types is the checked package object.
	Types *types.Package
	// TypeErrors collects type-check errors (informational; Load only fails
	// on parse errors and I/O problems).
	TypeErrors []error
}

// Load parses and type-checks every package under root (the module root or a
// subdirectory containing go.mod further up). Patterns follow a small subset
// of the go tool's syntax: "./..." loads the whole module, "./dir" or
// "./dir/..." load a directory (recursively with "/..."). Unlike the go
// tool, a recursive pattern does not stop at a nested go.mod: "./..." also
// walks nested modules such as bench/ (module dime/bench), whose packages
// resolve as module-relative paths of the enclosing module.
//
// Mirroring the go tool's compilation model, imports resolve to the package
// built from non-test files only; the returned lint units additionally
// type-check each package together with its in-package _test.go files, and
// external _test packages as their own unit, so test code is linted too.
// Standard-library imports are type-checked from GOROOT source via
// go/importer — no toolchain invocation, no x/tools.
func Load(root string, patterns []string) ([]*Package, error) {
	modRoot, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}
	dirs, err := selectDirs(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:    token.NewFileSet(),
		modRoot: modRoot,
		modPath: modPath,
		parsed:  map[string]*dirFiles{},
		imports: map[string]*importable{},
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)

	var pkgs []*Package
	for _, dir := range dirs {
		units, err := ld.lintUnits(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// inModule reports whether the package path belongs to the module (as
// opposed to the standard library).
func inModule(path, module string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

// selectDirs expands patterns into package directories (directories holding
// at least one .go file).
func selectDirs(modRoot string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(modRoot, pat)
		}
		if !recursive {
			add(filepath.Clean(base))
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// dirFiles is the parse result of one directory, split the way the go tool
// splits compilation units.
type dirFiles struct {
	base    []*ast.File // non-test files
	inTests []*ast.File // _test.go files in the same package
	xtests  []*ast.File // _test.go files in the external _test package
}

// importable memoizes the base-only (no test files) type-check of a
// directory — the unit other packages import.
type importable struct {
	pkg      *types.Package
	err      error
	checking bool // cycle guard
}

type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	parsed  map[string]*dirFiles
	imports map[string]*importable
}

// Import implements types.Importer: module-local paths resolve to the
// base-only package built from source within the module; everything else is
// delegated to the standard-library source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if inModule(path, ld.modPath) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, ld.modPath), "/")
		return ld.importBase(filepath.Join(ld.modRoot, filepath.FromSlash(rel)))
	}
	return ld.std.Import(path)
}

// importBase type-checks (and memoizes) the non-test files of dir.
func (ld *loader) importBase(dir string) (*types.Package, error) {
	dir = filepath.Clean(dir)
	if imp, ok := ld.imports[dir]; ok {
		if imp.checking {
			return nil, fmt.Errorf("lint: import cycle through %s", dir)
		}
		return imp.pkg, imp.err
	}
	imp := &importable{checking: true}
	ld.imports[dir] = imp
	defer func() { imp.checking = false }()

	files, err := ld.parseDir(dir)
	if err != nil {
		imp.err = err
		return nil, err
	}
	if len(files.base) == 0 {
		imp.err = fmt.Errorf("lint: no non-test Go files in %s", dir)
		return nil, imp.err
	}
	unit := ld.check(ld.importPathFor(dir), dir, files.base)
	imp.pkg = unit.Types
	return imp.pkg, nil
}

// lintUnits builds the units linted for one directory: the package together
// with its in-package test files, and the external test package if any.
func (ld *loader) lintUnits(dir string) ([]*Package, error) {
	dir = filepath.Clean(dir)
	files, err := ld.parseDir(dir)
	if err != nil {
		return nil, err
	}
	importPath := ld.importPathFor(dir)
	var units []*Package
	if len(files.base) > 0 {
		// Resolve the importable package first so augmented units see the
		// same dependency universe other packages import.
		if _, err := ld.importBase(dir); err != nil {
			return nil, err
		}
		units = append(units, ld.check(importPath, dir, append(append([]*ast.File{}, files.base...), files.inTests...)))
	}
	if len(files.xtests) > 0 {
		units = append(units, ld.check(importPath+".test", dir, files.xtests))
	}
	return units, nil
}

// parseDir parses every .go file of dir once, splitting base, in-package
// test and external test files.
func (ld *loader) parseDir(dir string) (*dirFiles, error) {
	if f, ok := ld.parsed[dir]; ok {
		return f, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	files := &dirFiles{}
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			files.xtests = append(files.xtests, f)
		case strings.HasSuffix(name, "_test.go"):
			files.inTests = append(files.inTests, f)
		default:
			files.base = append(files.base, f)
		}
	}
	ld.parsed[dir] = files
	return files, nil
}

func (ld *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(ld.modRoot, dir)
	if err != nil || rel == "." {
		return ld.modPath
	}
	return ld.modPath + "/" + filepath.ToSlash(rel)
}

// check type-checks one unit. Type errors are collected, not fatal: the
// analyzers run best-effort on whatever Info was produced.
func (ld *loader) check(path, dir string, files []*ast.File) *Package {
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Module: ld.modPath,
		Fset:   ld.fset,
		Files:  files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(strings.TrimSuffix(path, ".test"), ld.fset, files, pkg.Info)
	pkg.Types = tpkg
	return pkg
}
