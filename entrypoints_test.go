package cxlsim_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEveryCommandIsTested fails when a package main directory of this
// module has no _test.go file: every entry point is pinned by a test or
// deleted. Nested modules (bench/cxlperf), testdata and dot-directories
// are not part of the module's packages and are skipped.
func TestEveryCommandIsTested(t *testing.T) {
	mains, tested := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, "_test.go"):
			tested[filepath.Dir(path)] = true
		case strings.HasSuffix(path, ".go"):
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
			if err != nil {
				return err
			}
			if f.Name.Name == "main" {
				mains[filepath.Dir(path)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("found no package main directory; is the walk rooted at the module?")
	}
	var untested []string
	for dir := range mains {
		if !tested[dir] {
			untested = append(untested, dir)
		}
	}
	sort.Strings(untested)
	for _, dir := range untested {
		t.Errorf("%s is a package main with no _test.go: pin it with a test or delete it", dir)
	}
}

// TestDesignNamesExistingDirs fails when DESIGN.md names an internal/<pkg>
// or cmd/<cmd> directory that does not exist, so the inventory cannot
// point readers at deleted or never-written code.
func TestDesignNamesExistingDirs(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`\b(?:internal|cmd)/[a-z0-9_]+`).FindAllString(string(doc), -1)
	if len(named) == 0 {
		t.Fatal("DESIGN.md names no internal/ or cmd/ directory; did the pattern or the file change?")
	}
	seen := map[string]bool{}
	for _, dir := range named {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("DESIGN.md names %s, which is not a directory of this module", dir)
		}
	}
}
