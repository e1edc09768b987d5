package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests reads every `go test` command in
// .github/workflows/ci.yml and fails if a -run or -bench alternative, or a
// -fuzz target, matches no function in the packages that command names. A
// pattern that names a deleted or renamed test matches nothing, and go test
// passes on nothing, so without this check a step silently stops testing.
func TestCIPatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	word := regexp.MustCompile(`'[^']*'|"[^"]*"|\S+`)
	funcDecl := regexp.MustCompile(`(?m)^func (\w+)\(`)
	kinds := map[string]string{"-run": "Test|Fuzz|Example", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	commands := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, cmd := range strings.Split(line, "&&") {
			_, args, ok := strings.Cut(cmd, "go test ")
			if !ok {
				continue
			}
			commands++
			var names []string
			patterns := map[string]string{} // flag → pattern
			words := word.FindAllString(args, -1)
			for i, w := range words {
				w = strings.Trim(w, `'"`)
				flag, value, hasValue := strings.Cut(w, "=")
				switch {
				case w == "." || strings.HasPrefix(w, "./"):
					root, recursive := strings.CutSuffix(w, "...")
					root = filepath.Clean(root)
					var files []string
					// Walked as go test walks ./...: no testdata, no . or _ directories.
					filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
						if err != nil || !d.IsDir() {
							return err
						}
						if path != root && (!recursive || d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")) {
							return filepath.SkipDir
						}
						matches, _ := filepath.Glob(filepath.Join(path, "*_test.go"))
						files = append(files, matches...)
						return nil
					})
					if len(files) == 0 {
						t.Errorf("%q names %s, which has no test files", cmd, w)
					}
					for _, f := range files {
						src, err := os.ReadFile(f)
						if err != nil {
							t.Fatal(err)
						}
						for _, m := range funcDecl.FindAllStringSubmatch(string(src), -1) {
							names = append(names, m[1])
						}
					}
				case kinds[flag] != "" && hasValue:
					patterns[flag] = value
				case kinds[w] != "" && i+1 < len(words):
					patterns[w] = strings.Trim(words[i+1], `'"`)
				}
			}
			for flag, pattern := range patterns {
				for _, alt := range alternatives(strings.Split(pattern, "/")[0]) {
					if alt == "" || alt == "^$" {
						continue // selects nothing, on purpose
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%q: %s %q: %v", cmd, flag, alt, err)
						continue
					}
					kind := regexp.MustCompile(`^(` + kinds[flag] + `)`)
					found := false
					for _, n := range names {
						found = found || (kind.MatchString(n) && re.MatchString(n))
					}
					if !found {
						t.Errorf("%q: %s alternative %q matches no %s function in the packages it names", cmd, flag, alt, kinds[flag])
					}
				}
			}
		}
	}
	if commands < 10 {
		t.Fatalf("found %d go test commands in ci.yml; the parser lost the steps", commands)
	}
}

// alternatives splits a regexp at its top-level | (outside parentheses and
// brackets).
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}
