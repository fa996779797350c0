package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modeldata/internal/lint/suite"
)

// writeModule lays down a one-package module under a temp dir and
// returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module lintcheck.test\n\ngo 1.22\n"}
	for name, content := range files {
		all[name] = content
	}
	for name, content := range all {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestExitCodeContract pins the 0/1/2 contract: clean module, module
// with a diagnostic, unloadable pattern, unknown flag.
func TestExitCodeContract(t *testing.T) {
	clean := writeModule(t, map[string]string{
		"a.go": "package a\n\nfunc A() int { return 1 }\n",
	})
	dirty := writeModule(t, map[string]string{
		"a.go": "package a\n\nimport \"errors\"\n\nfunc fail() error { return errors.New(\"x\") }\n\nfunc A() { _ = fail() }\n",
	})

	cases := []struct {
		name string
		dir  string
		args []string
		want int
	}{
		{"clean module exits 0", clean, []string{"./..."}, 0},
		{"diagnostics exit 1", dirty, []string{"./..."}, 1},
		{"load failure exits 2", clean, []string{"./no/such/dir"}, 2},
		{"unknown flag exits 2", clean, []string{"-diff", "./..."}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.dir, tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
					tc.args, got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestListFlag pins -list as a machine-readable roster: one analyzer
// name per line, in suite order, exit 0.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run(".", []string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run(-list) = %d, want 0; stderr: %s", got, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	all := suite.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(all), stdout.String())
	}
	for i, a := range all {
		if lines[i] != a.Name {
			t.Errorf("-list line %d = %q, want %q", i, lines[i], a.Name)
		}
	}
}
