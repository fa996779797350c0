package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadErrors pins that a unit which does not type-check is a load
// error naming the cause, not a partly checked unit the analyzers would
// quietly miss things in.
func TestLoadErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unresolvable import", "package a\n\nimport _ \"no/such/pkg\"\n", "no/such/pkg"},
		{"type error", "package a\n\nvar X int = \"s\"\n", "cannot use \"s\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			pkg, err := LoadDir(dir, "a")
			if err == nil {
				t.Fatalf("LoadDir returned %v and no error", pkg.Types)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
