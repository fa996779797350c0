package modeldata_test

// The repository's own determinism and service lint suite, run over the
// whole module as a test. This is the programmatic twin of
// `go run ./cmd/modeldatalint ./...`: any unsuppressed diagnostic from
// the six analyzers fails the build, and so does a `//lint:allow` that
// suppresses nothing. New code either satisfies the invariants or
// carries an explicit `//lint:allow <rule> <reason>` justification
// reviewers can see.

import (
	"testing"

	"modeldata/internal/lint"
	"modeldata/internal/lint/suite"
)

// TestSuiteComplete pins the analyzer roster: the sweep below only
// proves cleanliness for rules that actually ran, so a rule silently
// dropped from the suite would otherwise un-enforce its invariant
// without any test noticing.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"ctxplumb", "maporder", "rngsource",
		"boundedgrowth", "ctxhttp", "errdrop",
	}
	all := suite.All()
	if len(all) != len(want) {
		t.Fatalf("suite.All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("suite.All()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}

func TestRepositoryLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lint sweep type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	findings, err := lint.RunAnalyzers(pkgs, suite.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s: [%s] %s", f.Position, f.Rule, f.Message)
	}
	if len(findings) > 0 {
		t.Logf("%d unsuppressed diagnostics; fix the code or add `//lint:allow <rule> <reason>` where the exact behavior is intentional", len(findings))
	}
}
