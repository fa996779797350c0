// Package suite registers the full modeldatalint analyzer set so the
// command-line multichecker and the repo-wide cleanliness test
// (lint_clean_test.go) run exactly the same rules.
package suite

import (
	"modeldata/internal/lint"
	"modeldata/internal/lint/boundedgrowth"
	"modeldata/internal/lint/ctxhttp"
	"modeldata/internal/lint/ctxplumb"
	"modeldata/internal/lint/errdrop"
	"modeldata/internal/lint/maporder"
	"modeldata/internal/lint/rngsource"
)

// All returns every analyzer in the suite, in stable order: the three
// determinism rules first, then the three service-era rules.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		ctxplumb.Analyzer,
		maporder.Analyzer,
		rngsource.Analyzer,
		boundedgrowth.Analyzer,
		ctxhttp.Analyzer,
		errdrop.Analyzer,
	}
}
