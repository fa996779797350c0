package main

import (
	"strings"
	"testing"
)

// TestOutput pins the demo's whole output: the realization, the
// bundled estimate, the threshold probability and the risk quantile
// are all functions of the fixed seeds.
func TestOutput(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	const want = `one realization of SBP_DATA:
sbp_data (5 rows)
pid:INT | gender:VARCHAR | sbp:FLOAT
0 | M | 106.93872705403521
1 | F | 106.596929634946
2 | M | 90.81422095171669
3 | F | 142.32327733169384
4 | M | 113.14808027732974

male mean SBP across 1000 Monte Carlo worlds: n=1000 mean=119.971 ± 0.2 (95% CI), var=10.45, median=119.944
P(more than 8 hypertensive patients) ≈ 0.005
0.999-quantile of the hypertensive count ≈ 12.1
`
	if got := b.String(); got != want {
		t.Errorf("output changed:\n%s\nwant:\n%s", got, want)
	}
}
