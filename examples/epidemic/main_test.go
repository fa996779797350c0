package main

import (
	"strings"
	"testing"
)

// TestOutput pins the demo's whole output: the SQL trace over the
// relational snapshots, both attack rates, the day Algorithm 1 fires
// and the final state counts are all functions of the fixed seeds.
func TestOutput(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	const want = `day  20:  517 infectious (SQL over relational snapshot)
day  40:  262 infectious (SQL over relational snapshot)
day  60:    1 infectious (SQL over relational snapshot)
day  80:    0 infectious (SQL over relational snapshot)
day 100:    0 infectious (SQL over relational snapshot)
day 120:    0 infectious (SQL over relational snapshot)

attack rate without intervention: 99.6%
attack rate with Algorithm 1:     93.5%
preschool vaccination triggered on day 5
final states: S=35 E=0 I=0 R=4677 V=288
`
	if got := b.String(); got != want {
		t.Errorf("output changed:\n%s\nwant:\n%s", got, want)
	}
}
