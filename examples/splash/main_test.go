package main

import (
	"strings"
	"testing"
)

// TestOutput pins the demo's whole output. Every number is a function
// of fixed seeds. Under -chaos so are the job's counters: the
// injectors decide each attempt's fate from its (stage, task, attempt)
// identity, and a task's attempts run one after another until the
// first success, so how many each task makes depends on nothing else.
func TestOutput(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		var b strings.Builder
		if err := run(&b, chaos); err != nil {
			t.Fatalf("chaos=%v: %v", chaos, err)
		}
		want := plainOutput
		if chaos {
			want += chaosOutput
		}
		if got := b.String(); got != want {
			t.Errorf("chaos=%v: output changed:\n%s\nwant:\n%s", chaos, got, want)
		}
	}
}

const plainOutput = `mismatch detected; synthesized transformation: time-alignment: aggregation

2² factorial over (base_rate, staff):
  rate=-1 staff=-1 → weekly overload 85 patients
  rate=+1 staff=-1 → weekly overload 1542 patients
  rate=-1 staff=+1 → weekly overload 0 patients
  rate=+1 staff=+1 → weekly overload 19 patients
main effects: base_rate +738, staff -804

synthesized model input file:
rate = 4
staff = 5

pilot statistics: c1=50 c2=1 V1=96.6 V2=58.9
optimal replication fraction α* = 0.177  (efficiency gain vs α=1: 1.34×)
budget 5000 work units: 89 M1 runs reused across 503 M2 runs; θ̂ = 2.1
`

const chaosOutput = `
--- chaos mode: alignment under injected faults ---
job survived injected faults: splits=335 mapOut=1339 shuffle=48204B groups=1339 out=1339
  mapreduce.shuffle_bytes          48204
  parallel.iterations              339
  task.attempts                    504
  task.backoff_ns                  166000000
  task.retries                     165
output identical to failure-free run across 1339 aligned points ✓
`
