package engine_test

// Operator micro-benchmarks over the shared enginebench workloads (external test package: enginebench imports
// engine). Run with:
//
//	go test -run '^$' -bench BenchmarkEngine -benchmem ./internal/engine/
//
// cmd/benchjson records the same workloads into BENCH_9.json.

import (
	"fmt"
	"testing"

	"modeldata/internal/enginebench"
)

func benchOp(b *testing.B, op string) {
	for _, w := range enginebench.Workloads() {
		if w.Op != op {
			continue
		}
		b.Run(fmt.Sprintf("rows=%d", w.Rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Run()
			}
		})
	}
}

func BenchmarkEngineSelect(b *testing.B)   { benchOp(b, "Select") }
func BenchmarkEngineEquiJoin(b *testing.B) { benchOp(b, "EquiJoin") }
func BenchmarkEngineGroupBy(b *testing.B)  { benchOp(b, "GroupBy") }
func BenchmarkEngineDistinct(b *testing.B) { benchOp(b, "Distinct") }

// BenchmarkPlanner times join-heavy queries with the cost-based
// planner off (written join order) and on (reordered + pushdown).
// cmd/benchjson records the same pairs into BENCH_9.json.
func BenchmarkPlanner(b *testing.B) {
	for _, w := range enginebench.PlannerWorkloads() {
		b.Run(fmt.Sprintf("%s/rows=%d/off", w.Op, w.Rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Off()
			}
		})
		b.Run(fmt.Sprintf("%s/rows=%d/on", w.Op, w.Rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.On()
			}
		})
	}
}
