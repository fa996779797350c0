package spanleak

import (
	"testing"

	"modeldata/internal/lint/linttest"
)

func TestSpanLeak(t *testing.T) {
	linttest.Run(t, Analyzer, "spanleak")
}
