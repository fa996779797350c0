package errdrop

import (
	"testing"

	"modeldata/internal/lint/linttest"
)

func TestErrDrop(t *testing.T) {
	linttest.Run(t, Analyzer, "errdrop")
}
