package lint_test

import (
	"testing"

	"vsmartjoin/internal/lint/framesafety"
	"vsmartjoin/internal/lint/linttest"
)

// TestSuppressionContract drives a real analyzer over a fixture that
// exercises every shape of //lint:vsmart-allow the driver must accept
// or reject.
func TestSuppressionContract(t *testing.T) {
	linttest.Run(t, framesafety.Analyzer, "testdata", "vsmartjoin/supptest")
}
