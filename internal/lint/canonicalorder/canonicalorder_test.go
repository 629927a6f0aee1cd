package canonicalorder_test

import (
	"testing"

	"vsmartjoin/internal/lint/canonicalorder"
	"vsmartjoin/internal/lint/linttest"
)

func TestCanonicalorder(t *testing.T) {
	linttest.Run(t, canonicalorder.Analyzer, "testdata",
		"vsmartjoin", "vsmartjoin/internal/index", "vsmartjoin/internal/cluster", "other")
}
