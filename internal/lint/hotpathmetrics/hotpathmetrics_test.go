package hotpathmetrics_test

import (
	"testing"

	"vsmartjoin/internal/lint/hotpathmetrics"
	"vsmartjoin/internal/lint/linttest"
)

func TestHotpathmetrics(t *testing.T) {
	linttest.Run(t, hotpathmetrics.Analyzer, "testdata",
		"vsmartjoin/hmtest", "vsmartjoin/internal/wal", "vsmartjoin/internal/metrics")
}
