package walerr_test

import (
	"testing"

	"vsmartjoin/internal/lint/linttest"
	"vsmartjoin/internal/lint/walerr"
)

func TestWalerr(t *testing.T) {
	linttest.Run(t, walerr.Analyzer, "testdata", "vsmartjoin/walerrtest")
}
