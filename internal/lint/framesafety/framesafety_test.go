package framesafety_test

import (
	"testing"

	"vsmartjoin/internal/lint/framesafety"
	"vsmartjoin/internal/lint/linttest"
)

func TestFramesafety(t *testing.T) {
	linttest.Run(t, framesafety.Analyzer, "testdata",
		"vsmartjoin/fstest", "vsmartjoin/internal/wal", "vsmartjoin/internal/frame")
}
