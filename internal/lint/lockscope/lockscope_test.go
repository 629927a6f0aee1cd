package lockscope_test

import (
	"testing"

	"vsmartjoin/internal/lint/linttest"
	"vsmartjoin/internal/lint/lockscope"
)

func TestLockscope(t *testing.T) {
	linttest.Run(t, lockscope.Analyzer, "testdata", "vsmartjoin/internal/shard")
}
