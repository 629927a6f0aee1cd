// Package supptest pins the driver's suppression contract: malformed
// directives, unknown analyzer names, and missing reasons are findings
// in their own right, while a well-formed suppression silences exactly
// the finding on its own or the next line.
package supptest

import "hash/crc32"

func malformed() {
	//lint:vsmart-allow // want `malformed suppression: want //lint:vsmart-allow <analyzer> <reason>`
}

func unknown() {
	//lint:vsmart-allow nosuchanalyzer the reason does not save it // want `suppression names unknown analyzer "nosuchanalyzer"`
}

func noReason() {
	//lint:vsmart-allow framesafety // want `suppression of framesafety has no reason: say why the exception is sound`
}

func honored() {
	//lint:vsmart-allow framesafety hermetic fixture checksum, never framed
	_ = crc32.Checksum(nil, crc32.IEEETable)
}

func sameLineHonored() {
	_ = crc32.Checksum(nil, crc32.IEEETable) //lint:vsmart-allow framesafety hermetic fixture checksum, never framed
}

func unsuppressed() {
	_ = crc32.Checksum(nil, crc32.IEEETable) // want `checksum construction crc32\.Checksum outside internal/frame`
}
