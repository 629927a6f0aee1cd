// Command badmod is a deliberately broken module: vsmartlint must exit
// non-zero and name each of these violations when run over it. Its own
// go.mod keeps it out of the parent module's ./... build.
package main

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"os"
)

func main() {
	buf := binary.AppendUvarint(nil, 42)
	_ = crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli))

	f, err := os.Create("snap-000001.tmp")
	if err != nil {
		return
	}
	w := bufio.NewWriter(f)
	defer w.Flush()
	_, _ = w.Write(buf)
}
