// Package walerrtest exercises the walerr analyzer: every discard
// position, blank-identifier assignment at the error result, correctly
// handled calls, and the suppression contract.
package walerrtest

import (
	"bufio"
	"context"
	"os"

	"vsmartjoin"
	"vsmartjoin/internal/frame"
	"vsmartjoin/internal/wal"
)

func discards(l *wal.Log, ix *vsmartjoin.Index, c *vsmartjoin.Cluster, w *bufio.Writer) {
	l.Append(wal.Record{}) // want `error from wal\.Log\.Append discarded`
	defer l.Close()        // want `error from wal\.Log\.Close discarded by defer`
	go l.Snapshot(1, nil)  // want `error from wal\.Log\.Snapshot discarded by go statement`
	ix.Snapshot()          // want `error from vsmartjoin\.Index\.Snapshot discarded`
	c.Snapshot()           // want `error from vsmartjoin\.Cluster\.Snapshot discarded`
	wal.WriteSnapshot("x") // want `error from wal\.WriteSnapshot discarded`
	defer w.Flush()        // want `error from bufio\.Writer\.Flush discarded by defer`
}

func discardsBatch(ctx context.Context, l *wal.Log, ix *vsmartjoin.Index, c *vsmartjoin.Cluster) {
	l.AppendBatchDeferred(nil) // want `error from wal\.Log\.AppendBatchDeferred discarded`
	ix.Apply(ctx, nil)         // want `error from vsmartjoin\.Index\.Apply discarded`
	ix.AddBatch(nil)           // want `error from vsmartjoin\.Index\.AddBatch discarded`
	ix.AddDataset(nil)         // want `error from vsmartjoin\.Index\.AddDataset discarded`
	ix.RemoveBatch(nil)        // want `error from vsmartjoin\.Index\.RemoveBatch discarded`
	c.AddBatch(nil)            // want `error from vsmartjoin\.Cluster\.AddBatch discarded`
	go c.Apply(ctx, nil)       // want `error from vsmartjoin\.Cluster\.Apply discarded by go statement`
}

func blanks(ctx context.Context, l *wal.Log, ix *vsmartjoin.Index) {
	_ = l.Append(wal.Record{})            // want `error from wal\.Log\.Append assigned to _`
	_, _ = ix.Remove("x")                 // want `error from vsmartjoin\.Index\.Remove assigned to _`
	ok, _ := ix.Remove("y")               // want `error from vsmartjoin\.Index\.Remove assigned to _`
	buf, _ := frame.Append(nil, []byte{}) // want `error from frame\.Append assigned to _`
	wait, _ := l.AppendBatchDeferred(nil) // want `error from wal\.Log\.AppendBatchDeferred assigned to _`
	n, _ := ix.RemoveBatch([]string{"z"}) // want `error from vsmartjoin\.Index\.RemoveBatch assigned to _`
	applied, _ := ix.Apply(ctx, nil)      // want `error from vsmartjoin\.Index\.Apply assigned to _`
	_, _, _, _, _ = ok, buf, wait, n, applied
}

func handledBatch(l *wal.Log, ix *vsmartjoin.Index) error {
	wait, err := l.AppendBatchDeferred(nil)
	if err != nil {
		return err
	}
	if err := wait(); err != nil {
		return err
	}
	if _, err := ix.RemoveBatch([]string{"a"}); err != nil {
		return err
	}
	return ix.AddBatch([]vsmartjoin.BatchEntry{{Entity: "b"}})
}

func handled(l *wal.Log, fw *frame.Writer, w *bufio.Writer) error {
	if err := l.Append(wal.Record{}); err != nil {
		return err
	}
	buf, err := frame.Append(nil, []byte("p"))
	if err != nil {
		return err
	}
	_ = buf
	if err := fw.WriteFrame([]byte("p")); err != nil {
		return err
	}
	return w.Flush()
}

func outsideTheSet(f *os.File) {
	f.Close() // os.File.Close is not in the must-check set
}

func suppressed(l *wal.Log) {
	//lint:vsmart-allow walerr fixture: cleanup on a path whose primary error is already being returned
	l.Close()
}

func stale() {
	//lint:vsmart-allow walerr nothing below discards an error // want `unused //lint:vsmart-allow walerr suppression`
	var n int
	_ = n
}
