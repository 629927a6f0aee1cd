// Package wal persists the online index: an append-only write-ahead log
// of Add/Remove records plus periodic full snapshots, so a serving
// process killed at any point restarts into exactly its prior state.
//
// On disk a log directory holds one generation of two files,
// "snap-<gen>" and "wal-<gen>". A snapshot is the full entity set at the
// moment it was cut; the WAL of the same generation holds every mutation
// logged since. Snapshot writes go through a temp file and an atomic
// rename, then a fresh (empty) WAL of the next generation is created and
// every older generation is deleted — so recovery never has to reason
// about a half-written snapshot under its final name.
//
// An index keeps exactly one such log in its data dir: one ordered
// history of every mutation. A snapshot's header records the similarity
// measure of the index it holds. The
// offline bulk builder (vsmartjoin.BuildIndexFiles) writes the
// generation-1 snapshot directly with WriteSnapshot, so a cold start
// loads one file instead of replaying per-record appends. A directory still holding the retired
// per-shard layout ("shard-NNN" subdirectories) is refused.
//
// Both files are sequences of internal/frame frames: a uvarint payload
// length, a fixed 4-byte CRC-32C of the payload, and the payload itself
// — the same framing (and the same MaxFrameLen hardening) as the
// MapReduce segment files, so a corrupt length prefix fails cleanly
// instead of driving a giant allocation.
//
// Recovery (Open) loads the newest snapshot, replays the matching WAL
// and then every later one in generation order (a WAL can outlive its
// snapshot if the rename was lost), and truncates a WAL at the first
// torn or corrupt frame — the expected shape of a crash mid-append.
// It deletes only the generations older than the newest snapshot; the
// next Snapshot deletes the rest. Corruption inside a snapshot is
// a hard error instead: snapshots are renamed into place only after an
// fsync, so a bad one means real damage the caller must see.
//
// Durability granularity: an append pushes its frames to the operating
// system on every call but by default does not fsync; Snapshot
// and Close do. A machine (not process) crash can therefore lose the
// tail of the current WAL, never a snapshot that Open has once
// returned. Opening with WithGroupCommit upgrades that: appends do not
// return until an fsync covers them, and the fsyncs of concurrent
// appenders coalesce into one — the classic leader/follower group
// commit. The first waiter whose records are not yet covered leads: it
// fsyncs at once, covering every record written so far, while the others
// wait for its result; appends that arrive during that fsync share the
// next one. A torn tail then still
// truncates to the last intact frame, but everything an append call has
// acknowledged is below that point even across a machine crash.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/frame"
	"vsmartjoin/internal/metrics"
)

// MaxFrameLen caps a single log or snapshot frame, re-exported from the
// shared framing layer: legitimate records are a name and a bag of
// elements, far below it, so a larger prefix can only be corruption.
const MaxFrameLen = frame.MaxFrameLen

// snapMagic heads every snapshot file, versioned so a future format can
// be told apart from corruption. v2 added the entity ID to every record,
// v3 a shard count to the header. An index is one partition now, so the
// count is always written as 1 and skipped on read: the field stays so
// that v3 dirs written at any shard count open unchanged.
const snapMagic = "vsmartjoin-snap-v3"

// Record operation kinds. The zero byte is reserved for the snapshot
// trailer so a truncated snapshot can never alias a record.
const (
	opTrailer byte = 0
	// OpAdd upserts Entity with Elements.
	OpAdd byte = 1
	// OpRemove deletes Entity; Elements is empty.
	OpRemove byte = 2
)

// Element is one named element of an entity with its multiplicity.
type Element struct {
	Name  string
	Count uint32
}

// Record is one logical mutation of the index: an upsert (OpAdd) or a
// deletion (OpRemove) of a named entity. Records carry element names,
// not interned IDs, so a log replays into a fresh dictionary. OpAdd
// records also carry the entity's numeric ID: queries break ties by it,
// so recovery must reproduce the exact assignment.
type Record struct {
	Op       byte
	ID       uint64 // entity ID (OpAdd only; 0 on OpRemove)
	Entity   string
	Elements []Element
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use, though callers replaying or snapshotting an index normally hold
// their own lock to keep the emitted records consistent.
type Log struct {
	dir     string
	measure string

	// Group-commit mode, immutable after Open.
	syncMode bool

	// mu guards the file and its write state, and the group-commit
	// ledger below them.
	mu      sync.Mutex
	gen     uint64
	f       *os.File // current WAL, open for append; nil after Close, which releases waiters
	off     int64    // bytes of intact frames in f; write rollback point
	snap    int64    // bytes of the current generation's snapshot file
	seq     uint64   // records written across all generations
	werr    error    // sticky: the WAL tail is torn and could not be rewound
	payload *codec.Buffer
	frame   []byte
	// The ledger: synced is the highest seq a successful fsync (or
	// snapshot rotation) covers, syncErr is the sticky fsync failure
	// (cleared by rotation, like werr), leading marks a commit under way
	// (a waiter is in its fsync, outside mu). cond, over mu, broadcasts
	// every change.
	synced  uint64
	syncErr error
	leading bool
	cond    *sync.Cond

	// m is all-atomic and needs no lock; it lives in its own paragraph
	// so lockscope does not fold it into mu's guard set.
	m LogMetrics
}

// LogMetrics holds the log's latency distributions. Append and fsync
// stalls are the two ways durability blocks the serving write path, so
// each gets its own histogram; both are observed via metrics.Now /
// ObserveSince (the clock reads here are the stall being measured, not
// incidental accounting).
type LogMetrics struct {
	// Append is the wall time of an append call: encode, frame, and the
	// write(2) that pushes the frames to the operating system (one
	// observation per call, not per record).
	Append metrics.Histogram
	// Fsync is the wall time of every fsync the log issues — group
	// commits, snapshot file syncs, and the final sync in Close.
	Fsync metrics.Histogram
	// CommitWait is how long an acknowledged append waited for the
	// group commit covering it (group-commit mode only): the latency
	// cost of durability, paid after the append's own write.
	CommitWait metrics.Histogram
	// Batch is the records-per-call distribution of appends — how large
	// the batches arriving at the log are. Every append is a batch, so a
	// single-record Append is observed here too, as a batch of one.
	Batch metrics.SizeHistogram
	// GroupCommit is the records-per-fsync distribution of the group
	// commits — the amortization factor group commit achieves.
	// fsyncs/mutation under load is GroupCommit.Count / Records.
	GroupCommit metrics.SizeHistogram
	// Records counts every record appended (single and batched alike),
	// the denominator of the fsyncs-per-mutation ratio.
	Records metrics.Counter
}

// Metrics exposes the log's histograms for scraping. The returned
// pointer stays valid after Close.
func (l *Log) Metrics() *LogMetrics { return &l.m }

func snapName(gen uint64) string { return fmt.Sprintf("snap-%08d", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%08d", gen) }

// scanDir lists the snapshot and WAL generations in dir and the temp
// files an interrupted snapshot left behind; a missing dir lists
// nothing. A "shard-*" subdirectory is the retired per-shard layout,
// whose files this package no longer reads: it is an error, so such a
// dir is never taken for an empty one.
func scanDir(dir string) (snaps, wals []uint64, stale []string, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, nil
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if gen, ok := parseGen(name, "snap-"); ok {
			snaps = append(snaps, gen)
		} else if gen, ok := parseGen(name, "wal-"); ok {
			wals = append(wals, gen)
		} else if strings.HasSuffix(name, ".tmp") {
			stale = append(stale, name)
		} else if ent.IsDir() && strings.HasPrefix(name, "shard-") {
			return nil, nil, nil, fmt.Errorf("wal: %s holds the per-shard layout (%s); rebuild the index", dir, name)
		}
	}
	return snaps, wals, stale, nil
}

// Exists reports whether dir holds a snapshot — whether it holds an
// index at all, since an index writes its first snapshot when it
// creates its directory.
func Exists(dir string) (bool, error) {
	snaps, _, _, err := scanDir(dir)
	return len(snaps) > 0, err
}

// parseGen extracts the generation from a "snap-NNNNNNNN" or
// "wal-NNNNNNNN" file name.
func parseGen(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[len(prefix):], 10, 64)
	return gen, err == nil && gen > 0
}

// Option configures a Log at Open.
type Option func(*Log)

// WithGroupCommit opens the log in group-commit durability mode: an
// append is not settled until an fsync covers its records, and the
// fsyncs of concurrent appenders coalesce: the first appender to wait
// fsyncs at once for every record written so far, and every append that
// arrives during that fsync shares the next one.
func WithGroupCommit() Option {
	return func(l *Log) { l.syncMode = true }
}

// Open recovers the log in dir, creating the directory if needed: it
// loads the newest snapshot (feeding every entity to applySnap), then
// replays the matching WAL and every later one, in generation order
// (truncating a torn tail), through applyWAL, and returns the log ready
// for appends to the newest WAL. The two callbacks let callers
// bulk-load the snapshot body — pre-sorted, all OpAdd — through a
// cheaper path than the general upsert replay. measure names the
// similarity measure of the index being persisted; a snapshot recorded
// under a different measure is refused, since replaying it would
// silently change every score.
func Open(dir, measure string, applySnap, applyWAL func(Record) error, opts ...Option) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	snaps, wals, stale, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	// base is the newest snapshot (0: none). Every WAL from base on
	// holds mutations logged after it, in generation order, and the
	// newest generation is the one appended to.
	var base uint64
	for _, g := range snaps {
		base = max(base, g)
	}
	slices.Sort(wals)
	i, _ := slices.BinarySearch(wals, base)
	replay := wals[i:]
	gen := max(base, 1)
	if len(replay) > 0 {
		gen = max(gen, replay[len(replay)-1])
	}

	l := &Log{dir: dir, measure: measure, gen: gen, payload: codec.NewBuffer(256)}
	l.cond = sync.NewCond(&l.mu)
	for _, opt := range opts {
		opt(l)
	}
	if base > 0 {
		path := filepath.Join(dir, snapName(base))
		if st, err := os.Stat(path); err == nil {
			l.snap = st.Size()
		}
		if err := l.loadSnapshot(path, applySnap); err != nil {
			return nil, err
		}
	}
	for _, g := range replay {
		if err := l.replayWAL(filepath.Join(dir, walName(g)), applyWAL); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, walName(gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	if st, err := f.Stat(); err == nil {
		l.off = st.Size() // every byte below is an intact, replayed frame
	}

	// Generations older than the newest snapshot are captured by it;
	// leftover temp files never made it into any generation.
	// Best-effort cleanup.
	removeBelow(dir, base)
	for _, name := range stale {
		os.Remove(filepath.Join(dir, name))
	}
	return l, nil
}

// Dir reports the log directory.
func (l *Log) Dir() string { return l.dir }

// Gen reports the current generation number (advanced by Snapshot).
func (l *Log) Gen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Sizes reports the bytes of the current generation's WAL (its intact
// frames) and snapshot file (0 when it has none).
func (l *Log) Sizes() (walBytes, snapBytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off, l.snap
}

// encodeRecord appends rec's payload encoding to buf.
func encodeRecord(buf *codec.Buffer, rec Record) error {
	switch rec.Op {
	case OpAdd, OpRemove:
	default:
		return fmt.Errorf("wal: cannot encode op %d", rec.Op)
	}
	buf.PutByte(rec.Op)
	buf.PutString(rec.Entity)
	if rec.Op == OpAdd {
		buf.PutUvarint(rec.ID)
		buf.PutUvarint(uint64(len(rec.Elements)))
		for _, el := range rec.Elements {
			buf.PutString(el.Name)
			buf.PutUint32(el.Count)
		}
	}
	return nil
}

// decodeRecord parses one record payload.
func decodeRecord(payload []byte) (Record, error) {
	r := codec.NewReader(payload)
	rec := Record{Op: r.Byte(), Entity: r.String()}
	switch rec.Op {
	case OpAdd:
		rec.ID = r.Uvarint()
		n := r.Uvarint()
		if r.Err() == nil && n > uint64(r.Remaining()) {
			return Record{}, fmt.Errorf("wal: record claims %d elements in %d bytes", n, r.Remaining())
		}
		rec.Elements = make([]Element, 0, n)
		for i := uint64(0); i < n; i++ {
			rec.Elements = append(rec.Elements, Element{Name: r.String(), Count: r.Uint32()})
		}
	case OpRemove:
	default:
		return Record{}, fmt.Errorf("wal: unknown op %d", rec.Op)
	}
	if r.Err() != nil {
		return Record{}, fmt.Errorf("wal: corrupt record: %w", r.Err())
	}
	if !r.Done() {
		return Record{}, fmt.Errorf("wal: %d trailing bytes in record", r.Remaining())
	}
	return rec, nil
}

// loadSnapshot replays every entity of a snapshot file through apply.
// Any corruption is a hard error: snapshots are fsynced before they are
// renamed into place, so a damaged one cannot be a routine crash.
func (l *Log) loadSnapshot(path string, apply func(Record) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	header, off, ok := frame.Parse(data, 0)
	if !ok {
		return fmt.Errorf("wal: %s: corrupt snapshot header", path)
	}
	hr := codec.NewReader(header)
	magic, measure := hr.String(), hr.String()
	hr.Uvarint() // the v3 shard count: ignored (see snapMagic)
	if hr.Err() != nil || !hr.Done() || magic != snapMagic {
		return fmt.Errorf("wal: %s: not a %s file", path, snapMagic)
	}
	if measure != l.measure {
		return fmt.Errorf("wal: %s: snapshot measure %q, index measure %q", path, measure, l.measure)
	}
	var count uint64
	for {
		payload, next, ok := frame.Parse(data, off)
		if !ok {
			return fmt.Errorf("wal: %s: corrupt snapshot frame at byte %d", path, off)
		}
		off = next
		if len(payload) > 0 && payload[0] == opTrailer {
			tr := codec.NewReader(payload)
			tr.Byte()
			want := tr.Uvarint()
			if tr.Err() != nil || !tr.Done() || want != count {
				return fmt.Errorf("wal: %s: snapshot trailer wants %d entities, read %d", path, want, count)
			}
			if off != len(data) {
				return fmt.Errorf("wal: %s: %d bytes after snapshot trailer", path, len(data)-off)
			}
			return nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("wal: %s: %w", path, err)
		}
		if rec.Op != OpAdd {
			return fmt.Errorf("wal: %s: op %d record in snapshot", path, rec.Op)
		}
		count++
		if err := apply(rec); err != nil {
			return err
		}
	}
}

// replayWAL feeds every intact record of the WAL at path to apply and
// truncates the file at the first torn or corrupt frame — the shape a
// crash mid-append leaves behind. A missing file replays nothing.
func (l *Log) replayWAL(path string, apply func(Record) error) error {
	return frame.ReplayFile(path, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			// An undecodable payload with a valid checksum: treat as torn.
			return frame.ErrTorn
		}
		return apply(rec)
	})
}

// Append logs one record and settles its durability: AppendBatchDeferred
// of one record followed by its wait. The frame reaches the operating
// system before Append returns (a process crash loses nothing); without
// group commit it is not fsynced (a machine crash can lose it; Snapshot
// and Close fsync), with WithGroupCommit it does not return until an
// fsync covers it.
func (l *Log) Append(rec Record) error {
	wait, err := l.AppendBatchDeferred([]Record{rec})
	if err != nil {
		return err
	}
	return wait()
}

func noWait() error { return nil }

// AppendBatchDeferred is the log's one write body, split at the
// durability boundary. It encodes recs as one contiguous frame stream
// pushed to the operating system with a single write(2): after a clean
// return every record is in the log, after an error none is. The
// returned wait function blocks until the batch's durability contract is
// met — immediately satisfied without group commit, one group-committed
// fsync (amortized with every concurrent appender) with it — so callers
// holding locks over the append can drop them before paying the commit
// wait; it must be called exactly once and is not safe for concurrent
// use. An empty batch is a no-op.
//
// A failed write may leave a partial frame at the file tail; appending
// past it would strand every later record behind bytes recovery treats
// as the torn end of the log, and recovery must never replay a prefix
// of a batch the caller was told failed. The file is therefore rewound
// to the last intact frame on error, and if even that fails the log is
// poisoned: further appends are refused until a successful Snapshot
// rotates to a fresh WAL file.
func (l *Log) AppendBatchDeferred(recs []Record) (func() error, error) {
	if len(recs) == 0 {
		return noWait, nil
	}
	start := metrics.Now()
	l.mu.Lock()
	err := l.appendLocked(recs)
	seq := l.seq
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	l.m.Append.ObserveSince(start)
	l.m.Batch.Observe(uint64(len(recs)))
	if !l.syncMode {
		return noWait, nil
	}
	return func() error { return l.waitCommit(seq) }, nil
}

// appendLocked encodes and writes recs under l.mu: all frames into one
// buffer, one write(2), rollback to the last intact frame on error.
func (l *Log) appendLocked(recs []Record) error {
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if l.werr != nil {
		return l.werr
	}
	buf := l.frame[:0]
	for _, rec := range recs {
		l.payload.Reset()
		if err := encodeRecord(l.payload, rec); err != nil {
			return err
		}
		var err error
		buf, err = frame.Append(buf, l.payload.Bytes())
		if err != nil {
			l.frame = buf[:0]
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.frame = buf[:0]
	n, err := l.f.Write(buf)
	if err != nil {
		if n > 0 {
			if terr := l.f.Truncate(l.off); terr != nil {
				l.werr = fmt.Errorf("wal: tail torn at %d and not rewindable (%v); snapshot to rotate the log", l.off, terr)
			}
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.off += int64(n)
	l.seq += uint64(len(recs))
	l.m.Records.Add(int64(len(recs)))
	return nil
}

// waitCommit blocks until the group-commit ledger covers seq. A waiter
// that finds no commit under way leads the next one: it fsyncs every
// record written so far with mu released, so appends keep flowing and
// the next leader covers them. Snapshot and Close wait out a leading
// fsync before they touch the file, so it is never closed or swapped
// under one. A poisoned log is fsynced too: its records all lie below
// the torn tail that recovery truncates. Every other waiter waits on
// cond.
func (l *Log) waitCommit(seq uint64) error {
	start := metrics.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < seq && l.syncErr == nil && l.f != nil {
		if l.leading {
			l.cond.Wait()
			continue
		}
		covered, f := l.seq, l.f
		l.leading = true
		l.mu.Unlock()
		fsyncStart := metrics.Now()
		err := f.Sync()
		l.m.Fsync.ObserveSince(fsyncStart)
		l.mu.Lock()
		l.leading = false
		if err != nil {
			l.syncErr = fmt.Errorf("wal: group commit: %w", err)
		} else {
			l.commitLocked(covered)
		}
		l.cond.Broadcast()
	}
	l.m.CommitWait.ObserveSince(start)
	if l.synced >= seq {
		return nil
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	return errors.New("wal: log closed before commit")
}

// commitLocked advances the group-commit ledger to seq: an fsync or a
// snapshot rotation made every record up to it durable. The caller
// broadcasts on cond.
func (l *Log) commitLocked(seq uint64) {
	if l.syncMode && seq > l.synced {
		l.m.GroupCommit.Observe(seq - l.synced)
		l.synced = seq
	}
}

// writeSnapshotFile writes a complete snapshot — header (magic, measure,
// the v3 shard count 1), one OpAdd frame per record the iterator emits,
// trailer —
// to path, fsyncing before close, and returns the file's size. On any
// error the partial file is removed. fsync, when non-nil, records the
// duration of the final sync (WriteSnapshot has no Log and passes nil).
func writeSnapshotFile(path, measure string, fsync *metrics.Histogram, iter func(emit func(Record) error) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot: %w", err)
	}
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(path)
		return 0, err
	}
	w := frame.NewWriter(f)
	payload := codec.NewBuffer(256)
	payload.PutString(snapMagic)
	payload.PutString(measure)
	payload.PutUvarint(1) // the v3 shard count (see snapMagic)
	if err := w.WriteFrame(payload.Bytes()); err != nil {
		return fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	var count uint64
	err = iter(func(rec Record) error {
		if rec.Op != OpAdd {
			return fmt.Errorf("wal: snapshot records must be OpAdd, got %d", rec.Op)
		}
		payload.Reset()
		if err := encodeRecord(payload, rec); err != nil {
			return err
		}
		count++
		return w.WriteFrame(payload.Bytes())
	})
	if err != nil {
		return fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	payload.Reset()
	payload.PutByte(opTrailer)
	payload.PutUvarint(count)
	if err := w.WriteFrame(payload.Bytes()); err != nil {
		return fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	if err := w.Flush(); err != nil {
		return fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	start := metrics.Now()
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	if fsync != nil {
		fsync.ObserveSince(start)
	}
	if err := f.Close(); err != nil {
		return fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	return w.Bytes(), nil
}

// WriteSnapshot creates the snapshot file of generation gen in dir
// without opening a Log: how the bulk builder materializes a loadable
// generation directly from a dataset, and how an index records its
// measure in the directory it creates. It goes through
// the same temp-file + fsync + atomic-rename protocol as Log.Snapshot,
// so a file under its final name is always complete. Records must be
// OpAdd.
func WriteSnapshot(dir string, gen uint64, measure string, iter func(emit func(Record) error) error) error {
	if gen == 0 {
		return errors.New("wal: snapshot generation must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp := filepath.Join(dir, snapName(gen)+".tmp")
	if _, err := writeSnapshotFile(tmp, measure, nil, iter); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(gen))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	syncDir(dir)
	return nil
}

// Snapshot cuts a new generation: it writes every record the iterator
// emits (all must be OpAdd) to a temp snapshot, fsyncs and renames it
// into place, starts a fresh empty WAL, and deletes every older
// generation. On error the log keeps its
// current generation and stays usable. The iterator runs with the log
// lock held; it must not call back into the log.
func (l *Log) Snapshot(iter func(emit func(Record) error) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.leading { // a group-commit fsync on l.f is in flight outside mu
		l.cond.Wait()
	}
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	next := l.gen + 1
	tmp := filepath.Join(l.dir, snapName(next)+".tmp")
	size, err := writeSnapshotFile(tmp, l.measure, &l.m.Fsync, iter)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName(next))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}

	nf, err := os.OpenFile(filepath.Join(l.dir, walName(next)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Roll the rename back: with the new snapshot gone the old
		// generation stays authoritative and the log remains usable.
		os.Remove(filepath.Join(l.dir, snapName(next)))
		return fmt.Errorf("wal: snapshot: rotate wal: %w", err)
	}
	syncDir(l.dir)
	l.gen = next
	l.f.Close()
	l.f = nf
	l.off = 0
	l.snap = size
	l.werr = nil // a fresh WAL file clears any poisoned tail
	// The fsynced snapshot durably captures every record appended so
	// far, so the rotation is itself a commit: release group-commit
	// waiters and clear any sticky fsync error along with the old file.
	l.commitLocked(l.seq)
	l.syncErr = nil
	l.cond.Broadcast()
	// The new snapshot captures every generation below it: the one just
	// retired, and any older ones Open replayed and left in place.
	removeBelow(l.dir, next)
	return nil
}

// removeBelow deletes the snapshots and WALs in dir whose generation is
// below gen, best-effort.
func removeBelow(dir string, gen uint64) {
	snaps, wals, _, _ := scanDir(dir)
	for _, g := range snaps {
		if g < gen {
			os.Remove(filepath.Join(dir, snapName(g)))
		}
	}
	for _, g := range wals {
		if g < gen {
			os.Remove(filepath.Join(dir, walName(g)))
		}
	}
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable; best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close fsyncs and closes the current WAL. The log is unusable after.
// In group-commit mode the final fsync settles every pending waiter
// (success releases them, failure surfaces as their commit error).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.leading { // a group-commit fsync on l.f is in flight outside mu
		l.cond.Wait()
	}
	if l.f == nil {
		return nil
	}
	start := metrics.Now()
	err := l.f.Sync()
	l.m.Fsync.ObserveSince(start)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err == nil {
		l.commitLocked(l.seq)
	}
	l.cond.Broadcast()
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Files lists the current generation's file names (for tests and
// operational tooling), sorted.
func (l *Log) Files() []string {
	l.mu.Lock()
	gen := l.gen
	dir := l.dir
	l.mu.Unlock()
	var out []string
	for _, name := range []string{snapName(gen), walName(gen)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
