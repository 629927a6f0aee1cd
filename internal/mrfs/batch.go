package mrfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// ErrFieldTooLarge is returned by Batch.Append when a key, secondary key
// or value is longer than an index entry's length field can express. The
// record is not appended; lengths never wrap.
var ErrFieldTooLarge = errors.New("mrfs: record field exceeds the batch entry's length width")

// maxFieldLen is the widest key, secondary key or value an entry holds.
// Offsets are 64-bit, so the slab itself has no limit short of memory.
const maxFieldLen = math.MaxUint32

// entry locates one record in a batch's slab: key, secondary key and value
// lie back to back from off. It holds no pointers, so the garbage
// collector never scans an index and a sort moves 24 bytes per swap.
type entry struct {
	off           uint64
	key, sec, val uint32
}

func (e entry) size() int64 { return int64(e.key) + int64(e.sec) + int64(e.val) + recordOverhead }

// Batch is the one in-memory form of records: an append-only byte slab
// plus a pointer-free index of {offset, keyLen, secLen, valLen} entries.
// Dataset partitions, map-task output partitions, reduce input and reduce
// output are all batches; Record is only the three-slice view of one entry.
// Sorting permutes the index and never moves slab bytes. The zero value is
// an empty batch ready for use. A batch is not safe for concurrent
// mutation; any number of goroutines may read one that no one is writing.
type Batch struct {
	slab  []byte
	index []entry
	bytes int64 // encoded size of all records (the sum of their Size)
}

// Len reports the number of records.
func (b *Batch) Len() int { return len(b.index) }

// Bytes reports the encoded size of all records — the quantity the cost
// model charges — not the slab's footprint.
func (b *Batch) Bytes() int64 { return b.bytes }

// Footprint reports the bytes the batch's storage holds: its slab's and
// its index's capacity, whatever their length.
func (b *Batch) Footprint() int64 {
	return int64(cap(b.slab)) + int64(cap(b.index))*int64(unsafe.Sizeof(entry{}))
}

// Reset empties the batch, keeping its storage for reuse. Views handed
// out earlier are invalidated.
func (b *Batch) Reset() {
	b.slab = b.slab[:0]
	b.index = b.index[:0]
	b.bytes = 0
}

// Grow reserves room for n more records whose encoded sizes total size.
func (b *Batch) Grow(n int, size int64) {
	b.index = slices.Grow(b.index, n)
	b.slab = slices.Grow(b.slab, int(size-int64(n)*recordOverhead))
}

// Append copies one record into the slab. A field longer than an entry
// can express fails with ErrFieldTooLarge and leaves the batch unchanged.
func (b *Batch) Append(key, sec, val []byte) error {
	return b.appendMax(key, sec, val, maxFieldLen)
}

// appendMax is Append with the field-width limit as a parameter, so tests
// can reach the refusal without gigabyte inputs.
func (b *Batch) appendMax(key, sec, val []byte, limit int) error {
	if len(key) > limit || len(sec) > limit || len(val) > limit {
		return fmt.Errorf("%w: key %d, sec %d, val %d bytes (limit %d)",
			ErrFieldTooLarge, len(key), len(sec), len(val), limit)
	}
	e := entry{off: uint64(len(b.slab)), key: uint32(len(key)), sec: uint32(len(sec)), val: uint32(len(val))}
	b.room(len(key) + len(sec) + len(val))
	b.slab = append(append(append(b.slab, key...), sec...), val...)
	b.index = append(b.index, e)
	b.bytes += e.size()
	return nil
}

// room makes space for one more record of n field bytes, doubling whichever
// of slab and index is full: append's own 1.25× steps would copy a batch
// that grows to tens of megabytes about five times over, doubling copies it
// twice. The first step is big enough that a batch of a few small records
// — most of a wide job's map-output partitions — never takes a second.
func (b *Batch) room(n int) {
	if len(b.slab)+n > cap(b.slab) {
		b.slab = slices.Grow(b.slab, max(n, cap(b.slab), 512))
	}
	if len(b.index) == cap(b.index) {
		b.index = slices.Grow(b.index, max(16, cap(b.index)))
	}
}

// AppendFrom copies record i of src, slab to slab.
func (b *Batch) AppendFrom(src *Batch, i int) {
	e := src.index[i]
	n := uint64(e.key) + uint64(e.sec) + uint64(e.val)
	fields := src.slab[e.off : e.off+n]
	e.off = uint64(len(b.slab))
	b.room(len(fields))
	b.slab = append(b.slab, fields...)
	b.index = append(b.index, e)
	b.bytes += e.size()
}

// AppendBatch copies every record of src, in src's index order.
func (b *Batch) AppendBatch(src *Batch) {
	base := uint64(len(b.slab))
	b.slab = append(b.slab, src.slab...)
	at := len(b.index)
	b.index = append(b.index, src.index...)
	for i := at; i < len(b.index); i++ {
		b.index[i].off += base
	}
	b.bytes += src.bytes
}

// field returns slab[off:off+n] as a capacity-clipped view, or nil when
// the field is empty (so views look like the records they were built from).
func (b *Batch) field(off uint64, n uint32) []byte {
	if n == 0 {
		return nil
	}
	end := off + uint64(n)
	return b.slab[off:end:end]
}

// Key returns record i's key — like every view, read-only and valid until
// the batch is Reset.
func (b *Batch) Key(i int) []byte {
	e := b.index[i]
	return b.field(e.off, e.key)
}

// Size reports the encoded size of record i.
func (b *Batch) Size(i int) int64 { return b.index[i].size() }

// Record returns the three-slice view of record i.
func (b *Batch) Record(i int) Record {
	e := b.index[i]
	sec := e.off + uint64(e.key)
	return Record{Key: b.field(e.off, e.key), Sec: b.field(sec, e.sec), Val: b.field(sec+uint64(e.sec), e.val)}
}

// SameKey reports whether records i and j carry equal keys.
func (b *Batch) SameKey(i, j int) bool {
	x, y := b.index[i], b.index[j]
	return x.key == y.key && bytes.Equal(b.slab[x.off:x.off+uint64(x.key)], b.slab[y.off:y.off+uint64(y.key)])
}

// prefix returns the first 8 bytes of e's key as a big-endian word,
// zero-padded past the key's end: integer order on prefixes is byte order
// on the keys' first 8 bytes, so most comparisons of a sort or merge are
// decided by one integer compare that never touches the slab.
func prefix(slab []byte, e entry) uint64 {
	if e.off+8 <= uint64(len(slab)) {
		w := binary.BigEndian.Uint64(slab[e.off:])
		if e.key < 8 {
			w &^= ^uint64(0) >> (8 * e.key)
		}
		return w
	}
	var w uint64
	for i := range uint64(8) {
		w <<= 8
		if i < uint64(e.key) {
			w |= uint64(slab[e.off+i])
		}
	}
	return w
}

// compare orders two entries of one slab by (Key, Sec, Val),
// byte-lexicographically — the order Compare gives over their records.
func compare(slab []byte, x, y entry) int {
	if px, py := prefix(slab, x), prefix(slab, y); px != py {
		if px < py {
			return -1
		}
		return 1
	}
	return compareTied(slab, x, y)
}

// compareTied is compare for two entries whose key prefixes are equal.
// When either key is at most 8 bytes long, equal prefixes leave two cases:
// the keys are equal, or the shorter one is the longer one's start (zero
// padding made them look alike: "\x01" against "\x01\x00"). The key
// lengths tell the two apart, and the shorter key sorts first. Only keys
// both longer than 8 bytes are compared past the prefix.
func compareTied(slab []byte, x, y entry) int {
	xs, ys := x.off+uint64(x.key), y.off+uint64(y.key)
	if x.key <= 8 || y.key <= 8 {
		if x.key != y.key {
			if x.key < y.key {
				return -1
			}
			return 1
		}
	} else if c := bytes.Compare(slab[x.off+8:xs], slab[y.off+8:ys]); c != 0 {
		return c
	}
	xv, yv := xs+uint64(x.sec), ys+uint64(y.sec)
	if x.sec|y.sec != 0 {
		if c := bytes.Compare(slab[xs:xv], slab[ys:yv]); c != 0 {
			return c
		}
	}
	return bytes.Compare(slab[xv:xv+uint64(x.val)], slab[yv:yv+uint64(y.val)])
}

// keyed is an index entry beside its key prefix: the element the radix
// sort and the merge move, so that ordering reads the slab only on ties.
type keyed struct {
	pre uint64
	e   entry
}

// Scratch is the side array Sort and MergeRuns order a batch through.
// One scratch serves any number of batches, one at a time, and keeps its
// storage: a sort or merge at a size it has met before allocates nothing.
// The MapReduce engine gives each worker one, shared by every batch the
// worker stages, rather than one per batch. The zero value is ready for
// use; a scratch is not safe for concurrent use.
type Scratch struct {
	keys []keyed
}

// halves returns two halves of n keyed entries each, growing the scratch
// when it is smaller.
func (s *Scratch) halves(n int) (src, dst []keyed) {
	if cap(s.keys) < 2*n {
		s.keys = slices.Grow(s.keys[:0], 2*n)
	}
	keys := s.keys[:2*n]
	return keys[:n], keys[n:]
}

// Footprint reports the bytes the scratch holds.
func (s *Scratch) Footprint() int64 { return int64(cap(s.keys)) * int64(unsafe.Sizeof(keyed{})) }

// loadKeys fills dst with the index entries and their prefixes, in index
// order.
func (b *Batch) loadKeys(dst []keyed) {
	for i, e := range b.index {
		dst[i] = keyed{pre: prefix(b.slab, e), e: e}
	}
}

// Sort orders the index by (Key, Sec, Val). It first checks, in one pass,
// whether the index is already in order — a combiner that emits in order
// costs its output's sort that pass and nothing more. Otherwise it sorts
// by key prefix: a stable LSD radix sort of the keyed side array, one
// counting pass per prefix byte that differs between records (bytes every
// record shares are skipped; a 1-byte key costs one pass), after which
// each run of equal prefixes is finished with compareTied. Records that
// compare equal are byte-identical, so the order is fully determined. The
// side array lives in sc.
func (b *Batch) Sort(sc *Scratch) {
	if b.isSorted() {
		return
	}
	slab, idx := b.slab, b.index
	src, dst := sc.halves(len(idx))
	b.loadKeys(src)
	var differ uint64 // bits in which some prefix differs from the first
	for _, k := range src {
		differ |= k.pre ^ src[0].pre
	}
	var counts [8][256]uint32
	var shiftBuf [8]uint
	shifts := shiftBuf[:0]
	for s := uint(0); s < 64; s += 8 {
		if byte(differ>>s) != 0 {
			shifts = append(shifts, s)
		}
	}
	for _, k := range src {
		for d, s := range shifts {
			counts[d][byte(k.pre>>s)]++
		}
	}
	for d, s := range shifts {
		at := &counts[d]
		var sum uint32
		for c, n := range at {
			at[c] = sum
			sum += n
		}
		for _, k := range src {
			c := byte(k.pre >> s)
			dst[at[c]] = k
			at[c]++
		}
		src, dst = dst, src
	}
	for lo := 0; lo < len(src); {
		hi := lo + 1
		for hi < len(src) && src[hi].pre == src[lo].pre {
			hi++
		}
		for i := lo; i < hi; i++ {
			idx[i] = src[i].e
		}
		if hi-lo > 1 {
			slices.SortFunc(idx[lo:hi], func(x, y entry) int { return compareTied(slab, x, y) })
		}
		lo = hi
	}
}

// isSorted reports whether the index is already in (Key, Sec, Val) order.
func (b *Batch) isSorted() bool {
	for i := 1; i < len(b.index); i++ {
		if compare(b.slab, b.index[i], b.index[i-1]) < 0 {
			return false
		}
	}
	return true
}

// MergeRuns sorts a batch that is a concatenation of sorted runs — run i
// is records [ends[i-1], ends[i]), the last end being Len — by merging
// neighbouring runs pairwise until one is left: about log2(len(ends))
// comparisons per record where a sort from scratch needs log2(Len), and
// the early passes stay inside one run's stretch of the slab. The merge
// moves keyed entries through sc and compares prefixes, calling
// compareTied only when two are equal. ends is consumed.
func (b *Batch) MergeRuns(ends []int, sc *Scratch) {
	if len(ends) < 2 {
		return
	}
	src, dst := sc.halves(len(b.index))
	b.loadKeys(src)
	for len(ends) > 1 {
		lo, merged := 0, ends[:0]
		for i := 0; i < len(ends); i += 2 {
			mid, hi := ends[i], ends[min(i+1, len(ends)-1)]
			mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], b.slab)
			merged = append(merged, hi)
			lo = hi
		}
		src, dst, ends = dst, src, merged
	}
	for i, k := range src {
		b.index[i] = k.e
	}
}

// less orders two keyed entries of one slab as compare orders their
// entries.
func less(slab []byte, x, y keyed) bool {
	return x.pre < y.pre || x.pre == y.pre && compareTied(slab, x.e, y.e) < 0
}

// mergeInto merges the sorted runs x and y into dst, len(x)+len(y) long.
func mergeInto(dst, x, y []keyed, slab []byte) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if less(slab, y[j], x[i]) {
			dst[k] = y[j]
			j++
		} else {
			dst[k] = x[i]
			i++
		}
		k++
	}
	copy(dst[k+copy(dst[k:], x[i:]):], y[j:])
}
