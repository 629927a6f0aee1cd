package vsmartjoin

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadTrace parses the TSV observation format shared by cmd/vsmartjoin
// and cmd/vsmartjoind into a Dataset:
//
//	entity<TAB>element[<TAB>count]
//
// one observation per line, count defaulting to 1, repeated
// observations of the same (entity, element) summed, blank lines and
// #-comments skipped. A sum past math.MaxUint32 is an error naming the
// line, as is a malformed line or one over 1 MiB. Entities are added in
// first-seen order, not map order: entity IDs feed record keys and
// partition hashes, so identical inputs must produce identical runs. It
// returns the dataset and the number of observation lines read.
func ReadTrace(r io.Reader) (*Dataset, int, error) {
	d := NewDataset()
	counts := map[string]map[string]uint32{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, n := 0, 0 // observation lines, physical lines
	for sc.Scan() {
		n++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			return nil, lines, fmt.Errorf("line %d: want entity<TAB>element[<TAB>count], got %q", n, line)
		}
		count := uint32(1)
		if len(fields) >= 3 {
			c, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, lines, fmt.Errorf("line %d: bad count %q: %v", n, fields[2], err)
			}
			count = uint32(c)
		}
		m := counts[fields[0]]
		if m == nil {
			m = map[string]uint32{}
			counts[fields[0]] = m
			order = append(order, fields[0])
		}
		sum := m[fields[1]] + count
		if sum < count {
			return nil, lines, fmt.Errorf("line %d: count for %q/%q overflows uint32", n, fields[0], fields[1])
		}
		m[fields[1]] = sum
		lines++
	}
	if err := sc.Err(); err != nil {
		return nil, lines, fmt.Errorf("line %d: %w", n+1, err)
	}
	for _, entity := range order {
		d.Add(entity, counts[entity])
	}
	return d, lines, nil
}

// ReadTraceFile reads a TSV trace from path with ReadTrace,
// transparently decompressing files with a ".gz" suffix — real traces
// at bulk-build scale ship compressed.
func ReadTraceFile(path string) (*Dataset, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %v", path, err)
		}
		defer gz.Close()
		r = gz
	}
	d, lines, err := ReadTrace(r)
	if err != nil {
		return nil, lines, fmt.Errorf("%s: %v", path, err)
	}
	return d, lines, nil
}
