package vsmartjoin

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// traceEntity is one entity of a Dataset as Each yields it.
type traceEntity struct {
	name   string
	counts map[string]uint32
}

func datasetEntities(d *Dataset) []traceEntity {
	var out []traceEntity
	d.Each(func(name string, counts map[string]uint32) bool {
		out = append(out, traceEntity{name, counts})
		return true
	})
	return out
}

func TestReadTrace(t *testing.T) {
	long := "e\t" + strings.Repeat("x", 1<<20) + "\n"
	for _, tc := range []struct {
		name, in string
		want     []traceEntity
		lines    int
		err      string // substring of the error; "" means success
	}{
		{name: "blank and comment lines", in: "\n# entity\telement\n   \ne\tx\t2\n\n#e\ty\n",
			want: []traceEntity{{"e", map[string]uint32{"x": 2}}}, lines: 1},
		{name: "default count", in: "e\tx\ne\ty\t3",
			want: []traceEntity{{"e", map[string]uint32{"x": 1, "y": 3}}}, lines: 2},
		{name: "repeats summed", in: "e\tx\t2\ne\tx\ne\tx\t4294967290\n",
			want: []traceEntity{{"e", map[string]uint32{"x": 4294967293}}}, lines: 3},
		{name: "first-seen entity order", in: "b\tx\na\ty\nc\tz\nb\tz\n",
			want: []traceEntity{
				{"b", map[string]uint32{"x": 1, "z": 1}},
				{"a", map[string]uint32{"y": 1}},
				{"c", map[string]uint32{"z": 1}},
			}, lines: 4},
		{name: "missing element field", in: "# header\ne\tx\ne\n", err: "line 3: want entity<TAB>element[<TAB>count]"},
		{name: "bad count", in: "e\tx\tmany\n", err: `line 1: bad count "many"`},
		{name: "count over uint32", in: "e\tx\t4294967296\n", err: `line 1: bad count "4294967296"`},
		{name: "line over the scanner cap", in: "e\tx\n" + long, err: "line 2: bufio.Scanner: token too long"},
		{name: "repeat overflows", in: "e\tx\t4294967295\ne\tx\t2\n", err: `line 2: count for "e"/"x" overflows uint32`},
		{name: "overflow counts physical lines", in: "# c\n\ne\tx\t4294967295\ne\tx\n",
			err: `line 4: count for "e"/"x" overflows uint32`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, lines, err := ReadTrace(strings.NewReader(tc.in))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if lines != tc.lines {
				t.Errorf("lines = %d, want %d", lines, tc.lines)
			}
			if got := datasetEntities(d); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("entities = %v, want %v", got, tc.want)
			}
		})
	}
}

// refTrace is ReadTrace's reference: the accepted lines' counts summed
// in uint64, entities in first-seen order. ok is false when a line is
// malformed or a sum passes math.MaxUint32.
func refTrace(in string) (order []string, sums map[string]map[string]uint64, ok bool) {
	sums = map[string]map[string]uint64{}
	for _, line := range strings.Split(in, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			return nil, nil, false
		}
		count := uint64(1)
		if len(fields) >= 3 {
			c, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, nil, false
			}
			count = c
		}
		m := sums[fields[0]]
		if m == nil {
			m = map[string]uint64{}
			sums[fields[0]] = m
			order = append(order, fields[0])
		}
		if m[fields[1]] += count; m[fields[1]] > math.MaxUint32 {
			return nil, nil, false
		}
	}
	return order, sums, true
}

// FuzzReadTrace holds ReadTrace to refTrace: it accepts exactly the
// inputs the reference accepts (lines near the scanner's 1 MiB cap
// aside), and what it accepts yields, through Each, the reference sums
// in first-seen entity order, zero counts dropped.
func FuzzReadTrace(f *testing.F) {
	for _, seed := range []string{
		"",
		"e\tx\n",
		"e\tx\t3\r\nf\ty\t0\n# c\n\n",
		"b\tx\na\ty\nb\tz\t7\n",
		"e\tx\t4294967295\ne\tx\t2\n",
		"e\tx\t4294967294\ne\tx\n",
		"e\n",
		"e\tx\t-1\n",
		"e\tx\t1\textra\n\t\t\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		d, _, err := ReadTrace(strings.NewReader(in))
		order, sums, ok := refTrace(in)
		if err != nil {
			if ok && !hasLineNear(in, 1<<20) {
				t.Fatalf("rejected an input the reference accepts: %v", err)
			}
			return
		}
		if !ok {
			t.Fatalf("accepted an input the reference rejects")
		}
		got := datasetEntities(d)
		if len(got) != len(order) {
			t.Fatalf("%d entities, reference has %d", len(got), len(order))
		}
		for i, e := range got {
			if e.name != order[i] {
				t.Fatalf("entity %d is %q, reference has %q", i, e.name, order[i])
			}
			want := map[string]uint32{}
			for elem, c := range sums[e.name] {
				if c > 0 {
					want[elem] = uint32(c)
				}
			}
			if !reflect.DeepEqual(e.counts, want) {
				t.Fatalf("entity %q: %v, reference %v", e.name, e.counts, want)
			}
		}
	})
}

// hasLineNear reports whether a line of in is within two bytes of max.
func hasLineNear(in string, max int) bool {
	for _, line := range strings.Split(in, "\n") {
		if len(line) >= max-2 {
			return true
		}
	}
	return false
}
