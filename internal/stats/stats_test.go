package stats

import (
	"strings"
	"testing"
)

func TestLogHistogramBinning(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []int64{1, 1, 2, 3, 4, 7, 8, 1000} {
		h.Add(v)
	}
	bins := h.Bins()
	// Expected: [1,2):2  [2,4):2  [4,8):2  [8,16):1  [512,1024):1
	if len(bins) != 5 {
		t.Fatalf("bins: %v", bins)
	}
	if bins[0].Lo != 1 || bins[0].Count != 2 {
		t.Fatalf("bin0: %+v", bins[0])
	}
	if bins[4].Lo != 512 || bins[4].Count != 1 {
		t.Fatalf("bin4: %+v", bins[4])
	}
	if h.Total() != 8 {
		t.Fatalf("total: %d", h.Total())
	}
}

func TestLogHistogramClampsZero(t *testing.T) {
	h := NewLogHistogram()
	h.Add(0)
	h.Add(-5)
	bins := h.Bins()
	if len(bins) != 1 || bins[0].Lo != 1 || bins[0].Count != 2 {
		t.Fatalf("clamping wrong: %v", bins)
	}
}

func TestLogHistogramString(t *testing.T) {
	h := NewLogHistogram()
	for i := int64(1); i < 100; i++ {
		h.Add(i % 17)
	}
	s := h.String()
	if !strings.Contains(s, "#") {
		t.Fatalf("no bars: %q", s)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := Table{Title: "demo", Headers: []string{"name", "value"}}
	tb.AddRow("a", "1")
	tb.AddRow("long-name", "22")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines: %d\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Fatalf("title missing: %q", lines[0])
	}
	// Header and rows align at the same column for field 2.
	hIdx := strings.Index(lines[1], "value")
	rIdx := strings.Index(lines[4], "22")
	if hIdx != rIdx {
		t.Fatalf("misaligned: header %d row %d\n%s", hIdx, rIdx, s)
	}
}

func TestChartRendersAllSeries(t *testing.T) {
	s1 := Series{Name: "vcl"}
	s2 := Series{Name: "online-aggregation"}
	for x := 1; x <= 9; x++ {
		s1.Add(float64(x), float64(30*x))
		s2.Add(float64(x), float64(x))
	}
	out := Chart([]Series{s1, s2}, 60, 12)
	if !strings.Contains(out, "o = vcl") || !strings.Contains(out, "+ = online-aggregation") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "o") || !strings.Contains(out, "+") {
		t.Fatalf("marks missing:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	if out := Chart(nil, 40, 10); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart: %q", out)
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	s := Series{Name: "flat"}
	s.Add(5, 7)
	out := Chart([]Series{s}, 40, 8)
	if out == "" {
		t.Fatal("degenerate chart empty")
	}
}
