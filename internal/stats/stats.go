// Package stats provides the histogram, table, and chart primitives used
// to render the paper's figures in a terminal: log-binned frequency
// distributions (Figs 2–3), aligned result tables, and ASCII line charts
// for run-time series (Figs 4–7).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// LogHistogram counts values into power-of-two bins: bin k holds values in
// [2^k, 2^(k+1)). It renders the log–log distribution plots of Figs 2–3.
type LogHistogram struct {
	bins  map[int]int64
	total int64
}

// NewLogHistogram returns an empty histogram.
func NewLogHistogram() *LogHistogram {
	return &LogHistogram{bins: make(map[int]int64)}
}

// Add counts one observation (values < 1 are clamped into the first bin).
func (h *LogHistogram) Add(v int64) {
	if v < 1 {
		v = 1
	}
	k := int(math.Floor(math.Log2(float64(v))))
	h.bins[k]++
	h.total++
}

// Total reports the number of observations.
func (h *LogHistogram) Total() int64 { return h.total }

// Bin is one histogram bucket.
type Bin struct {
	Lo, Hi int64 // [Lo, Hi)
	Count  int64
}

// Bins returns the non-empty buckets in ascending order.
func (h *LogHistogram) Bins() []Bin {
	ks := make([]int, 0, len(h.bins))
	for k := range h.bins {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	out := make([]Bin, len(ks))
	for i, k := range ks {
		out[i] = Bin{Lo: 1 << k, Hi: 1 << (k + 1), Count: h.bins[k]}
	}
	return out
}

// String renders the histogram as an aligned table with log-scaled bars.
func (h *LogHistogram) String() string {
	bins := h.Bins()
	var maxCount int64
	for _, b := range bins {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range bins {
		bar := 0
		if b.Count > 0 && maxCount > 1 {
			bar = 1 + int(40*math.Log1p(float64(b.Count))/math.Log1p(float64(maxCount)))
		}
		fmt.Fprintf(&sb, "%12d-%-12d %10d %s\n", b.Lo, b.Hi-1, b.Count, strings.Repeat("#", bar))
	}
	return sb.String()
}

// Table is an aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, hd := range t.Headers {
		widths[i] = len(hd)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Point is one (x, y) observation of a series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points (one plotted line).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Chart renders series as a simple ASCII scatter chart, one rune per
// series, with a y-axis legend — enough to see the shapes of Figs 4–7.
func Chart(series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := 0.0, math.Inf(-1)
	any := false
	for _, s := range series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			maxY = math.Max(maxY, p.Y)
			any = true
		}
	}
	if !any {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	marks := []rune{'o', '+', 'x', '*', '@', '%', '#', '&'}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			c := int(math.Round((p.X - minX) / (maxX - minX) * float64(width-1)))
			r := height - 1 - int(math.Round((p.Y-minY)/(maxY-minY)*float64(height-1)))
			if r >= 0 && r < height && c >= 0 && c < width {
				if grid[r][c] != ' ' && grid[r][c] != mark {
					grid[r][c] = '?'
				} else {
					grid[r][c] = mark
				}
			}
		}
	}
	var sb strings.Builder
	for r, row := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%10.1f", maxY)
		case height - 1:
			label = fmt.Sprintf("%10.1f", minY)
		default:
			label = strings.Repeat(" ", 10)
		}
		sb.WriteString(label + " |" + string(row) + "\n")
	}
	sb.WriteString(strings.Repeat(" ", 11) + "+" + strings.Repeat("-", width) + "\n")
	sb.WriteString(fmt.Sprintf("%11s %-10.1f%*s\n", "", minX, width-10, fmt.Sprintf("%.1f", maxX)))
	for si, s := range series {
		fmt.Fprintf(&sb, "%11s %c = %s\n", "", marks[si%len(marks)], s.Name)
	}
	return sb.String()
}
