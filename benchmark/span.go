package main

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"vsmartjoin/internal/cluster"
)

// A span is one timed call into a layer, recorded by the benchmark from
// outside the program: around a library call, or around an
// http.Handler the system handed back. Spans of one request share Req;
// Parent is an index into the recorder's span list, −1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// spanDepth orders the span names of one request from the outside in.
// A request's spans nest by this depth: the client span contains the
// router handler's, which contains the node handlers'; a batch job's
// root contains its stage spans.
var spanDepth = map[string]int{
	"client": 0, "router": 1, "node": 2,
	"job": 0, "read_trace": 1, "build_input": 1, "core_join": 1, "decode_pairs": 1, "resolve": 1,
}

// recorder keeps spans in memory until the run ends. It is nil when
// tracing is off, and every method is a no-op on a nil recorder, so the
// untraced run executes no tracing code beyond a nil check.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) record(name, req string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, Req: req, Parent: -1, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// middleware wraps a handler the system returned (httpd.NewNode,
// httpd.NewRouter) so each request it serves is recorded as a span
// named name under the request's X-Vsmart-Request-Id — the header the
// router already copies onto every node sub-request, which is what
// lets the spans of one client request be joined afterwards. With a
// nil recorder the handler is returned unwrapped.
func (r *recorder) middleware(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		r.record(name, req.Header.Get(cluster.HeaderRequestID), start, time.Now())
	})
}

// resolveParents links every span to the innermost shallower span of
// the same request that encloses its start — the node handler to the
// router handler that scattered to it, that to the client call.
func resolveParents(spans []span) {
	byReq := make(map[string][]int)
	for i, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], i)
	}
	for _, idxs := range byReq {
		for _, i := range idxs {
			best, bestDepth := -1, -1
			for _, j := range idxs {
				dj := spanDepth[spans[j].Name]
				if i == j || dj >= spanDepth[spans[i].Name] || dj <= bestDepth {
					continue
				}
				if spans[j].Start <= spans[i].Start && spans[i].Start <= spans[j].End {
					best, bestDepth = j, dj
				}
			}
			spans[i].Parent = best
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its direct children cover. Children that overlap one
// another (the router's parallel scatter) are counted once, by their
// union, and a child running past its parent's end is clipped to it.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cursor), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary is the per-name digest of a traced window.
type spanSummary struct {
	Count      int     `json:"count"`
	MedianNs   float64 `json:"median_ns"`
	SelfMedian float64 `json:"self_median_ns"`
	SelfMean   float64 `json:"self_mean_ns"`
}

func summarizeSpans(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		selfs[s.Name] = append(selfs[s.Name], float64(self[i]))
	}
	out := make(map[string]spanSummary, len(durs))
	for name, d := range durs {
		var sum float64
		for _, v := range selfs[name] {
			sum += v
		}
		out[name] = spanSummary{Count: len(d), MedianNs: median(d), SelfMedian: median(selfs[name]), SelfMean: sum / float64(len(d))}
	}
	return out
}
