package httpd

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
)

// replay is one request served again and again through a node's
// handler, as a fresh request would be: the body rewound, the request
// ID header the middleware stamps cleared, the answer counted and
// dropped.
type replay struct {
	h    http.Handler
	body []byte
	rd   *bytes.Reader
	req  *http.Request
	w    countingWriter
}

type rewound struct{ *bytes.Reader }

func (rewound) Close() error { return nil }

type countingWriter struct {
	header http.Header
	code   int
	bytes  int
}

func (c *countingWriter) Header() http.Header  { return c.header }
func (c *countingWriter) WriteHeader(code int) { c.code = code }
func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes += len(p)
	return len(p), nil
}

func newReplay(h http.Handler, path, body string) *replay {
	r := &replay{h: h, body: []byte(body), rd: bytes.NewReader(nil), w: countingWriter{header: http.Header{}}}
	r.req = httptest.NewRequest(http.MethodPost, path, nil)
	r.req.Body = rewound{r.rd}
	r.req.ContentLength = int64(len(body))
	return r
}

// serve runs the request once; false unless it was answered 200.
func (r *replay) serve() bool {
	r.rd.Reset(r.body)
	delete(r.req.Header, cluster.HeaderRequestID)
	clear(r.w.header)
	r.w.code, r.w.bytes = http.StatusOK, 0
	r.h.ServeHTTP(&r.w, r.req)
	return r.w.code == http.StatusOK && r.w.bytes > 0
}

// benchNode is a volatile node over 2 000 entities of about 12 elements
// each, drawn from a 500-element vocabulary, and the three query bodies
// node_http sends — threshold, top-k, kNN — over one 12-element
// multiset, each served once so the result cache holds its answer.
func benchNode(tb testing.TB) map[string]*replay {
	tb.Helper()
	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "ruzicka"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ix.Close() })
	rng := rand.New(rand.NewSource(1))
	var muts []vsmartjoin.Mutation
	for i := 0; i < 2000; i++ {
		elems := make(map[string]uint32)
		for len(elems) < 12 {
			elems[fmt.Sprintf("cookie-%d", rng.Intn(500))] = uint32(1 + rng.Intn(5))
		}
		muts = append(muts, vsmartjoin.Mutation{Op: vsmartjoin.OpAdd, Entity: fmt.Sprintf("ip-%d", i), Elements: elems})
	}
	if _, err := ix.Apply(context.Background(), muts); err != nil {
		tb.Fatal(err)
	}
	h := NewNode(ix, Options{})
	const elements = `{"cookie-1": 3, "cookie-7": 1, "cookie-12": 2, "cookie-40": 1, "cookie-99": 4, "cookie-120": 1, ` +
		`"cookie-200": 2, "cookie-250": 1, "cookie-301": 5, "cookie-333": 1, "cookie-404": 2, "cookie-499": 1}`
	replays := map[string]*replay{
		"threshold": newReplay(h, "/query", `{"elements": `+elements+`, "threshold": 0.1}`),
		"topk":      newReplay(h, "/query", `{"elements": `+elements+`, "topk": 10}`),
		"knn":       newReplay(h, "/knn", `{"elements": `+elements+`, "k": 10}`),
	}
	for name, r := range replays {
		if !r.serve() {
			tb.Fatalf("%s: answered %d", name, r.w.code)
		}
	}
	return replays
}

// BenchmarkNodeQuery serves cache-hit /query and /knn bodies through a
// node's handler — the daemon's own cost around a cached answer:
// admission, request ID, body decode, cache lookup, answer encode.
func BenchmarkNodeQuery(b *testing.B) {
	replays := benchNode(b)
	for _, name := range []string{"threshold", "topk", "knn"} {
		r := replays[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if !r.serve() {
					b.Fatalf("answered %d", r.w.code)
				}
			}
		})
	}
}

// maxCachedQueryAllocs is what a cache-hit /query of the 12-element
// body above costs the node handler in allocations: the decoded
// multiset (its map, one string per element name), the threshold, the
// request ID with its header values and the context carrying it, the
// Content-Type header value, the size-capped body reader and the cached
// answer's copy. With encoding/json it was 56.
const maxCachedQueryAllocs = 26

// TestCachedQueryAllocs gates the per-request allocations of a
// cache-hit /query on a node.
func TestCachedQueryAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure the detector")
	}
	r := benchNode(t)["threshold"]
	if got := testing.AllocsPerRun(200, func() { r.serve() }); got > maxCachedQueryAllocs {
		t.Fatalf("cache-hit /query: %.1f allocations, want <= %d", got, maxCachedQueryAllocs)
	}
}
