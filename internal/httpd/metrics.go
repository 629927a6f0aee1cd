package httpd

// Admission control, request tracing, and the hand-rolled Prometheus
// text exposition behind GET /metrics. No client library: the v0.0.4
// text format is a few Fprintf shapes, and internal/metrics snapshots
// carry everything a scrape needs.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vsmartjoin/internal/cluster"
	"vsmartjoin/internal/metrics"
)

// DefaultMaxInFlight is the default bound on concurrently served
// requests. It caps memory (each in-flight request may hold a decoded
// body up to the 8MB cap) and keeps latency bounded under overload:
// excess requests are shed immediately with 429 instead of queueing
// into a latency collapse.
const DefaultMaxInFlight = 256

// Options configures the shared behavior of both server modes.
type Options struct {
	// MaxInFlight bounds concurrently served requests; a request beyond
	// the bound is answered 429 with a Retry-After header, never queued.
	// Probes (/healthz, /readyz) and /metrics are exempt so monitoring
	// keeps working during the overload it exists to observe. 0 means
	// DefaultMaxInFlight; negative disables the limiter.
	MaxInFlight int
}

// limiter is the bounded in-flight admission gate. Acquisition is a
// non-blocking channel send: the channel's buffer IS the capacity, so
// there is no counter to reconcile and no lock on the request path.
type limiter struct {
	slots    chan struct{} // nil when unlimited
	rejected metrics.Counter
}

func newLimiter(maxInFlight int) *limiter {
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	if maxInFlight < 0 {
		return &limiter{}
	}
	return &limiter{slots: make(chan struct{}, maxInFlight)}
}

// acquire claims a slot, reporting false (and counting the rejection)
// when the server is at capacity.
func (l *limiter) acquire() bool {
	if l.slots == nil {
		return true
	}
	select {
	case l.slots <- struct{}{}:
		return true
	default:
		l.rejected.Inc()
		return false
	}
}

func (l *limiter) release() {
	if l.slots != nil {
		<-l.slots
	}
}

func (l *limiter) inFlight() int { return len(l.slots) }

// Request IDs: unique within a process run and cheap — a start-time
// epoch distinguishes processes, an atomic sequence distinguishes
// requests. A router-assigned ID arriving on the trace header is kept,
// so node-side records correlate with the router's.
// The epoch part, with its "-", is formatted once; a stamp appends the
// sequence number to it in a stack buffer, so the string is its one
// allocation.
var (
	reqPrefix = strconv.FormatInt(time.Now().UnixNano(), 36) + "-"
	reqSeq    atomic.Uint64
)

func nextRequestID() string {
	var buf [40]byte
	return string(strconv.AppendUint(append(buf[:0], reqPrefix...), reqSeq.Add(1), 36))
}

// exemptPath reports the endpoints admission control never sheds:
// liveness and readiness probes (shedding them would turn overload
// into flapping) and the metrics scrape (which must observe overload).
func exemptPath(path string) bool {
	return path == "/healthz" || path == "/readyz" || path == "/metrics"
}

// wrap is the shared middleware of both modes: stamp a request ID
// (keeping an inbound one), echo it on the response, and apply
// admission control.
func wrap(mux http.Handler, lim *limiter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(cluster.HeaderRequestID)
		if rid == "" {
			rid = nextRequestID()
			r.Header.Set(cluster.HeaderRequestID, rid)
		}
		w.Header().Set(cluster.HeaderRequestID, rid)
		if !exemptPath(r.URL.Path) {
			if !lim.acquire() {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "server at capacity (%d requests in flight)", lim.inFlight())
				return
			}
			defer lim.release()
		}
		mux.ServeHTTP(w, r)
	})
}

// ---- Prometheus text exposition (v0.0.4) ----

// promContentType is the scrape content type Prometheus expects.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

type promWriter struct{ w io.Writer }

// header emits the HELP/TYPE preamble of one metric family.
func (p promWriter) header(name, typ, help string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) counter(name, help string, v float64) {
	p.header(name, "counter", help)
	fmt.Fprintf(p.w, "%s %s\n", name, formatFloat(v))
}

func (p promWriter) gauge(name, help string, v float64) {
	p.header(name, "gauge", help)
	fmt.Fprintf(p.w, "%s %s\n", name, formatFloat(v))
}

// labeled emits one sample with label pairs (no preamble; call header
// once before a labeled series).
func (p promWriter) labeled(name string, labels [][2]string, v float64) {
	fmt.Fprintf(p.w, "%s{", name)
	for i, kv := range labels {
		if i > 0 {
			io.WriteString(p.w, ",")
		}
		fmt.Fprintf(p.w, "%s=%q", kv[0], escapeLabel(kv[1]))
	}
	fmt.Fprintf(p.w, "} %s\n", formatFloat(v))
}

// histogram emits a snapshot as cumulative le-buckets in seconds —
// Prometheus histogram convention — plus _sum and _count.
func (p promWriter) histogram(name, help string, s metrics.Snapshot) {
	p.header(name, "histogram", help)
	var cum uint64
	for i := 0; i < metrics.NumBuckets; i++ {
		cum += s.Buckets[i]
		le := "+Inf"
		if b := metrics.BucketBound(i); !math.IsInf(b, 1) {
			le = formatFloat(b / 1e9)
		}
		fmt.Fprintf(p.w, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(p.w, "%s_sum %s\n", name, formatFloat(float64(s.Sum)/1e9))
	fmt.Fprintf(p.w, "%s_count %d\n", name, s.Count)
}

// admission emits the limiter's own series — how a scrape sees the
// overload the limiter is shedding.
func (p promWriter) admission(lim *limiter) {
	p.gauge("vsmart_http_in_flight_requests", "Requests currently being served.", float64(lim.inFlight()))
	p.counter("vsmart_http_rejected_total", "Requests shed with 429 by admission control.", float64(lim.rejected.Load()))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format
// (backslash, quote, newline). %q adds the surrounding quotes and
// escapes quote/backslash already, but turns \n into the two-character
// sequence Go-style — which happens to match Prometheus's convention —
// so only the raw newline needs normalizing first.
func escapeLabel(v string) string {
	return strings.ReplaceAll(v, "\n", " ")
}
