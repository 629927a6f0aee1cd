package httpd_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/httpd"
)

// TestPeerShedFailsOver: a node at MaxInFlight sheds a peer request with
// 429, the router fails the query over to the other replica, and the
// shedding node stays healthy — the caller's-fault class, as on HTTP.
func TestPeerShedFailsOver(t *testing.T) {
	full := httptest.NewServer(httpd.NewNode(newTestIndex(t, ""), httpd.Options{MaxInFlight: 1}))
	defer full.Close()
	free := httptest.NewServer(httpd.NewNode(newTestIndex(t, ""), httpd.Options{}))
	defer free.Close()
	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{
		Nodes: [][]string{{full.URL, free.URL}}, HedgeAfter: -1, HealthEvery: -1, RepairEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Add("e", map[string]uint32{"a": 1}); err != nil {
		t.Fatal(err)
	}

	// Park an /add whose body never ends inside the full node's one slot.
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		if resp, err := full.Client().Post(full.URL+"/add", "application/json", pr); err == nil {
			resp.Body.Close()
		}
	}()
	scrape := func(name string) string {
		resp, err := full.Client().Get(full.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, name+" ") {
				return strings.TrimPrefix(line, name+" ")
			}
		}
		return ""
	}
	for deadline := time.Now().Add(10 * time.Second); scrape("vsmart_http_in_flight_requests") != "1"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("parked request never took the slot")
		}
	}

	// Round-robin puts the saturated replica first within two queries.
	for i := 0; i < 2; i++ {
		ms, err := c.QueryThreshold(map[string]uint32{"a": 1}, 0.5)
		if err != nil || len(ms) != 1 || ms[0].Entity != "e" {
			t.Fatalf("query %d: %v %v", i, ms, err)
		}
	}
	st := c.Stats()
	if shed := scrape("vsmart_http_rejected_total"); st.Failovers < 1 || shed == "0" {
		t.Fatalf("failovers %d, shed %s: the saturated replica was never asked", st.Failovers, shed)
	}
	for _, n := range st.Nodes {
		if !n.Healthy {
			t.Fatalf("node %s marked unhealthy (%s) after shedding", n.Addr, n.LastError)
		}
	}
}

// TestClusterCloseEndsNodeLoops: the goroutines a router's traffic
// starts on both ends — the node's peer loops, the router's calls — are
// gone once the router is closed and the node stops.
func TestClusterCloseEndsNodeLoops(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := httptest.NewServer(httpd.NewNode(newTestIndex(t, ""), httpd.Options{}))
	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{Nodes: [][]string{{ts.URL}}, HealthEvery: -1, RepairEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < cap(done); w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				if err := c.Add(fmt.Sprintf("w%d-%d", w, i), map[string]uint32{"a": uint32(1 + i)}); err != nil {
					done <- err
					return
				}
				if _, err := c.QueryTopK(map[string]uint32{"a": 3}, 5); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < cap(done); w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	ts.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}
