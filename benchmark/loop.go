package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Operation classes of a closed-loop window.
const (
	classRead = iota
	classWrite
)

// opFunc executes the seq-th operation of one client and reports its
// class and whether it failed. rid is the request ID to send with it,
// empty when tracing is off.
type opFunc func(client, seq int, rid string) (class int, err error)

// opSample is one successful operation of a window.
type opSample struct {
	end   time.Duration // when it completed, since the window opened
	lat   time.Duration
	class int
}

// refSample is one run of the reference probe.
type refSample struct {
	at   time.Duration // since the window opened
	took time.Duration
}

// loopResult is what a closed-loop window measured.
type loopResult struct {
	tally
	samples []opSample
	refs    []refSample
	// next is each client's next sequence number: how many operations
	// it executed in warm-up and window together.
	next []int
}

// closedLoop drives do from clients goroutines, each sending its next
// operation only after the previous one returned: library callers,
// service-to-daemon callers and the router's own node calls all wait
// for a reply, so a slow system receives less load, as in production.
// An unrecorded warm-up lets connection pools, the result cache and
// the runtime settle; runtime.GC() then gives every window the same
// starting heap; the window lasts for the given duration. A client's
// sequence numbers run on from the warm-up into the window. At every
// slice boundary of the window each client runs the reference probe
// once, so that the slice's timings can be corrected for the machine's
// speed at that moment.
func closedLoop(clients int, warmup, window time.Duration, probe *refProbe, rec *recorder, do opFunc) *loopResult {
	res := &loopResult{next: make([]int, clients)}
	phase := func(d time.Duration, record bool) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var local loopResult
				seq := res.next[c]
				nextProbe := time.Duration(0)
				for {
					if since := time.Since(start); record && since >= nextProbe {
						local.refs = append(local.refs, refSample{at: since, took: probe.run(c)})
						nextProbe = (since/sliceLen + 1) * sliceLen
					}
					rid := ""
					if rec != nil {
						rid = fmt.Sprintf("c%d-%d", c, seq)
					}
					t0 := time.Now()
					class, err := do(c, seq, rid)
					t1 := time.Now()
					seq++
					if record {
						local.attempted++
						if err != nil {
							local.fail("client %d op %d: %v", c, seq-1, err)
						} else {
							local.samples = append(local.samples, opSample{end: t1.Sub(start), lat: t1.Sub(t0), class: class})
							rec.record("client", rid, t0, t1)
						}
					}
					if !t1.Before(deadline) {
						break
					}
				}
				res.next[c] = seq
				mu.Lock()
				defer mu.Unlock()
				res.samples = append(res.samples, local.samples...)
				res.refs = append(res.refs, local.refs...)
				res.add(local.tally)
			}(c)
		}
		wg.Wait()
	}
	if warmup > 0 {
		phase(warmup, false)
		rec.reset() // handler spans of warm-up requests have no client span to hang under
	}
	runtime.GC()
	phase(window, true)
	return res
}
