package main

import (
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The machines this benchmark runs on are small shared VMs, and their
// speed is not constant: memory-bound work (which is what an inverted
// index, a hash join and a JSON decoder are) runs up to twice as slow
// for stretches of a fraction of a second, and some 30 % slower for
// epochs of a minute or more, depending on what the neighbours do to
// the shared last-level cache (CALIBRATION.md has the measurements). A
// raw wall-clock number from such a machine says as much about the
// minute it was taken in as about the program.
//
// refProbe is how the benchmark corrects for that. It is a fixed piece
// of work with the two ingredients the system's own work is made of,
// about 2 ms of it: a walk along one random cycle through a 16 MB
// array, every step a dependent load that misses the private caches,
// and a stretch of ordinary Go service code on preallocated data (map
// updates with string keys, a string sort, appending numbers to a byte
// buffer). Neither part allocates, so the probe shares nothing with the
// program under test but the machine. Every client goroutine runs it at
// each slice boundary of a window (and the batch workload before and
// after each job), on all processors at once. How long it takes,
// relative to a nominal duration, is the machine's slowdown factor over
// that stretch, and each slice's timings are divided by it before the
// run's medians are taken. A change to the program moves the timings
// and leaves the factor alone.
type refProbe struct {
	next    []uint32
	clients []probeClient
}

// probeClient is one client's private probe state.
type probeClient struct {
	pos   uint32 // where its walk stands
	turn  int    // rotates which keys the next run touches
	count map[string]uint32
	keys  []string
	work  []string
	buf   []byte
}

const (
	refProbeLen    = 4 << 20 // uint32 entries: 16 MB
	refProbeSteps  = 8000
	refProbeRounds = 12
	refProbeKeys   = 4096
	// refNominal is the probe's duration at nominal machine speed: what
	// this class of VM needs when nothing disturbs it. Timings are
	// reported as they would be at that speed. On another class of machine
	// the constant scales every timing by one common factor, which no
	// comparison between two runs on that machine notices.
	refNominal = 2100 * time.Microsecond
)

func newRefProbe(clients int) *refProbe {
	order := make([]uint32, refProbeLen)
	for i := range order {
		order[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	p := &refProbe{next: make([]uint32, refProbeLen), clients: make([]probeClient, clients)}
	for i, v := range order {
		p.next[v] = order[(i+1)%refProbeLen]
	}
	for c := range p.clients {
		pc := &p.clients[c]
		pc.pos = order[c*(refProbeLen/clients)]
		pc.count = make(map[string]uint32, refProbeKeys)
		for i := 0; i < refProbeKeys; i++ {
			key := "cookie-" + strconv.Itoa(c*1000003+i*7919)
			pc.count[key] = 0
			pc.keys = append(pc.keys, key)
		}
		pc.work = make([]string, 256)
		pc.buf = make([]byte, 0, 8192)
	}
	return p
}

// run does one client's probe work and returns how long it took.
func (p *refProbe) run(client int) time.Duration {
	pc := &p.clients[client]
	t0 := time.Now()
	at := pc.pos
	for i := 0; i < refProbeSteps; i++ {
		at = p.next[at]
	}
	pc.pos = at
	for r := 0; r < refProbeRounds; r++ {
		pc.turn += 37
		for i := range pc.work {
			key := pc.keys[(pc.turn+i*61)%refProbeKeys]
			pc.count[key]++
			pc.work[i] = key
		}
		sort.Strings(pc.work)
		pc.buf = pc.buf[:0]
		for _, key := range pc.work {
			pc.buf = append(pc.buf, key...)
			pc.buf = strconv.AppendUint(pc.buf, uint64(pc.count[key]), 10)
		}
	}
	return time.Since(t0)
}

// runAll runs the probe on every client's processor at once and returns
// the slowdown factor it saw.
func (p *refProbe) runAll() float64 {
	took := make([]time.Duration, len(p.clients))
	var wg sync.WaitGroup
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			took[c] = p.run(c)
		}(c)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return slowdown(sum / time.Duration(len(took)))
}

// slowdown converts a probe's duration into the factor timings taken
// beside it are divided by.
func slowdown(took time.Duration) float64 {
	return float64(took) / float64(refNominal)
}

// timeCorrected times fn with a probe on all processors before and
// after it, and returns the wall-clock seconds divided by the mean of
// the two slowdown factors.
func (p *refProbe) timeCorrected(fn func() error) (seconds float64, err error) {
	before := p.runAll()
	t0 := time.Now()
	err = fn()
	raw := time.Since(t0).Seconds()
	return raw / ((before + p.runAll()) / 2), err
}
