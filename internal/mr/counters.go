package mr

import "sort"

// Counters is a set of named monotonic counters (the MapReduce counter
// facility): every task counts into a set of its own, which the engine
// merges into the job's, under a job-level lock, when the task ends. A set
// takes no lock itself — a task's functions run on one goroutine — so it
// is not safe for concurrent use: goroutines sharing one must serialize
// their calls.
type Counters struct {
	m map[string]*int64
	// The counter of the previous Add: a reduce function bumps the same
	// one or two names once per record, so most Adds skip the map.
	lastName string
	last     *int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*int64)}
}

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta int64) {
	if c.last == nil || c.lastName != name {
		v, ok := c.m[name]
		if !ok {
			v = new(int64)
			c.m[name] = v
		}
		c.lastName, c.last = name, v
	}
	*c.last += delta
}

// Inc increments counter name by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the current value of counter name.
func (c *Counters) Get(name string) int64 {
	if v, ok := c.m[name]; ok {
		return *v
	}
	return 0
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = *v
	}
	return out
}

// Names returns the sorted counter names.
func (c *Counters) Names() []string {
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge folds another counter set into c.
func (c *Counters) Merge(other *Counters) {
	for k, v := range other.m {
		c.Add(k, *v)
	}
}
