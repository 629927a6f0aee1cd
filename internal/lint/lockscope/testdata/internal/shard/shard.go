// Package shard exercises lockscope at an in-scope import path:
// guarded-field access with and without the lock, Sim under the lock,
// the guarded-paragraph layout convention, the Locked-suffix
// convention, goroutine non-inheritance, and the suppression contract.
package shard

import (
	"sync"

	"vsmartjoin/internal/similarity"
)

type Set struct {
	measure similarity.Measure

	mu sync.RWMutex
	// entities is guarded: its doc comment keeps the paragraph contiguous.
	entities map[string]int
	postings []int

	version int // after the blank line: not guarded
}

func (s *Set) badRead() int {
	return len(s.entities) // want `access to mu-guarded field entities without the lock held`
}

func (s *Set) goodRead() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entities)
}

func (s *Set) unguardedIsFine() int { return s.version }

func (s *Set) afterUnlock() int {
	s.mu.Lock()
	n := len(s.postings)
	s.mu.Unlock()
	return n + len(s.postings) // want `access to mu-guarded field postings without the lock held`
}

func (s *Set) badSim(q, e similarity.UniStats, c similarity.ConjStats) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.measure.Sim(q, e, c) // want `similarity verification Measure\.Sim while the mu lock is held`
}

func (s *Set) goodSim(q, e similarity.UniStats, c similarity.ConjStats) float64 {
	return s.measure.Sim(q, e, c)
}

// compactLocked is, by the naming convention, called with mu held.
func (s *Set) compactLocked() {
	s.postings = s.postings[:0]
}

func (s *Set) goroutineDoesNotInherit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_ = len(s.entities) // want `access to mu-guarded field entities without the lock held`
	}()
	_ = len(s.entities) // the spawning goroutine still holds the lock
}

func (s *Set) suppressedSim(q, e similarity.UniStats, c similarity.ConjStats) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	//lint:vsmart-allow lockscope fixture: top-k style verification deliberately under the read lock
	return s.measure.Sim(q, e, c)
}

func (s *Set) staleSuppression() int {
	//lint:vsmart-allow lockscope nothing below touches guarded state // want `unused //lint:vsmart-allow lockscope suppression`
	return s.version
}
