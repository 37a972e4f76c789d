// Package lockmod is the lockorder/heldcall violation fixture: two mutex
// fields acquired in opposite orders on two paths (a classic AB/BA
// deadlock), plus a sleep and a blocking call executed under a held lock.
package lockmod

import (
	"sync"
	"time"
)

// Store holds the two mutexes.
type Store struct {
	mu sync.Mutex
	wm sync.Mutex
}

// PushPull locks mu then wm.
func (s *Store) PushPull() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wm.Lock()
	defer s.wm.Unlock()
}

// PullPush locks wm then mu: the inversion of PushPull.
func (s *Store) PullPush() {
	s.wm.Lock()
	defer s.wm.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
}

// SlowFlush sleeps while holding mu.
func (s *Store) SlowFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// Relay calls the sleeper while holding wm, so the block arrives through a
// call chain rather than directly.
func (s *Store) Relay() {
	s.wm.Lock()
	defer s.wm.Unlock()
	drain()
}

func drain() {
	time.Sleep(time.Millisecond)
}
