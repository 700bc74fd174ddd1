package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bounded runs f holding one slot of s, as the tick path does.
func bounded(s *Scheduler, f func()) {
	s.acquire()
	defer s.release()
	f()
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestSchedulerDefaultThreads(t *testing.T) {
	if s := NewScheduler(0); s.Threads() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default threads = %d, want GOMAXPROCS %d", s.Threads(), runtime.GOMAXPROCS(0))
	}
	if s := NewScheduler(7); s.Threads() != 7 {
		t.Fatalf("threads = %d, want 7", s.Threads())
	}
}

// TestSchedulerAcquireRelease: a slot is held from acquire to release,
// on the caller's goroutine, and counts as completed once released.
func TestSchedulerAcquireRelease(t *testing.T) {
	s := NewScheduler(1)
	s.acquire()
	if st := s.Stats(); st.Active != 1 || st.Completed != 0 {
		t.Fatalf("stats while held = %+v, want 1 active, 0 completed", st)
	}
	s.release()
	if st := s.Stats(); st.Active != 0 || st.Completed != 1 || st.Queued != 0 {
		t.Fatalf("stats after release = %+v, want 0 active, 1 completed", st)
	}
	// A nil bound bounds nothing: acquire never blocks.
	var none *Scheduler
	none.acquire()
	none.acquire()
	none.release()
	none.release()
}

func TestSchedulerRunsAllTasks(t *testing.T) {
	s := NewScheduler(4)
	const n = 200
	var done atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bounded(s, func() { done.Add(1) })
		}()
	}
	wg.Wait()
	if done.Load() != n {
		t.Fatalf("ran %d computations, want %d", done.Load(), n)
	}
	if st := s.Stats(); st.Completed != n || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestSchedulerBoundsConcurrency verifies that no more computations run
// at once than the bound has slots — the property that keeps analytics
// overhead bounded on a monitored node.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	const threads = 2
	s := NewScheduler(threads)
	var g gauge
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bounded(s, func() {
				g.enter()
				time.Sleep(200 * time.Microsecond)
				g.leave()
			})
		}()
	}
	wg.Wait()
	if p := g.peak.Load(); p > threads {
		t.Fatalf("peak concurrency %d exceeds the bound %d", p, threads)
	}
}

func TestSchedulerStatsWhileBusy(t *testing.T) {
	s := NewScheduler(1)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		bounded(s, func() {
			close(started)
			<-release
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		bounded(s, func() {})
	}()
	waitFor(t, "the second computation to queue", func() bool { return s.Stats().Queued == 1 })
	if st := s.Stats(); st.Active != 1 {
		t.Errorf("active = %d, want 1", st.Active)
	}
	close(release)
	wg.Wait()
	if st := s.Stats(); st.Active != 0 || st.Queued != 0 || st.Completed != 2 {
		t.Errorf("stats after both = %+v, want 2 completed", st)
	}
}
