package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPoolPriorityOrder: with one stalled worker, queued jobs run highest
// priority first, FIFO within a priority.
func TestPoolPriorityOrder(t *testing.T) {
	p := newPool(1, 16)
	defer p.drain()

	// Occupy the only worker so subsequent submissions queue up.
	gate := make(chan struct{})
	running := make(chan struct{})
	go p.submit(context.Background(), 0, func() { close(running); <-gate })
	<-running

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	names := []struct {
		name string
		prio int
	}{
		{"low-1", 0}, {"high-1", 5}, {"low-2", 0}, {"high-2", 5}, {"mid", 3},
	}
	// Enqueue one at a time (waiting for each to be pending) so the FIFO
	// sequence numbers are deterministic.
	for i, n := range names {
		nn := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.submit(context.Background(), nn.prio, func() {
				mu.Lock()
				order = append(order, nn.name)
				mu.Unlock()
			})
		}()
		for {
			if pending, _ := p.stats(); pending >= i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	close(gate) // release the worker; it drains the heap in priority order
	wg.Wait()

	want := []string{"high-1", "high-2", "mid", "low-1", "low-2"}
	if len(order) != len(want) {
		t.Fatalf("ran %d jobs, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestPoolSaturation: the queue bound rejects, it does not block or grow.
func TestPoolSaturation(t *testing.T) {
	p := newPool(1, 2)
	defer p.drain()

	gate := make(chan struct{})
	running := make(chan struct{})
	go p.submit(context.Background(), 0, func() { close(running); <-gate })
	<-running

	// Fill the queue bound.
	for i := 0; i < 2; i++ {
		go p.submit(context.Background(), 0, func() {})
		for {
			if pending, _ := p.stats(); pending >= i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !p.saturated() {
		t.Fatal("pool should be saturated")
	}
	if err := p.submit(context.Background(), 0, func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("submit on full queue = %v, want ErrSaturated", err)
	}
	close(gate)
}

// TestPoolCancelWithdrawsPending: cancelling a waiter whose job has not
// started removes the job — it never runs.
func TestPoolCancelWithdrawsPending(t *testing.T) {
	p := newPool(1, 8)
	defer p.drain()

	gate := make(chan struct{})
	running := make(chan struct{})
	go p.submit(context.Background(), 0, func() { close(running); <-gate })
	<-running

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	errc := make(chan error, 1)
	go func() {
		errc <- p.submit(ctx, 0, func() { ran = true })
	}()
	for {
		if pending, _ := p.stats(); pending >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit = %v, want context.Canceled", err)
	}
	if pending, _ := p.stats(); pending != 0 {
		t.Errorf("withdrawn job still pending (%d)", pending)
	}
	close(gate)
	p.drain()
	if ran {
		t.Error("withdrawn job ran")
	}
}

// TestPoolDrainFinishesQueued: close stops admissions but queued work still
// completes before drain returns.
func TestPoolDrainFinishesQueued(t *testing.T) {
	p := newPool(1, 8)
	gate := make(chan struct{})
	running := make(chan struct{})
	go p.submit(context.Background(), 0, func() { close(running); <-gate })
	<-running

	var mu sync.Mutex
	ran := 0
	for i := 0; i < 3; i++ {
		go p.submit(context.Background(), 0, func() { mu.Lock(); ran++; mu.Unlock() })
		for {
			if pending, _ := p.stats(); pending >= i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	p.close()
	if err := p.submit(context.Background(), 0, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	close(gate)
	p.drain()
	mu.Lock()
	defer mu.Unlock()
	if ran != 3 {
		t.Errorf("drain completed %d queued jobs, want 3", ran)
	}
}

// TestCheckerLRU: hits return the same instance, capacity evicts the
// coldest entry.
func TestCheckerLRU(t *testing.T) {
	l := newEntryLRU(2)
	a1 := l.get("a")
	if l.get("a") != a1 {
		t.Error("second get returned a different entry")
	}
	l.get("b")
	l.get("a") // refresh a; b is now coldest
	l.get("c") // evicts b
	if l.len() != 2 {
		t.Fatalf("len = %d, want 2", l.len())
	}
	if l.get("a") != a1 {
		t.Error("hot entry was evicted")
	}
	if l.len() != 2 {
		t.Errorf("len after re-get = %d, want 2", l.len())
	}
}
