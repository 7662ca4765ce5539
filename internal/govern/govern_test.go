package govern

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var b *Budget
	if err := b.ChargeChunk(1000); err != nil {
		t.Fatalf("nil budget charged: %v", err)
	}
	if err := b.CheckDeadline(); err != nil {
		t.Fatalf("nil budget deadline: %v", err)
	}
	if c, p := b.Used(); c != 0 || p != 0 {
		t.Fatalf("nil budget used %d/%d", c, p)
	}
	var g *Gate
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("nil gate shed: %v", err)
	}
	release()
	if g.Shed() != 0 || g.InFlight() != 0 || g.Waiting() != 0 {
		t.Fatal("nil gate counters non-zero")
	}
}

func TestNewBudgetZeroLimitsIsNil(t *testing.T) {
	if b := NewBudget(Limits{}); b != nil {
		t.Fatalf("zero limits built a budget: %+v", b)
	}
}

func TestBudgetChunkLimit(t *testing.T) {
	b := NewBudget(Limits{MaxChunks: 2})
	if err := b.ChargeChunk(10); err != nil {
		t.Fatal(err)
	}
	if err := b.ChargeChunk(10); err != nil {
		t.Fatal(err)
	}
	err := b.ChargeChunk(10)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("third charge: %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Kind != "chunks" {
		t.Fatalf("want chunks BudgetError, got %v", err)
	}
}

func TestBudgetPointLimit(t *testing.T) {
	b := NewBudget(Limits{MaxPoints: 100})
	if err := b.ChargeChunk(100); err != nil {
		t.Fatal(err)
	}
	err := b.ChargeChunk(1)
	var be *BudgetError
	if !errors.As(err, &be) || be.Kind != "points" {
		t.Fatalf("want points BudgetError, got %v", err)
	}
}

func TestBudgetDeadline(t *testing.T) {
	b := NewBudget(Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	err := b.CheckDeadline()
	var be *BudgetError
	if !errors.As(err, &be) || be.Kind != "deadline" {
		t.Fatalf("want deadline BudgetError, got %v", err)
	}
	if err := b.ChargeChunk(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("charge past deadline: %v", err)
	}
}

func TestLimitsMerge(t *testing.T) {
	got := Limits{Timeout: time.Second}.Merge(Limits{MaxChunks: 5, Timeout: time.Minute})
	if got.MaxChunks != 5 || got.Timeout != time.Second || got.MaxPoints != 0 {
		t.Fatalf("merge: %+v", got)
	}
}

func TestGateShedsAtTheDoor(t *testing.T) {
	g := NewGate(1, 0, 0)
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second acquire: %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter < time.Second {
		t.Fatalf("want OverloadError with Retry-After >= 1s, got %v", err)
	}
	if g.Shed() != 1 {
		t.Fatalf("shed = %d", g.Shed())
	}
	release()
	release() // double release must be a no-op
	r2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r2()
}

func TestGateQueueWaitTimeout(t *testing.T) {
	g := NewGate(1, 1, 10*time.Millisecond)
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	_, err = g.Acquire(context.Background())
	var oe *OverloadError
	if !errors.As(err, &oe) || !oe.Queued {
		t.Fatalf("queued waiter should time out with Queued overload, got %v", err)
	}
}

func TestGateQueuedWaiterGetsSlot(t *testing.T) {
	g := NewGate(1, 1, time.Second)
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		r, err := g.Acquire(context.Background())
		if err == nil {
			r()
		}
		done <- err
	}()
	// Wait until the second request is queued, then free the slot.
	for i := 0; g.Waiting() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestGateContextCancelWhileQueued(t *testing.T) {
	g := NewGate(1, 1, time.Second)
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx)
		done <- err
	}()
	for i := 0; g.Waiting() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
	// The cancelled waiter must have returned its queue ticket.
	if g.Shed() != 0 {
		t.Fatalf("cancellation counted as shed: %d", g.Shed())
	}
}

func TestGateConcurrencyBound(t *testing.T) {
	const slots = 3
	g := NewGate(slots, 100, time.Second)
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := g.Acquire(context.Background())
			if err != nil {
				return
			}
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			release()
		}()
	}
	wg.Wait()
	if maxInFlight > slots {
		t.Fatalf("observed %d concurrent executions with %d slots", maxInFlight, slots)
	}
}
