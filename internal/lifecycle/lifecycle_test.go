package lifecycle

import (
	"sync"
	"testing"
	"time"
)

func TestEnterExitClose(t *testing.T) {
	var d Drainer
	if !d.Enter() {
		t.Fatal("Enter refused on open drainer")
	}
	if got := d.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	done := make(chan bool, 1)
	go func() { done <- d.Close(time.Second) }()
	// Close must be waiting on the in-flight unit.
	time.Sleep(10 * time.Millisecond)
	if !d.Closing() {
		t.Fatal("Closing() false after Close started")
	}
	if d.Enter() {
		t.Fatal("Enter admitted work while closing")
	}
	d.Exit()
	if !<-done {
		t.Fatal("Close reported timeout despite drain")
	}
}

func TestCloseTimeout(t *testing.T) {
	var d Drainer
	d.Enter()
	start := time.Now()
	if d.Close(20 * time.Millisecond) {
		t.Fatal("Close reported drained with work in flight")
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("Close returned before the timeout")
	}
	d.Exit() // late exit must not panic
}

func TestCloseIdleIsImmediate(t *testing.T) {
	var d Drainer
	if !d.Close(0) {
		t.Fatal("Close on idle drainer reported timeout")
	}
	if d.Enter() {
		t.Fatal("Enter admitted work after Close")
	}
}

func TestConcurrentWorkers(t *testing.T) {
	var d Drainer
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		if !d.Enter() {
			t.Fatal("Enter refused")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			d.Exit()
		}()
	}
	if !d.Close(5 * time.Second) {
		t.Fatal("Close timed out with exiting workers")
	}
	wg.Wait()
}

// TestRepeatedClose closes a drainer again and again — one call after
// another and several at once, before its in-flight work drained and after
// — and expects every call to agree with the drain state and none to hang
// or panic.
func TestRepeatedClose(t *testing.T) {
	var d Drainer
	d.Enter()
	for range 2 {
		if d.Close(5 * time.Millisecond) {
			t.Fatal("repeated Close before the drain reported drained")
		}
	}
	results := make(chan bool, 4)
	for range cap(results) {
		go func() { results <- d.Close(5 * time.Second) }()
	}
	time.Sleep(10 * time.Millisecond)
	select {
	case <-results:
		t.Fatal("concurrent Close returned with work in flight")
	default:
	}
	d.Exit()
	for range cap(results) {
		if !<-results {
			t.Fatal("concurrent Close reported timeout after the drain")
		}
	}

	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !d.Close(0) {
				t.Error("concurrent Close after the drain reported timeout")
			}
		}()
	}
	wg.Wait()
	for range 2 {
		if !d.Close(time.Second) || d.Enter() || d.InFlight() != 0 {
			t.Fatal("Close after the drain is not a no-op")
		}
	}
}

// Closing reports whether Close has been called.
func (d *Drainer) Closing() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}
