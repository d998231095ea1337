// Package lifecycle provides the graceful-shutdown primitive shared by the
// repo's long-running servers: the detection service (internal/serve) and
// the triggering module's TCP message controller (internal/trigger). Both
// need the same discipline on SIGTERM/Close — stop admitting new work, let
// in-flight work finish, and bound how long the drain may take — so it
// lives here once instead of as two ad-hoc implementations.
//
// The package sits below every other internal package (it imports nothing
// from the module) because internal/core depends on internal/trigger while
// internal/serve depends on internal/core: a helper inside internal/serve
// could never be shared with the trigger server without a cycle.
package lifecycle

import (
	"sync"
	"time"
)

// Drainer tracks in-flight units of work for a long-running server. Work
// enters with Enter (refused once shutdown has begun) and leaves with Exit;
// Close flips the drainer into the closing state and waits, up to a
// timeout, for the in-flight count to reach zero.
//
// The zero value is ready to use.
type Drainer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	closed bool
}

// condLocked lazily initializes the condition variable; mu must be held.
func (d *Drainer) condLocked() *sync.Cond {
	if d.cond == nil {
		d.cond = sync.NewCond(&d.mu)
	}
	return d.cond
}

// Enter registers one in-flight unit of work. It returns false — and
// registers nothing — once Close has been called; the caller should refuse
// the work.
func (d *Drainer) Enter() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.n++
	return true
}

// Exit retires one unit of work previously admitted by Enter.
func (d *Drainer) Exit() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n--
	if d.n < 0 {
		panic("lifecycle: Exit without matching Enter")
	}
	if d.n == 0 {
		d.condLocked().Broadcast()
	}
}

// InFlight returns the current number of admitted, un-exited units.
func (d *Drainer) InFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Close stops further Enters and waits for in-flight work to drain. It
// returns true if the count reached zero, false if the timeout elapsed
// first (timeout <= 0 waits forever). Close is idempotent; concurrent and
// repeated calls all wait for the same drain.
func (d *Drainer) Close(timeout time.Duration) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	if d.n == 0 {
		return true
	}
	var expired bool
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			d.mu.Lock()
			expired = true
			d.condLocked().Broadcast()
			d.mu.Unlock()
		})
		defer t.Stop()
	}
	for d.n > 0 && !expired {
		d.condLocked().Wait()
	}
	return d.n == 0
}
