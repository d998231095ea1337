package trigger

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestServerCloseDrainsPendingRequest parks one party on an un-granted
// REQUEST (the other party never arrives) and closes the server: the waiter
// must be woken with "ERR closing" — not abandoned — and Close must return.
func TestServerCloseDrainsPendingRequest(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reqErr := make(chan error, 1)
	go func() { reqErr <- c.Request("A") }()

	// Wait for the REQUEST to register server-side.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if srv.Stats().Requests == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("REQUEST never registered")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return while a REQUEST was pending")
	}
	select {
	case err := <-reqErr:
		if err == nil || !strings.Contains(err.Error(), "closing") {
			t.Fatalf("pending request got %v, want ERR closing", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("pending request was never answered")
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestServerReadDeadline checks that an idle connection is dropped once the
// configured I/O timeout elapses instead of pinning a handler forever.
func TestServerReadDeadline(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetIOTimeout(30 * time.Millisecond)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the server must time the connection out and close it,
	// which surfaces here as EOF/reset on read.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection still open after the server's read deadline")
	}
}

// TestServerCloseKeepsCompletedExchangeLog closes the server after a full
// exploration and checks the drained log still holds the whole exchange.
func TestServerCloseKeepsCompletedExchangeLog(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	run := func(p string) error {
		c, err := Dial(srv.Addr())
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.Request(p); err != nil {
			return err
		}
		return c.Confirm(p)
	}
	errc := make(chan error, 2)
	go func() { errc <- run("A") }()
	go func() { errc <- run("B") }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	log := strings.Join(srv.Log(), ",")
	for _, ev := range []string{"grant A", "grant B", "confirm A", "confirm B"} {
		if !strings.Contains(log, ev) {
			t.Fatalf("log %q missing %q", log, ev)
		}
	}
}

// TestServerRejectsUnexpectedRequest sends the two REQUESTs the protocol
// has no place for — a second REQUEST from a party already parked, and one
// from a party that is neither first nor second — and expects each to be
// refused at once with "ERR unexpected request". The parked party keeps its
// grant channel, so Close still answers it and returns without waiting out
// the drain timeout.
func TestServerRejectsUnexpectedRequest(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	parked, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer parked.Close()
	parkedErr := make(chan error, 1)
	go func() { parkedErr <- parked.Request("A") }()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Requests != 1 {
		if time.Now().After(deadline) {
			t.Fatal("REQUEST A never registered")
		}
		time.Sleep(time.Millisecond)
	}

	for _, party := range []string{"A", "C"} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(time.Second))
		if _, err := conn.Write([]byte("REQUEST " + party + "\n")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n, err := conn.Read(buf)
		conn.Close()
		if got := strings.TrimSpace(string(buf[:n])); err != nil || got != "ERR unexpected request" {
			t.Fatalf("REQUEST %s while A is parked: got %q (%v), want ERR unexpected request", party, got, err)
		}
	}

	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(t0); d >= time.Second {
		t.Fatalf("Close took %v: a handler was left unanswered", d)
	}
	select {
	case err := <-parkedErr:
		if err == nil || !strings.Contains(err.Error(), "closing") {
			t.Fatalf("parked request got %v, want ERR closing", err)
		}
	case <-time.After(time.Second):
		t.Fatal("parked request was never answered")
	}
}
