package trigger

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServerOrdersParties drives two fake distributed parties through the
// TCP controller and checks the explored order.
func TestServerOrdersParties(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "B", "A")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var mu sync.Mutex
	var order []string
	run := func(party string) {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Errorf("%s: %v", party, err)
			return
		}
		defer c.Close()
		if err := c.Request(party); err != nil {
			t.Errorf("%s request: %v", party, err)
			return
		}
		mu.Lock()
		order = append(order, party)
		mu.Unlock()
		if err := c.Confirm(party); err != nil {
			t.Errorf("%s confirm: %v", party, err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run("A") }()
	go func() { defer wg.Done(); time.Sleep(10 * time.Millisecond); run("B") }()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "B" || order[1] != "A" {
		t.Fatalf("explored order = %v, want [B A]; server log %v", order, srv.Stats().EventLog)
	}
}

func TestServerOppositeOrder(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for _, party := range []string{"A", "B"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if err := c.Request(p); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
			c.Confirm(p)
		}(party)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "A" {
		t.Fatalf("order = %v, want A first", order)
	}
}

func TestServerCloseUnblocksNothingBad(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() == "" {
		t.Fatal("no address")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := Dial(srv.Addr()); err == nil {
		t.Fatal("dial succeeded after close")
	}
}

// TestServerRejectsUnexpectedConfirm: a CONFIRM counts only from the
// connection holding that party's GRANT. A stray CONFIRM A — before any
// REQUEST, or while A holds its grant — is refused and does not release B.
func TestServerRejectsUnexpectedConfirm(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *Client {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	stray, a, b := dial(), dial(), dial()
	strayConfirm := func(when string) {
		if err := stray.Confirm("A"); err == nil || !strings.Contains(err.Error(), "ERR unexpected confirm") {
			t.Fatalf("stray CONFIRM A %s: err %v, want ERR unexpected confirm", when, err)
		}
	}
	strayConfirm("before any REQUEST")

	bGranted := make(chan error, 1)
	go func() { bGranted <- b.Request("B") }()
	if err := a.Request("A"); err != nil {
		t.Fatal(err)
	}
	strayConfirm("while A holds its grant")
	select {
	case err := <-bGranted:
		t.Fatalf("B answered (err %v) before A confirmed; log %v", err, srv.Stats().EventLog)
	case <-time.After(50 * time.Millisecond):
	}
	if err := a.Confirm("A"); err != nil {
		t.Fatal(err)
	}
	if err := <-bGranted; err != nil {
		t.Fatal(err)
	}
	if err := b.Confirm("B"); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range srv.Stats().EventLog {
		if !strings.HasPrefix(l, "request ") {
			got = append(got, l)
		}
	}
	if want := []string{"grant A", "confirm A", "grant B", "confirm B"}; !slices.Equal(got, want) {
		t.Fatalf("log without requests = %v, want %v", got, want)
	}
}

// dialRaw opens a plain connection to srv, closed when the test ends.
func dialRaw(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitLog waits until srv has logged event.
func waitLog(t *testing.T, srv *Server, event string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !slices.Contains(srv.Stats().EventLog, event); {
		if time.Now().After(deadline) {
			t.Fatalf("server never logged %q; log %v", event, srv.Stats().EventLog)
		}
		time.Sleep(time.Millisecond)
	}
}

// readLine reads one response line from conn within a second.
func readLine(t *testing.T, conn net.Conn) string {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no response line: %v (got %q)", err, line)
	}
	return strings.TrimSpace(line)
}

// TestServerDisconnectWhileParked: a party whose connection drops before
// its GRANT is withdrawn and may REQUEST again on a new connection; the
// exploration then completes in order instead of granting a dead socket.
func TestServerDisconnectWhileParked(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gone := dialRaw(t, srv)
	fmt.Fprintf(gone, "REQUEST A\n")
	waitLog(t, srv, "request A")
	gone.Close()
	waitLog(t, srv, "withdraw A")

	a, b := dialRaw(t, srv), dialRaw(t, srv)
	fmt.Fprintf(a, "REQUEST A\n")
	fmt.Fprintf(b, "REQUEST B\n")
	if got := readLine(t, a); got != "GRANT" {
		t.Fatalf("A's second REQUEST answered %q, want GRANT; log %v", got, srv.Stats().EventLog)
	}
	fmt.Fprintf(a, "CONFIRM A\n")
	if got := readLine(t, a); got != "OK" {
		t.Fatalf("CONFIRM A answered %q", got)
	}
	if got := readLine(t, b); got != "GRANT" {
		t.Fatalf("B answered %q, want GRANT; log %v", got, srv.Stats().EventLog)
	}
	fmt.Fprintf(b, "CONFIRM B\n")
	readLine(t, b)
	log := srv.Stats().EventLog
	if want := []string{"request A", "withdraw A"}; !slices.Equal(log[:2], want) {
		t.Fatalf("log %v does not start with %v", log, want)
	}
	if want := []string{"grant A", "confirm A", "grant B", "confirm B"}; !slices.Equal(log[len(log)-4:], want) {
		t.Fatalf("log %v does not end with %v", log, want)
	}
}

// TestServerDisconnectWhileHoldingGrant: a party whose connection drops
// while it holds an unconfirmed GRANT is withdrawn, and the next party is
// granted rather than left waiting on the dead socket.
func TestServerDisconnectWhileHoldingGrant(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a, b, c := dialRaw(t, srv), dialRaw(t, srv), dialRaw(t, srv)
	for _, p := range []struct {
		conn  net.Conn
		party string
	}{{a, "A"}, {b, "B"}, {c, "C"}} {
		fmt.Fprintf(p.conn, "REQUEST %s\n", p.party)
		waitLog(t, srv, "request "+p.party)
	}
	if got := readLine(t, a); got != "GRANT" {
		t.Fatalf("A answered %q, want GRANT", got)
	}
	a.Close()
	if got := readLine(t, b); got != "GRANT" {
		t.Fatalf("B answered %q after A's holder vanished, want GRANT; log %v", got, srv.Stats().EventLog)
	}
	fmt.Fprintf(b, "CONFIRM B\n")
	readLine(t, b)
	if got := readLine(t, c); got != "GRANT" {
		t.Fatalf("C answered %q, want GRANT; log %v", got, srv.Stats().EventLog)
	}
	want := []string{"request A", "request B", "request C", "grant A", "withdraw A", "grant B", "confirm B", "grant C"}
	if log := srv.Stats().EventLog; !slices.Equal(log, want) {
		t.Fatalf("log %v, want %v", log, want)
	}
}
