package trigger

import (
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
		t.Fatalf("explored order = %v, want [B A]; server log %v", order, srv.Log())
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
		t.Fatalf("B answered (err %v) before A confirmed; log %v", err, srv.Log())
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
	for _, l := range srv.Log() {
		if !strings.HasPrefix(l, "request ") {
			got = append(got, l)
		}
	}
	if want := []string{"grant A", "confirm A", "grant B", "confirm B"}; !slices.Equal(got, want) {
		t.Fatalf("log without requests = %v, want %v", got, want)
	}
}
