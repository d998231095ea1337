package trigger

import (
	"fmt"
	"slices"
	"testing"
)

// client is what one party's connection has seen of the exchange.
type client struct {
	waiting bool // REQUEST accepted, not yet answered
	holding bool // GRANT received, no CONFIRM accepted yet
	granted bool // ever granted
}

// world is the machine plus its clients, driven the way Server drives it:
// REQUEST parks, CONFIRM confirms, a lost connection withdraws the parties
// it owns, and every event is followed by the grants it unblocks.
type world struct {
	m       machine
	clients []client
	grants  int
}

func (w world) clone() world {
	w.m.state = slices.Clone(w.m.state)
	w.clients = slices.Clone(w.clients)
	return w
}

func (w world) key() string { return fmt.Sprint(w.m, w.clients, w.grants) }

const (
	evRequest = iota
	evConfirm
	evDisconnect
	evClose
)

// step applies one event and returns the first broken invariant.
func (w *world) step(ev, p int) error {
	c := &w.clients[p]
	switch ev {
	case evRequest:
		want := !c.waiting && !c.granted
		if got := w.m.park(p); got != want {
			return fmt.Errorf("REQUEST %d accepted=%v, want %v", p, got, want)
		}
		c.waiting = c.waiting || want
	case evConfirm:
		want := c.holding
		if got := w.m.confirm(p); got != want {
			return fmt.Errorf("CONFIRM %d accepted=%v, want %v (only the holder may confirm)", p, got, want)
		}
		c.holding = false
	case evDisconnect:
		if c.waiting || c.holding {
			w.m.withdraw(p)
		}
		c.waiting, c.holding = false, false
	case evClose:
		// Close answers exactly the parties the machine holds parked.
		for q, cl := range w.clients {
			if cl.waiting != (w.m.state[q] == partyParked) {
				return fmt.Errorf("Close: party %d waiting=%v but machine state %d", q, cl.waiting, w.m.state[q])
			}
		}
		return nil
	}
	for {
		q, ok := w.m.next()
		if !ok {
			break
		}
		if want := w.m.order[w.grants]; q != want {
			return fmt.Errorf("grant %d went to party %d, want order[%d]=%d", w.grants, q, w.grants, want)
		}
		if !w.clients[q].waiting {
			return fmt.Errorf("party %d granted without a pending REQUEST", q)
		}
		w.clients[q] = client{holding: true, granted: true}
		w.grants++
	}
	holders := 0
	for q, cl := range w.clients {
		if cl.holding {
			holders++
		}
		if cl.waiting != (w.m.state[q] == partyParked) {
			return fmt.Errorf("party %d waiting=%v but machine state %d", q, cl.waiting, w.m.state[q])
		}
	}
	if holders > 1 {
		return fmt.Errorf("%d unconfirmed grants", holders)
	}
	if k := w.grants; k < len(w.clients) && w.clients[w.m.order[k]].waiting {
		due := k > 0 && !w.clients[w.m.order[k-1]].holding
		if k == 0 {
			due = !slices.ContainsFunc(w.clients, func(cl client) bool { return !cl.waiting })
		}
		if due {
			return fmt.Errorf("party %d is due a grant but none was issued", w.m.order[k])
		}
	}
	return nil
}

// TestMachineExhaustive explores every interleaving of REQUEST, CONFIRM,
// disconnect and Close events for 2 and 3 parties under every grant order.
// Interleavings reaching the same state are explored once, so the search
// covers sequences of any length; Close ends a sequence. It checks that
// grants follow the order and go only to parked parties, that at most one
// grant is unconfirmed, that no due grant is held back, that REQUEST and
// CONFIRM are accepted exactly when the protocol allows, and that Close
// finds every parked party still answerable.
func TestMachineExhaustive(t *testing.T) {
	for n := 2; n <= 3; n++ {
		orders := permutations(n)
		for _, order := range orders {
			start := world{m: newMachine(order), clients: make([]client, n)}
			seen := map[string]bool{start.key(): true}
			queue := []world{start}
			var complete bool
			for len(queue) > 0 {
				w := queue[0]
				queue = queue[1:]
				complete = complete || w.grants == n && !w.clients[w.m.order[n-1]].holding
				for p := range n {
					for _, ev := range []int{evRequest, evConfirm, evDisconnect, evClose} {
						next := w.clone()
						if err := next.step(ev, p); err != nil {
							t.Fatalf("order %v from %v: %v", order, w.clients, err)
						}
						if k := next.key(); ev != evClose && !seen[k] {
							seen[k] = true
							queue = append(queue, next)
						}
					}
				}
			}
			if !complete {
				t.Fatalf("order %v: no interleaving among %d states settles every party", order, len(seen))
			}
			t.Logf("order %v: %d states", order, len(seen))
		}
	}
}

// TestReleaseAllocs: a Release call that grants nothing runs every
// scheduler iteration while a party is parked and must not allocate —
// neither while a party waits for its peers nor while a holder runs.
func TestReleaseAllocs(t *testing.T) {
	c := newController(t, []Point{{StaticID: 10, Instance: 1}, {StaticID: 20, Instance: 1}}, []int{0, 1})
	c.BeforeStmt(info(1, "n", 10, 1, 1))
	waiting := []int32{1}
	if n := testing.AllocsPerRun(100, func() { c.Release(waiting, false) }); n != 0 {
		t.Fatalf("Release with a lone parked party: %v allocs, want 0", n)
	}
	c.BeforeStmt(info(2, "n", 20, 1, 1))
	if rel := c.Release([]int32{1, 2}, false); !slices.Equal(rel, []int32{1}) {
		t.Fatalf("first grant = %v, want [1]", rel)
	}
	holding := []int32{2}
	if n := testing.AllocsPerRun(100, func() { c.Release(holding, false) }); n != 0 {
		t.Fatalf("Release while the holder runs: %v allocs, want 0", n)
	}
}

// permutations returns every permutation of 0..n-1.
func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

func TestPermutations(t *testing.T) {
	if p2 := permutations(2); len(p2) != 2 {
		t.Fatalf("permutations(2) = %v", p2)
	}
	p3 := permutations(3)
	if len(p3) != 6 {
		t.Fatalf("permutations(3): %d perms", len(p3))
	}
	seen := map[string]bool{}
	for _, p := range p3 {
		key := fmt.Sprint(p)
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[key] = true
	}
}
