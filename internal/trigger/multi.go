package trigger

import (
	"fmt"
	"strings"

	"dcatch/internal/rt"
)

// MultiController generalizes Controller to N parties: it parks every party
// at its point and grants them in the configured order, each grant waiting
// for the previous party's confirm. Paper §5.1: "the controller ... will
// re-start the system several times, until all ordering permutations among
// all the request parties are explored."
type MultiController struct {
	points []Point
	order  []int // grant sequence: order[0] runs first

	arrived []int32
	served  []bool
	confirm []bool

	granted int // how many of order[] have been granted
	waiting int
	done    bool

	// AllArrived is set when every party was parked simultaneously.
	AllArrived bool
	// Forced / TimedOut mirror Controller's ordering evidence.
	Forced   int
	TimedOut int
	Patience int
}

// NewMultiController builds a controller for len(points) parties granted in
// the given order (a permutation of 0..len(points)-1).
func NewMultiController(points []Point, order []int) (*MultiController, error) {
	if len(points) != len(order) {
		return nil, fmt.Errorf("trigger: %d points but %d order entries", len(points), len(order))
	}
	seen := make([]bool, len(order))
	for _, o := range order {
		if o < 0 || o >= len(order) || seen[o] {
			return nil, fmt.Errorf("trigger: order %v is not a permutation", order)
		}
		seen[o] = true
	}
	return &MultiController{
		points:  append([]Point(nil), points...),
		order:   append([]int(nil), order...),
		arrived: make([]int32, len(points)),
		served:  make([]bool, len(points)),
		confirm: make([]bool, len(points)),
	}, nil
}

// BeforeStmt implements rt.TriggerController.
func (c *MultiController) BeforeStmt(info rt.TrigInfo) bool {
	if c.done {
		return false
	}
	for party := range c.points {
		if c.served[party] || !c.points[party].matches(info) {
			continue
		}
		c.served[party] = true
		c.arrived[party] = info.Thread
		if c.allArrived() {
			c.AllArrived = true
		}
		return true
	}
	return false
}

func (c *MultiController) allArrived() bool {
	for _, a := range c.arrived {
		if a == 0 {
			return false
		}
	}
	return true
}

// AfterStmt implements rt.TriggerController.
func (c *MultiController) AfterStmt(info rt.TrigInfo) {
	for party := range c.points {
		if c.served[party] && !c.confirm[party] && c.arrived[party] == info.Thread &&
			c.points[party].StaticID == info.StaticID {
			c.confirm[party] = true
			return
		}
	}
}

// Release implements rt.TriggerController.
func (c *MultiController) Release(parked []int32, quiesced bool) []int32 {
	has := func(id int32) bool {
		for _, p := range parked {
			if p == id {
				return true
			}
		}
		return false
	}
	if c.AllArrived && !c.done {
		// Grant the next party once the previous one confirmed.
		if c.granted == 0 || c.confirm[c.order[c.granted-1]] {
			if c.granted < len(c.order) {
				next := c.order[c.granted]
				if has(c.arrived[next]) {
					c.granted++
					if c.granted == len(c.order) {
						c.done = true
					}
					return []int32{c.arrived[next]}
				}
			}
		}
		return nil
	}
	if quiesced && len(parked) > 0 {
		c.Forced++
		c.done = true
		return parked
	}
	if !c.AllArrived && len(parked) > 0 {
		patience := c.Patience
		if patience <= 0 {
			patience = defaultPatience
		}
		c.waiting++
		if c.waiting > patience {
			c.TimedOut++
			c.done = true
			return parked
		}
	} else {
		c.waiting = 0
	}
	return nil
}

// MultiAttempt is one explored permutation.
type MultiAttempt struct {
	Order      []int
	AllArrived bool
	Forced     int
	TimedOut   int
	Result     *rt.Result
}

func (a *MultiAttempt) String() string {
	return fmt.Sprintf("order=%v arrived=%v forced=%d timeout=%d %s",
		a.Order, a.AllArrived, a.Forced, a.TimedOut, a.Result.Summary())
}

// Permutations returns every permutation of 0..n-1 in lexicographic order.
// n is capped at 6 (720 restarts) to keep explorations bounded.
func Permutations(n int) ([][]int, error) {
	if n < 1 || n > 6 {
		return nil, fmt.Errorf("trigger: permutation exploration supports 1..6 parties, got %d", n)
	}
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
	return out, nil
}

// ExploreAll restarts the workload once per ordering permutation of the
// given points (paper §5.1) and returns every attempt.
func ExploreAll(w *rt.Workload, points []Point, opts Options) ([]MultiAttempt, error) {
	perms, err := Permutations(len(points))
	if err != nil {
		return nil, err
	}
	var out []MultiAttempt
	for _, order := range perms {
		ctrl, err := NewMultiController(points, order)
		if err != nil {
			return nil, err
		}
		res, err := rt.Run(w, rt.Options{Seed: opts.Seed, MaxSteps: opts.MaxSteps, Trigger: ctrl})
		if err != nil {
			return nil, err
		}
		out = append(out, MultiAttempt{
			Order:      order,
			AllArrived: ctrl.AllArrived,
			Forced:     ctrl.Forced,
			TimedOut:   ctrl.TimedOut,
			Result:     res,
		})
	}
	return out, nil
}

// SummarizeAttempts renders one line per attempt.
func SummarizeAttempts(attempts []MultiAttempt) string {
	var b strings.Builder
	for i := range attempts {
		fmt.Fprintf(&b, "%s\n", &attempts[i])
	}
	return b.String()
}
