// Package trigger implements DCatch's bug triggering and validation module
// (paper §5): an infrastructure for manipulating the timing of program
// points in a distributed run, a placement analysis that chooses where to
// attach the request/confirm coordination calls so the exploration cannot
// hang, and a validator that explores both orders of a DCbug candidate and
// classifies it as serial, benign, or harmful. ExploreAll restarts a run
// once per ordering permutation of N points.
package trigger

import (
	"fmt"
	"slices"

	"dcatch/internal/rt"
)

// Point is one party's request attachment point: a dynamic execution of the
// statement with the given static ID. When Node is set, the point is the
// Seq-th execution on that node — the robust identification the placement
// analysis uses, since a controlled run perturbs global ordering and
// worker-pool assignment but rarely moves an execution to another node.
// Otherwise it is the Instance-th execution globally; DCatch's prototype
// focuses on the first dynamic instance of each racing instruction (§5.2),
// so Instance is usually 1.
type Point struct {
	StaticID int32
	Instance int

	Node string
	Seq  int
}

func (p Point) matches(info rt.TrigInfo) bool {
	if p.StaticID != info.StaticID {
		return false
	}
	if p.Node != "" {
		return p.Node == info.Node && p.Seq == info.NodeSeq
	}
	return info.Instance == p.Instance
}

// Controller coordinates one controlled run over N parties, mirroring the
// paper's message-controller server (§5.1): it drives the grant machine
// from the rt scheduler, parking a party's thread when it reaches its point
// and releasing the thread the machine grants. When the cluster quiesces
// while a party waits, or a lone party outlives its patience, it releases
// the waiters instead of reporting an artificial hang (§5.2). It implements
// rt.TriggerController.
type Controller struct {
	points []Point
	thread []int32 // thread parked at each party's point (0 = not arrived)
	m      machine
	done   bool     // exploration over: no more parks or grants
	grant  [1]int32 // Release's answer when the machine grants

	// Arrived records whether every party was parked simultaneously — the
	// evidence that the parties are truly concurrent.
	Arrived bool
	// Forced counts releases granted only because the cluster had
	// quiesced (a party could not arrive or proceed): evidence of ordering.
	Forced int
	// TimedOut counts patience-expiry releases: a party waited so long
	// for its peers (while the cluster kept running, e.g. spinning in a
	// poll loop) that the controller gave up — also ordering evidence.
	TimedOut int

	// patience is how many scheduler iterations a party may wait for its
	// peers to arrive before being released.
	patience int
	waiting  int
}

const defaultPatience = 40_000

// NewController builds a controller for len(points) parties granted in the
// given order, a permutation of 0..len(points)-1.
func NewController(points []Point, order []int) (*Controller, error) {
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
	return &Controller{
		points:   append([]Point(nil), points...),
		thread:   make([]int32, len(points)),
		m:        newMachine(append([]int(nil), order...)),
		patience: defaultPatience,
	}, nil
}

// BeforeStmt implements rt.TriggerController: it is the request call site.
// Each party's point is intercepted once.
func (c *Controller) BeforeStmt(info rt.TrigInfo) bool {
	if c.done {
		return false
	}
	for party, id := range c.thread {
		if id != 0 || !c.points[party].matches(info) {
			continue
		}
		c.thread[party] = info.Thread
		c.m.park(party)
		c.Arrived = !slices.Contains(c.thread, 0)
		return true
	}
	return false
}

// AfterStmt implements rt.TriggerController: the confirm call site.
func (c *Controller) AfterStmt(info rt.TrigInfo) {
	for party, id := range c.thread {
		if id == info.Thread && c.points[party].StaticID == info.StaticID {
			c.m.confirm(party)
			return
		}
	}
}

// Release implements rt.TriggerController; the scheduler calls it each
// iteration with the trigger-parked threads.
func (c *Controller) Release(parked []int32, quiesced bool) []int32 {
	if !c.done && c.Arrived {
		// A party whose thread left the parked set without a grant (its
		// node was killed, or a quiesce released it) can no longer go.
		for party, id := range c.thread {
			if c.m.state[party] == partyParked && !slices.Contains(parked, id) {
				c.m.withdraw(party)
			}
		}
		if party, ok := c.m.next(); ok {
			c.done = c.m.granted == len(c.points)
			c.grant[0] = c.thread[party]
			return c.grant[:]
		}
	}
	if quiesced && len(parked) > 0 {
		// The cluster cannot make progress while a party waits: another
		// party is causally blocked behind it. Release to avoid an
		// artificial hang; this is evidence the parties are ordered.
		c.Forced++
		if c.m.granted == 0 {
			c.done = true
		}
		return parked
	}
	// Patience: a party whose peers never show up while the rest of the
	// cluster keeps running (e.g. spinning in a poll loop that the parked
	// party gates) is eventually released.
	if !c.done && c.m.granted == 0 && len(parked) > 0 && !c.Arrived {
		c.waiting++
		if c.waiting > c.patience {
			c.TimedOut++
			c.done = true
			return parked
		}
	} else {
		c.waiting = 0
	}
	return nil
}
