// Package trigger implements DCatch's bug triggering and validation module
// (paper §5): an infrastructure for manipulating the timing of two program
// points in a distributed run, a placement analysis that chooses where to
// attach the request/confirm coordination calls so the exploration cannot
// hang, and a validator that explores both orders of a DCbug candidate and
// classifies it as serial, benign, or harmful.
package trigger

import (
	"fmt"

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

func (p Point) String() string {
	if p.Node != "" {
		return fmt.Sprintf("stmt %d (execution %d on %s)", p.StaticID, p.Seq, p.Node)
	}
	return fmt.Sprintf("stmt %d (instance %d)", p.StaticID, p.Instance)
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

type phase uint8

const (
	phWaiting       phase = iota // waiting for both parties' requests
	phFirstRunning               // first party granted, awaiting its confirm
	phSecondRunning              // second party granted
	phDone
)

// Controller coordinates one controlled run: it parks the two parties when
// they reach their points and grants them permission in the configured
// order, mirroring the paper's message-controller server (§5.1). It
// implements rt.TriggerController.
type Controller struct {
	points [2]Point
	// order[0] is the party index granted first.
	order [2]int

	arrived [2]int32 // thread IDs parked at each party's point (0 = not arrived)
	served  [2]bool  // party's point already intercepted
	confirm [2]bool  // party's statement executed (confirm received)

	ph phase

	// BothArrived records whether the two parties were ever parked
	// simultaneously — the evidence that the pair is truly concurrent.
	BothArrived bool
	// Forced counts releases granted only because the cluster had
	// quiesced (the other party could not arrive): evidence of ordering.
	Forced int
	// TimedOut counts patience-expiry releases: a party waited so long
	// for its peer (while the cluster kept running, e.g. spinning in a
	// poll loop) that the controller gave up — also ordering evidence.
	TimedOut int

	// Patience is how many scheduler iterations a lone party may wait
	// for its peer before being released. 0 selects the default.
	Patience int
	waiting  int
}

const defaultPatience = 40_000

// NewController builds a controller that makes party `first` (0 or 1) win
// the race.
func NewController(a, b Point, first int) *Controller {
	return &Controller{points: [2]Point{a, b}, order: [2]int{first, 1 - first}}
}

// BeforeStmt implements rt.TriggerController: it is the request call site.
func (c *Controller) BeforeStmt(info rt.TrigInfo) bool {
	if c.ph == phDone {
		return false
	}
	for party := 0; party < 2; party++ {
		if c.served[party] || !c.points[party].matches(info) {
			continue
		}
		c.served[party] = true
		c.arrived[party] = info.Thread
		if c.arrived[0] != 0 && c.arrived[1] != 0 && c.ph == phWaiting {
			c.BothArrived = true
		}
		return true
	}
	return false
}

// AfterStmt implements rt.TriggerController: the confirm call site.
func (c *Controller) AfterStmt(info rt.TrigInfo) {
	for party := 0; party < 2; party++ {
		if c.served[party] && !c.confirm[party] && c.arrived[party] == info.Thread &&
			c.points[party].StaticID == info.StaticID {
			c.confirm[party] = true
			if party == c.order[0] && c.ph == phFirstRunning {
				c.ph = phSecondRunning
			}
			return
		}
	}
}

// Release implements rt.TriggerController; the scheduler calls it each
// iteration with the trigger-parked threads.
func (c *Controller) Release(parked []int32, quiesced bool) []int32 {
	has := func(id int32) bool {
		for _, p := range parked {
			if p == id {
				return true
			}
		}
		return false
	}
	switch c.ph {
	case phWaiting:
		if c.BothArrived && has(c.arrived[c.order[0]]) && has(c.arrived[c.order[1]]) {
			c.ph = phFirstRunning
			return []int32{c.arrived[c.order[0]]}
		}
	case phSecondRunning:
		second := c.arrived[c.order[1]]
		if has(second) {
			c.ph = phDone
			return []int32{second}
		}
	}
	if quiesced && len(parked) > 0 {
		// The cluster cannot make progress while a party waits: the
		// other party is causally blocked behind it. Release to avoid
		// an artificial hang; this is evidence the pair is ordered.
		c.Forced++
		if c.ph == phWaiting {
			c.ph = phDone
		}
		return parked
	}
	// Patience: a lone party whose peer never shows up while the rest of
	// the cluster keeps running (e.g. spinning in a poll loop that the
	// parked party gates) is eventually released.
	if c.ph == phWaiting && len(parked) > 0 && !c.BothArrived {
		patience := c.Patience
		if patience <= 0 {
			patience = defaultPatience
		}
		c.waiting++
		if c.waiting > patience {
			c.TimedOut++
			c.ph = phDone
			return parked
		}
	} else {
		c.waiting = 0
	}
	return nil
}
