package trigger

import (
	"fmt"
	"strings"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/rt"
	"dcatch/internal/trace"
)

// Verdict classifies a DCbug candidate after triggering (paper §7.1).
type Verdict uint8

// Verdicts.
const (
	// VerdictSerial: the two accesses never became concurrently pending;
	// custom synchronization orders them (a detector false positive).
	VerdictSerial Verdict = iota
	// VerdictBenign: both orders executed without failures.
	VerdictBenign
	// VerdictHarmful: some order produced a failure.
	VerdictHarmful
	// VerdictUntriggered: the run never reached one of the points.
	VerdictUntriggered
)

func (v Verdict) String() string {
	switch v {
	case VerdictSerial:
		return "serial"
	case VerdictBenign:
		return "benign"
	case VerdictHarmful:
		return "harmful"
	default:
		return "untriggered"
	}
}

// Attempt is one controlled run.
type Attempt struct {
	Order    []int // grant sequence: Order[0] is the party granted first
	Arrived  bool  // every party was parked simultaneously
	Forced   int
	TimedOut int
	Result   *rt.Result
}

// Validation is the outcome of validating one candidate.
type Validation struct {
	Pair      detect.Pair
	Placement [2]Placement
	Attempts  []Attempt
	Verdict   Verdict
}

// Summary renders a one-line outcome.
func (v *Validation) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)", v.Verdict, v.Pair.Obj)
	for _, at := range v.Attempts {
		fmt.Fprintf(&b, " [first=%d arrived=%v forced=%d timeout=%d %s]",
			at.Order[0], at.Arrived, at.Forced, at.TimedOut, at.Result.Summary())
	}
	return b.String()
}

// Options configures validation runs.
type Options struct {
	Seed     int64
	MaxSteps int
	// Naive disables the placement analysis and attaches requests
	// directly to the racing accesses — the baseline §7.2 compares
	// against ("the naive approach ... failed to confirm 23 reports").
	Naive bool
}

// Validate explores both orders of a candidate pair and classifies it. The
// trace and HB graph must come from the detection run of the same workload
// and seed, so that placement analysis and instance counting line up.
func Validate(w *rt.Workload, pair detect.Pair, tr *trace.Trace, g *hb.Graph, opts Options) Validation {
	rpcWorkers := map[string]int{}
	for _, n := range w.Nodes {
		rpcWorkers[n.Name] = n.RPCWorkers
	}
	v := Validation{Pair: pair}
	if opts.Naive {
		v.Placement = [2]Placement{
			{Point: directPoint(tr, pair.ARec), Moved: "naive placement"},
			{Point: directPoint(tr, pair.BRec), Moved: "naive placement"},
		}
	} else {
		v.Placement = Place(&pair, tr, g, rpcWorkers)
	}

	points := []Point{v.Placement[0].Point, v.Placement[1].Point}
	v.Attempts = explore(w, points, [][]int{{0, 1}, {1, 0}}, opts)
	v.Verdict = classify(v.Attempts)
	return v
}

// ExploreAll restarts the workload once per ordering permutation of the
// given points (paper §5.1: "until all ordering permutations among all the
// request parties are explored") and returns every attempt.
func ExploreAll(w *rt.Workload, points []Point, opts Options) ([]Attempt, error) {
	orders, err := Permutations(len(points))
	if err != nil {
		return nil, err
	}
	return explore(w, points, orders, opts), nil
}

// explore runs the workload once per grant order. A runtime error ends its
// attempt as a hang.
func explore(w *rt.Workload, points []Point, orders [][]int, opts Options) []Attempt {
	attempts := make([]Attempt, 0, len(orders))
	for _, order := range orders {
		ctrl, err := NewController(points, order)
		if err != nil {
			panic(err) // orders are permutations of the points by construction
		}
		res, err := rt.Run(w, rt.Options{Seed: opts.Seed, MaxSteps: opts.MaxSteps, Trigger: ctrl})
		if err != nil {
			res = &rt.Result{Hang: true, HangInfo: "runtime error: " + err.Error()}
		}
		attempts = append(attempts, Attempt{
			Order:    order,
			Arrived:  ctrl.Arrived,
			Forced:   ctrl.Forced,
			TimedOut: ctrl.TimedOut,
			Result:   res,
		})
	}
	return attempts
}

// Permutations returns every permutation of 0..n-1. n is capped at 6 (720
// restarts) to keep explorations bounded.
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

func classify(attempts []Attempt) Verdict {
	anyArrived := false
	anyReached := false
	anyFailed := false
	for _, at := range attempts {
		if at.Arrived {
			anyArrived = true
		}
		if at.Arrived || at.Forced > 0 || at.TimedOut > 0 {
			anyReached = true
		}
		if at.Result != nil && at.Result.Failed() {
			anyFailed = true
		}
	}
	switch {
	case anyArrived && anyFailed:
		return VerdictHarmful
	case anyArrived:
		return VerdictBenign
	case anyReached:
		// Points were reached but never concurrently pending: custom
		// synchronization orders them.
		if anyFailed {
			// Failure without concurrency means the perturbation
			// alone exposed it; report harmful to be safe.
			return VerdictHarmful
		}
		return VerdictSerial
	default:
		return VerdictUntriggered
	}
}
