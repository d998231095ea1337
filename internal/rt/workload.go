// Package rt executes IR subject programs on a simulated distributed
// cluster: multiple nodes, each with threads, FIFO event queues, RPC worker
// pools and socket messaging, plus a shared ZooKeeper-style coordination
// service (internal/zk).
//
// The runtime plays the role of the JVM in the original DCatch paper. A
// cooperative scheduler executes exactly one thread step (one IR statement)
// or one network delivery at a time, chosen pseudo-randomly from a seed, so
// runs are fully deterministic and replayable — which is what the trigger
// module (paper §5) relies on to re-execute a traced run while perturbing
// the timing of just two operations. Tracing hooks emit the records of
// paper Table 2 (internal/trace).
package rt

import (
	"fmt"
	"sort"
	"strings"

	"dcatch/internal/ir"
	"dcatch/internal/trace"
)

// MainSpec names an initial (non-daemon) thread of a node.
type MainSpec struct {
	Fn   string
	Args []ir.Value
}

// QueueSpec declares a FIFO event queue on a node. Consumers is the number
// of handler threads; exactly one consumer makes Rule-Eserial applicable
// (paper §2.2).
type QueueSpec struct {
	Name      string
	Consumers int
}

// NodeSpec declares one node of the cluster.
type NodeSpec struct {
	Name       string
	Mains      []MainSpec
	Queues     []QueueSpec
	RPCWorkers int // RPC handler threads; 0 = node serves no RPCs
	NetWorkers int // socket-message handler threads; 0 = node receives no messages
}

// Workload is a runnable subject configuration: a finalized program plus the
// cluster topology. The paper's per-benchmark "workload" (Table 3) maps to
// one Workload value.
type Workload struct {
	Name    string
	Program *ir.Program
	Nodes   []NodeSpec
}

// Validate checks the workload topology.
func (w *Workload) Validate() error {
	if w.Program == nil || !w.Program.Finalized() {
		return fmt.Errorf("rt: workload %q has no finalized program", w.Name)
	}
	if len(w.Nodes) == 0 {
		return fmt.Errorf("rt: workload %q has no nodes", w.Name)
	}
	seen := map[string]bool{}
	for _, n := range w.Nodes {
		if n.Name == "" {
			return fmt.Errorf("rt: workload %q has an unnamed node", w.Name)
		}
		if seen[n.Name] {
			return fmt.Errorf("rt: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
		for _, m := range n.Mains {
			f, ok := w.Program.Funcs[m.Fn]
			if !ok {
				return fmt.Errorf("rt: node %q main %q undefined", n.Name, m.Fn)
			}
			if f.Kind != ir.FuncRegular {
				return fmt.Errorf("rt: node %q main %q must be a regular function", n.Name, m.Fn)
			}
			if len(m.Args) != len(f.Params) {
				return fmt.Errorf("rt: node %q main %q arg count %d != %d", n.Name, m.Fn, len(m.Args), len(f.Params))
			}
		}
		qseen := map[string]bool{}
		for _, q := range n.Queues {
			if q.Consumers < 1 {
				return fmt.Errorf("rt: node %q queue %q needs >=1 consumer", n.Name, q.Name)
			}
			if qseen[q.Name] {
				return fmt.Errorf("rt: node %q duplicate queue %q", n.Name, q.Name)
			}
			qseen[q.Name] = true
		}
	}
	return nil
}

// StructureDump renders the cluster's concurrency structure — nodes, their
// thread pools and queues — reproducing the shape of paper Figure 4.
func (w *Workload) StructureDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s (program %s)\n", w.Name, w.Program.Name)
	for _, n := range w.Nodes {
		fmt.Fprintf(&b, "node %s\n", n.Name)
		for _, m := range n.Mains {
			fmt.Fprintf(&b, "  thread main %s\n", m.Fn)
		}
		if n.RPCWorkers > 0 {
			fmt.Fprintf(&b, "  rpc workers: %d\n", n.RPCWorkers)
		}
		if n.NetWorkers > 0 {
			fmt.Fprintf(&b, "  msg handlers: %d\n", n.NetWorkers)
		}
		for _, q := range n.Queues {
			kind := "multi-consumer"
			if q.Consumers == 1 {
				kind = "single-consumer"
			}
			fmt.Fprintf(&b, "  event queue %s (%s, %d thread(s))\n", q.Name, kind, q.Consumers)
		}
	}
	return b.String()
}

// FailKind classifies observed failures.
type FailKind uint8

// Failure kinds. ErrorLog and FatalLog correspond to Log::error/Log::fatal
// failure instructions (paper §4.1); Uncatchable to RuntimeException-class
// throws; AbortExit to System.exit; Hang covers both deadlocks and
// exhausted step budgets (infinite retry loops).
const (
	FailAbort FailKind = iota
	FailFatalLog
	FailErrorLog
	FailUncatchable
	FailHang
)

func (k FailKind) String() string {
	switch k {
	case FailAbort:
		return "abort"
	case FailFatalLog:
		return "fatal-log"
	case FailErrorLog:
		return "error-log"
	case FailUncatchable:
		return "uncatchable-exception"
	default:
		return "hang"
	}
}

// Failure is one observed failure.
type Failure struct {
	Kind     FailKind
	Node     string
	Msg      string
	StaticID int32 // failure instruction; -1 for hangs
}

func (f Failure) String() string {
	return fmt.Sprintf("%s@%s: %s (stmt %d)", f.Kind, f.Node, f.Msg, f.StaticID)
}

// Result summarizes one run.
type Result struct {
	Completed bool // all non-daemon threads finished or died
	Hang      bool
	HangInfo  string
	Steps     int
	Failures  []Failure
	// ThreadDeaths records threads killed by uncaught (catchable)
	// exceptions, with position info. Not failures by themselves.
	ThreadDeaths []string
	// LogLines collects Print and Log statement output in order.
	LogLines []string
}

// Failed reports whether the run observed any failure (including hangs).
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

// Summary renders a one-line outcome.
func (r *Result) Summary() string {
	switch {
	case r.Hang:
		return fmt.Sprintf("HANG after %d steps: %s", r.Steps, r.HangInfo)
	case len(r.Failures) > 0:
		msgs := make([]string, len(r.Failures))
		for i, f := range r.Failures {
			msgs[i] = f.String()
		}
		sort.Strings(msgs)
		return "FAILURES: " + strings.Join(msgs, "; ")
	default:
		return fmt.Sprintf("OK in %d steps", r.Steps)
	}
}

// TrigInfo describes a statement about to execute, passed to the trigger
// controller (paper §5.1's request/confirm client API attachment point).
type TrigInfo struct {
	Thread   int32
	Node     string
	StaticID int32
	// Dynamic instance counters of StaticID, 1-based, counting this call:
	// Seq on this thread, Instance cluster-wide, NodeSeq on this node.
	Seq      int
	Instance int
	NodeSeq  int
}

// TriggerController is implemented by internal/trigger. The runtime calls
// BeforeStmt before every statement; returning true parks the thread
// (request sent, permission not yet granted). AfterStmt runs right after a
// previously-parked statement executes (the confirm message). Release is
// consulted every scheduler iteration to wake parked threads; quiesced is
// true when nothing else in the cluster can run — the controller must then
// release someone or accept a reported hang.
type TriggerController interface {
	BeforeStmt(info TrigInfo) bool
	AfterStmt(info TrigInfo)
	Release(parked []int32, quiesced bool) []int32
}

// Options configures a run.
type Options struct {
	Seed     int64
	MaxSteps int // 0 = default

	// Collector receives trace records; nil disables tracing.
	Collector *trace.Collector
	// MemScope limits memory-access tracing to the named functions
	// (selective tracing, §3.1.1). nil with TraceMem=true means trace
	// everywhere (the Table 8 "unselective" configuration).
	MemScope map[string]bool
	// TraceMem enables memory-access tracing.
	TraceMem bool

	// PullLoops: While static IDs whose exits are recorded (KLoopExit),
	// and PullReads: Read static IDs whose records carry WriterSeq.
	// Both are set only on the focused second run of the loop-based
	// synchronization analysis (§3.2.1).
	PullLoops map[int32]bool
	PullReads map[int32]bool

	// Trigger, when non-nil, receives every statement execution.
	Trigger TriggerController
}

const defaultMaxSteps = 400_000
