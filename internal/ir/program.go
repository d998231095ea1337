package ir

import (
	"fmt"
	"sort"
)

// FuncKind classifies functions by how they are invoked; the distinction
// drives both HB semantics (Rule-Preg vs Rule-Pnreg) and selective tracing.
type FuncKind uint8

// Function kinds.
const (
	// FuncRegular functions run in plain threads (thread mains and
	// ordinary callees). Program order within the thread applies
	// (Rule-Preg).
	FuncRegular FuncKind = iota
	// FuncRPC functions are invoked via RPCCall and executed by the
	// target node's RPC worker threads (Rule-Mrpc, Rule-Pnreg).
	FuncRPC
	// FuncEvent functions handle queue events and ZooKeeper watch
	// notifications (Rule-Eenq/Eserial/Mpush, Rule-Pnreg).
	FuncEvent
	// FuncMsg functions handle asynchronous socket messages
	// (Rule-Msoc, Rule-Pnreg).
	FuncMsg
)

func (k FuncKind) String() string {
	switch k {
	case FuncRPC:
		return "rpc"
	case FuncEvent:
		return "event"
	case FuncMsg:
		return "msg"
	default:
		return "regular"
	}
}

// Func is a function definition.
type Func struct {
	Name   string
	Kind   FuncKind
	Params []string
	Body   []Stmt
}

// Program is a finalized subject program: a set of functions with every
// statement assigned a program-unique static ID.
type Program struct {
	Name  string
	Funcs map[string]*Func

	stmts     []Stmt // index = static ID
	finalized bool
}

// Finalize assigns static IDs and positions, and validates the program:
// every referenced function must exist with the kind its call site demands,
// and argument counts must match parameter counts. It must be called once
// before the program is executed or analyzed.
func (p *Program) Finalize() error {
	if p.finalized {
		return fmt.Errorf("ir: program %q already finalized", p.Name)
	}
	if len(p.Funcs) == 0 {
		return fmt.Errorf("ir: program %q has no functions", p.Name)
	}
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)

	var errs []error
	for _, name := range names {
		fn := p.Funcs[name]
		if fn.Name != name {
			return fmt.Errorf("ir: function registered as %q but named %q", name, fn.Name)
		}
		seq := 0
		var walk func(body []Stmt)
		walk = func(body []Stmt) {
			for _, st := range body {
				m := st.Meta()
				m.ID = len(p.stmts)
				m.Fn = name
				m.Pos = fmt.Sprintf("%s#%d", name, seq)
				seq++
				p.stmts = append(p.stmts, st)
				if err := p.checkStmt(st); err != nil {
					errs = append(errs, err)
				}
				for _, b := range st.Bodies() {
					walk(b)
				}
			}
		}
		walk(fn.Body)
	}
	if len(errs) > 0 {
		return fmt.Errorf("ir: program %q invalid: %v", p.Name, errs[0])
	}
	p.finalized = true
	return nil
}

func (p *Program) checkTarget(site Stmt, fn string, nargs int, want FuncKind, how string) error {
	f, ok := p.Funcs[fn]
	if !ok {
		return fmt.Errorf("%s: %s targets undefined function %q", site.Meta().Pos, how, fn)
	}
	if f.Kind != want {
		return fmt.Errorf("%s: %s targets %q of kind %s, want %s", site.Meta().Pos, how, fn, f.Kind, want)
	}
	if nargs != len(f.Params) {
		return fmt.Errorf("%s: %s passes %d args to %q which takes %d", site.Meta().Pos, how, nargs, fn, len(f.Params))
	}
	return nil
}

func (p *Program) checkStmt(st Stmt) error {
	switch s := st.(type) {
	case *Call:
		return p.checkTarget(st, s.Fn, len(s.Args), FuncRegular, "call")
	case *RPCCall:
		return p.checkTarget(st, s.Fn, len(s.Args), FuncRPC, "rpc")
	case *Send:
		return p.checkTarget(st, s.Fn, len(s.Args), FuncMsg, "send")
	case *Spawn:
		return p.checkTarget(st, s.Fn, len(s.Args), FuncRegular, "spawn")
	case *Enqueue:
		return p.checkTarget(st, s.Fn, len(s.Args), FuncEvent, "enqueue")
	case *ZKWatch:
		// Watch handlers receive (path, data, kind).
		return p.checkTarget(st, s.Fn, 3, FuncEvent, "zk.watch")
	}
	return nil
}

// Finalized reports whether Finalize completed.
func (p *Program) Finalized() bool { return p.finalized }

// NumStmts returns the number of statements (static instructions).
func (p *Program) NumStmts() int { return len(p.stmts) }

// Stmt returns the statement with the given static ID.
func (p *Program) Stmt(id int) Stmt {
	if id < 0 || id >= len(p.stmts) {
		return nil
	}
	return p.stmts[id]
}

// Pos returns the human-readable position of static ID, or "?" if unknown.
func (p *Program) Pos(id int) string {
	if st := p.Stmt(id); st != nil {
		return st.Meta().Pos
	}
	return "?"
}

// FuncNames returns all function names, sorted.
func (p *Program) FuncNames() []string {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WalkFunc applies visit to every statement of fn, depth-first in source
// order.
func WalkFunc(fn *Func, visit func(Stmt)) {
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, st := range body {
			visit(st)
			for _, b := range st.Bodies() {
				walk(b)
			}
		}
	}
	walk(fn.Body)
}

// FindStmt returns the first statement of fn satisfying pred, or nil. It is
// a test and ground-truth convenience.
func (p *Program) FindStmt(fn string, pred func(Stmt) bool) Stmt {
	f, ok := p.Funcs[fn]
	if !ok {
		return nil
	}
	var found Stmt
	WalkFunc(f, func(st Stmt) {
		if found == nil && pred(st) {
			found = st
		}
	})
	return found
}
