// Package analysis implements DCatch's static analyses over the subject IR,
// playing the role WALA plays in the paper:
//
//   - Selective-tracing scope (§3.1.1): RPC functions, socket-operating
//     functions, event/message handlers, and their (transitive) callees.
//   - Failure-instruction identification (§4.1): aborts/exits, severe log
//     statements, uncatchable throws (plus throws whose catch block contains
//     a failure instruction), must-succeed coordination operations, and
//     loop exits (potential infinite loops).
//   - Impact analysis (§4.2): intra-procedural control/data dependence from
//     a candidate access to a failure instruction, one-level caller/callee
//     impact through return values, arguments and the heap, and distributed
//     impact through RPC return values.
//   - Loop-synchronization candidates (§3.2.1): poll loops whose exit
//     condition depends on a heap read, either locally or through an RPC
//     return value; these drive the focused second run and Rule-Mpull.
package analysis

import "dcatch/internal/ir"

// Config tunes failure-instruction identification — paper §4.1: "This list
// is configurable, allowing future DCatch extension to detect DCbugs with
// different failures."
type Config struct {
	// TreatWarningsAsFailures additionally treats Log.warn statements as
	// failure instructions, widening impact (more reports survive
	// pruning).
	TreatWarningsAsFailures bool
	// IgnoreLoopExits drops loop-exit instructions (the infinite-loop
	// failure class) from the failure set — a narrower configuration
	// that prunes more aggressively but misses hang bugs like MR-3274.
	IgnoreLoopExits bool
}

// Analysis holds per-program static facts.
type Analysis struct {
	Prog  *ir.Program
	cfg   Config
	funcs map[string]*funcInfo
	// rpcCallers maps an RPC function name to every RPCCall site that
	// invokes it.
	rpcCallers map[string][]*siteRef
	// callers maps a regular function name to its Call sites.
	callers map[string][]*siteRef
}

type siteRef struct {
	fi   *funcInfo
	call ir.Stmt // *ir.Call or *ir.RPCCall
}

// defEdge is one local-variable dataflow fact: executing the statement may
// make each name in defs depend on every name in uses.
type defEdge struct {
	uses map[string]bool
	defs []string
}

type funcInfo struct {
	fn  *ir.Func
	all []ir.Stmt

	// ctrl maps a statement's static ID to the locals its execution is
	// control-dependent on (conditions of enclosing If/While statements).
	ctrl map[int]map[string]bool

	// loops maps a statement's static ID to its enclosing While loops
	// (innermost first).
	loops map[int][]*ir.While

	failures []ir.Stmt
	returns  []*ir.Return
	reads    []*ir.Read
	writes   []*ir.Write
	calls    []*ir.Call
	rpcs     []*ir.RPCCall
	hasSend  bool
	edges    []defEdge
}

// New builds the analysis for a finalized program with the default failure
// configuration.
func New(prog *ir.Program) *Analysis { return NewWithConfig(prog, Config{}) }

// NewWithConfig builds the analysis with a custom failure configuration.
func NewWithConfig(prog *ir.Program, cfg Config) *Analysis {
	a := &Analysis{
		Prog:       prog,
		cfg:        cfg,
		funcs:      map[string]*funcInfo{},
		rpcCallers: map[string][]*siteRef{},
		callers:    map[string][]*siteRef{},
	}
	for _, name := range prog.FuncNames() {
		a.funcs[name] = a.buildFuncInfo(prog.Funcs[name])
	}
	for _, name := range prog.FuncNames() {
		fi := a.funcs[name]
		for _, c := range fi.calls {
			a.callers[c.Fn] = append(a.callers[c.Fn], &siteRef{fi: fi, call: c})
		}
		for _, r := range fi.rpcs {
			a.rpcCallers[r.Fn] = append(a.rpcCallers[r.Fn], &siteRef{fi: fi, call: r})
		}
	}
	return a
}

func usesOf(st ir.Stmt) map[string]bool {
	set := map[string]bool{}
	st.Uses(set)
	return set
}

func (a *Analysis) buildFuncInfo(fn *ir.Func) *funcInfo {
	fi := &funcInfo{
		fn:    fn,
		ctrl:  map[int]map[string]bool{},
		loops: map[int][]*ir.While{},
	}
	var walk func(body []ir.Stmt, ctrl map[string]bool, loops []*ir.While)
	walk = func(body []ir.Stmt, ctrl map[string]bool, loops []*ir.While) {
		for _, st := range body {
			id := st.Meta().ID
			fi.all = append(fi.all, st)
			fi.ctrl[id] = ctrl
			fi.loops[id] = loops
			if e := defEdgeOf(st); e != nil {
				// Control dependence taints definitions too: a
				// value assigned under a tainted branch carries
				// the taint.
				fi.edges = append(fi.edges, *e)
			}
			switch s := st.(type) {
			case *ir.Read:
				fi.reads = append(fi.reads, s)
			case *ir.Write:
				fi.writes = append(fi.writes, s)
			case *ir.Call:
				fi.calls = append(fi.calls, s)
			case *ir.RPCCall:
				fi.rpcs = append(fi.rpcs, s)
			case *ir.Send:
				fi.hasSend = true
			case *ir.Return:
				fi.returns = append(fi.returns, s)
			case *ir.If:
				sub := union(ctrl, usesOf(st))
				walk(s.Then, sub, loops)
				walk(s.Else, sub, loops)
				continue
			case *ir.While:
				sub := union(ctrl, usesOf(st))
				walk(s.Body, sub, append(append([]*ir.While{}, loops...), s))
				continue
			case *ir.Sync:
				walk(s.Body, ctrl, loops)
				continue
			case *ir.Try:
				walk(s.Body, ctrl, loops)
				walk(s.Catch, ctrl, loops)
				continue
			}
		}
	}
	walk(fn.Body, map[string]bool{}, nil)
	fi.failures = failureStmts(fi, a.cfg)
	return fi
}

func union(a, b map[string]bool) map[string]bool {
	u := make(map[string]bool, len(a)+len(b))
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return u
}

// defEdgeOf extracts the local dataflow of one statement, nil if it defines
// nothing.
func defEdgeOf(st ir.Stmt) *defEdge {
	defs := st.Defs()
	if len(defs) == 0 {
		return nil
	}
	return &defEdge{uses: usesOf(st), defs: defs}
}

// --- failure instructions (§4.1) -------------------------------------------

// failureStmts collects the failure instructions of one function.
func failureStmts(fi *funcInfo, cfg Config) []ir.Stmt {
	var fails []ir.Stmt
	isFailBlock := func(body []ir.Stmt) bool {
		found := false
		var scan func(b []ir.Stmt)
		scan = func(b []ir.Stmt) {
			for _, st := range b {
				if found {
					return
				}
				if directFailureCfg(st, cfg) {
					found = true
					return
				}
				for _, nb := range st.Bodies() {
					scan(nb)
				}
			}
		}
		scan(body)
		return found
	}
	// Throws answered by a catch block that itself fails are failure
	// instructions too (§4.1 last rule).
	throwFails := map[int]bool{}
	for _, st := range fi.all {
		tr, ok := st.(*ir.Try)
		if !ok || !isFailBlock(tr.Catch) {
			continue
		}
		var scan func(b []ir.Stmt)
		scan = func(b []ir.Stmt) {
			for _, s2 := range b {
				if th, ok := s2.(*ir.Throw); ok && (tr.Exc == "" || tr.Exc == th.Exc) {
					throwFails[th.Meta().ID] = true
				}
				for _, nb := range s2.Bodies() {
					scan(nb)
				}
			}
		}
		scan(tr.Body)
	}
	for _, st := range fi.all {
		if directFailureCfg(st, cfg) || throwFails[st.Meta().ID] {
			fails = append(fails, st)
			continue
		}
		if cfg.IgnoreLoopExits {
			continue
		}
		switch st.(type) {
		case *ir.While, *ir.Break:
			// Loop-exit instructions: a candidate access that the
			// exit condition depends on can cause an infinite loop.
			fails = append(fails, st)
		}
	}
	return fails
}

// directFailureCfg extends directFailure with the configuration knobs.
func directFailureCfg(st ir.Stmt, cfg Config) bool {
	if directFailure(st) {
		return true
	}
	if cfg.TreatWarningsAsFailures {
		if l, ok := st.(*ir.Log); ok && l.Sev == ir.SevWarn {
			return true
		}
	}
	return false
}

// directFailure reports statements that are failure instructions by
// themselves.
func directFailure(st ir.Stmt) bool {
	switch s := st.(type) {
	case *ir.Abort:
		return true
	case *ir.Log:
		return s.Sev == ir.SevError || s.Sev == ir.SevFatal
	case *ir.Throw:
		return ir.UncatchableExcs[s.Exc]
	case *ir.ZKCreate:
		return s.Must
	case *ir.ZKSet:
		return s.Must
	case *ir.ZKDelete:
		return s.Must
	}
	return false
}

// --- taint closures ---------------------------------------------------------

// forwardClosure grows seed along def edges: anything computed from a
// tainted local becomes tainted.
func forwardClosure(fi *funcInfo, seed map[string]bool) map[string]bool {
	set := union(seed, nil)
	for changed := true; changed; {
		changed = false
		for _, e := range fi.edges {
			hit := false
			for u := range e.uses {
				if set[u] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for _, d := range e.defs {
				if !set[d] {
					set[d] = true
					changed = true
				}
			}
		}
	}
	return set
}

// reverseClosure grows seed backwards along def edges: anything a tainted
// local was computed from becomes tainted.
func reverseClosure(fi *funcInfo, seed map[string]bool) map[string]bool {
	set := union(seed, nil)
	for changed := true; changed; {
		changed = false
		for _, e := range fi.edges {
			hit := false
			for _, d := range e.defs {
				if set[d] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for u := range e.uses {
				if !set[u] {
					set[u] = true
					changed = true
				}
			}
		}
	}
	return set
}

func intersects(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// failureDependsOn reports whether any failure instruction of fi has a
// control or data dependence on the tainted locals.
func failureDependsOn(fi *funcInfo, taint map[string]bool) bool {
	if len(taint) == 0 {
		return false
	}
	for _, f := range fi.failures {
		if intersects(usesOf(f), taint) {
			return true
		}
		if intersects(fi.ctrl[f.Meta().ID], taint) {
			return true
		}
	}
	return false
}

// returnTaint reports whether fi's return value depends on the taint.
func returnTaint(fi *funcInfo, taint map[string]bool) bool {
	for _, r := range fi.returns {
		if intersects(usesOf(r), taint) {
			return true
		}
		if intersects(fi.ctrl[r.Meta().ID], taint) {
			return true
		}
	}
	return false
}

// heapSeed taints the destinations of fi's reads of heap variable hvar.
func heapSeed(fi *funcInfo, hvar string) map[string]bool {
	seed := map[string]bool{}
	for _, r := range fi.reads {
		if r.Var == hvar {
			seed[r.Dst] = true
		}
	}
	return seed
}
