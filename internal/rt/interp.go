package rt

import (
	"fmt"
	"strings"

	"dcatch/internal/ir"
	"dcatch/internal/trace"
	"dcatch/internal/zk"
)

// --- thread entry points ----------------------------------------------------

func (c *cluster) startMain(t *thread, m MainSpec) {
	c.start(t, func() {
		t.ctx = c.newCtx()
		t.ctxKind = trace.CtxRegular
		c.emit(t, trace.Rec{Kind: trace.KThreadBegin, Op: uint64(t.id), StaticID: -1})
		fl := t.invoke(c.prog.Funcs[m.Fn], m.Args, -1, nil)
		t.topLevel(fl, "main "+m.Fn)
	})
}

func (c *cluster) startSpawned(t *thread, fn string, args []ir.Value) {
	c.start(t, func() {
		t.ctx = c.newCtx()
		t.ctxKind = trace.CtxRegular
		c.emit(t, trace.Rec{Kind: trace.KThreadBegin, Op: uint64(t.id), StaticID: -1})
		fl := t.invoke(c.prog.Funcs[fn], args, -1, nil)
		t.topLevel(fl, "thread "+fn)
	})
}

type consumeKind uint8

const (
	consumeEvent consumeKind = iota
	consumeSock
	consumeWatch
)

func (c *cluster) startConsumer(t *thread, q *queue, ck consumeKind) {
	c.start(t, func() {
		for {
			for len(q.events) == 0 {
				q.waiting = append(q.waiting, t)
				if !t.block(brQueue) {
					return
				}
			}
			if t.killed {
				return
			}
			ev := q.events[0]
			q.events = q.events[1:]
			t.ctx = c.newCtx()
			switch ck {
			case consumeEvent:
				t.ctxKind = trace.CtxEvent
				c.emit(t, trace.Rec{Kind: trace.KEventBegin, Op: ev.id, Queue: q.name, StaticID: -1})
			case consumeSock:
				t.ctxKind = trace.CtxMsg
				c.emit(t, trace.Rec{Kind: trace.KSockRecv, Op: ev.sockTag, StaticID: -1})
			case consumeWatch:
				t.ctxKind = trace.CtxWatch
				c.emit(t, trace.Rec{Kind: trace.KZKPushed, Obj: ev.zkPath, Op: ev.zxid, StaticID: -1})
			}
			fl := t.invoke(c.prog.Funcs[ev.fn], ev.args, -1, nil)
			if t.killed || fl.kind == flowKill {
				return
			}
			if ck == consumeEvent {
				c.emit(t, trace.Rec{Kind: trace.KEventEnd, Op: ev.id, Queue: q.name, StaticID: -1})
			}
			if !t.topLevel(fl, fmt.Sprintf("handler %s", ev.fn)) {
				return
			}
		}
	})
}

func (c *cluster) startRPCWorker(t *thread) {
	c.start(t, func() {
		n := t.node
		for {
			for len(n.rpcPend) == 0 {
				n.rpcIdle = append(n.rpcIdle, t)
				if !t.block(brQueue) {
					return
				}
			}
			if t.killed {
				return
			}
			req := n.rpcPend[0]
			n.rpcPend = n.rpcPend[1:]
			n.rpcActive[req.tag] = req.caller
			t.ctx = c.newCtx()
			t.ctxKind = trace.CtxRPC
			c.emit(t, trace.Rec{Kind: trace.KRPCBegin, Op: req.tag, StaticID: -1})
			fl := t.invoke(c.prog.Funcs[req.fn], req.args, -1, nil)
			if t.killed || fl.kind == flowKill {
				return // crashNode already answered the caller
			}
			c.emit(t, trace.Rec{Kind: trace.KRPCEnd, Op: req.tag, StaticID: -1})
			if fl.kind == flowThrow && ir.UncatchableExcs[fl.exc] {
				// Node crash: crashNode answers this caller (the
				// request is still registered in rpcActive) and
				// every other in-flight one.
				t.topLevel(fl, "rpc "+req.fn)
				return
			}
			delete(n.rpcActive, req.tag)
			resp := message{kind: mRPCResp, caller: req.caller}
			switch fl.kind {
			case flowReturn:
				resp.val = fl.val
			case flowThrow:
				resp.errMsg = fmt.Sprintf("rpc %s threw %s: %s", req.fn, fl.exc, fl.msg)
			}
			c.network = append(c.network, resp)
		}
	})
}

// topLevel handles a flow escaping a thread or handler body. It returns
// false when the thread must stop (node crash).
func (t *thread) topLevel(fl flow, where string) bool {
	switch fl.kind {
	case flowThrow:
		if ir.UncatchableExcs[fl.exc] {
			t.c.res.Failures = append(t.c.res.Failures, Failure{
				Kind: FailUncatchable, Node: t.node.name,
				Msg: fmt.Sprintf("%s: %s (in %s)", fl.exc, fl.msg, where), StaticID: fl.excStatic,
			})
			t.c.logLine(fmt.Sprintf("%s CRASH uncaught %s in %s: %s", t.node.name, fl.exc, where, fl.msg))
			t.c.crashNode(t.node)
			return false
		}
		t.c.res.ThreadDeaths = append(t.c.res.ThreadDeaths,
			fmt.Sprintf("%s died in %s: %s: %s", t, where, fl.exc, fl.msg))
		t.c.logLine(fmt.Sprintf("%s WARN uncaught %s in %s: %s", t.node.name, fl.exc, where, fl.msg))
		return true
	case flowKill:
		return false
	}
	return true
}

// --- interpreter ------------------------------------------------------------

// invoke runs fn with args in a fresh frame.
func (t *thread) invoke(fn *ir.Func, args []ir.Value, callSite int32, parent *frame) flow {
	if fn == nil {
		panic("rt: invoke of nil function")
	}
	fr := &frame{fn: fn, locals: make(map[string]ir.Value, len(fn.Params)+4), callSite: callSite, parent: parent}
	for i, p := range fn.Params {
		if i < len(args) {
			fr.locals[p] = args[i]
		}
	}
	fl := t.execBlock(fr, fn.Body)
	if fl.kind == flowBreak {
		return normal
	}
	return fl
}

// step runs the pre-statement hooks: the trigger controller's request point
// and the per-statement scheduler yield. Returns false if the thread was
// killed while parked.
func (t *thread) step(st ir.Stmt) bool {
	m := st.Meta()
	t.pos = m.Pos
	// Scheduling point first, trigger hook second: the hook must run in
	// the same scheduler slot as the statement itself, so the
	// controller's dynamic-instance counting agrees with the order of
	// trace records from the detection run.
	if !t.yield() {
		return false
	}
	if trig := t.c.opts.Trigger; trig != nil {
		id := m.ID
		t.trigSeq[id]++
		t.c.trigInstance[id]++
		t.node.trigSeq[id]++
		info := TrigInfo{
			Thread: t.id, Node: t.node.name, StaticID: int32(id),
			Seq: t.trigSeq[id], Instance: t.c.trigInstance[id], NodeSeq: t.node.trigSeq[id],
		}
		if trig.BeforeStmt(info) {
			t.state = tsTrigParked
			if !t.yield() {
				return false
			}
			t.after, t.hasAfter = info, true
		}
	}
	return true
}

func (t *thread) execBlock(fr *frame, body []ir.Stmt) flow {
	for _, st := range body {
		if !t.step(st) {
			return flow{kind: flowKill}
		}
		fl := t.execStmt(fr, st)
		if t.hasAfter {
			t.hasAfter = false
			if !t.c.stopping {
				t.c.opts.Trigger.AfterStmt(t.after)
			}
		}
		if fl.kind != flowNormal {
			return fl
		}
	}
	return normal
}

// traceMemHere reports whether memory accesses in fr's function are traced:
// selective tracing covers the functions in MemScope (RPC / socket / event
// functions and their callees, §3.1.1); a nil scope traces everything
// (Table 8's unselective configuration).
func (t *thread) traceMemHere(fr *frame) bool {
	o := &t.c.opts
	if t.c.col == nil || !o.TraceMem {
		return false
	}
	return o.MemScope == nil || o.MemScope[fr.fn.Name]
}

func (t *thread) execStmt(fr *frame, st ir.Stmt) flow {
	c := t.c
	id := int32(st.Meta().ID)
	switch s := st.(type) {
	case *ir.Read:
		key := memKey(s.Var, t.evalKey(fr, s.Key), s.Key != nil)
		cl := t.node.getCell(key)
		v := ir.Null()
		if cl.present {
			v = cl.v
		}
		if t.traceMemHere(fr) {
			rec := trace.Rec{Kind: trace.KMemRead, Obj: t.node.memID(key), StaticID: id}
			if c.opts.PullReads[id] {
				rec.WriterSeq = cl.writerSeq
			}
			c.emitF(t, fr, rec)
		}
		fr.locals[s.Dst] = v
		return normal

	case *ir.Write:
		key := memKey(s.Var, t.evalKey(fr, s.Key), s.Key != nil)
		cl := t.node.getCell(key)
		var seq uint64
		if t.traceMemHere(fr) {
			seq = c.emitF(t, fr, trace.Rec{Kind: trace.KMemWrite, Obj: t.node.memID(key), StaticID: id})
		}
		if s.Delete {
			cl.present = false
			cl.v = ir.Null()
		} else {
			cl.present = true
			cl.v = t.eval(fr, s.Val)
		}
		cl.writerSeq = seq
		return normal

	case *ir.Assign:
		fr.locals[s.Dst] = t.eval(fr, s.E)
		return normal

	case *ir.If:
		if t.eval(fr, s.Cond).Truthy() {
			return t.execBlock(fr, s.Then)
		}
		return t.execBlock(fr, s.Else)

	case *ir.While:
		for t.eval(fr, s.Cond).Truthy() {
			fl := t.execBlock(fr, s.Body)
			switch fl.kind {
			case flowBreak:
				goto exited
			case flowNormal:
			default:
				return fl
			}
		}
	exited:
		if c.opts.PullLoops[id] && c.col != nil {
			c.emitF(t, fr, trace.Rec{Kind: trace.KLoopExit, Op: uint64(id), StaticID: id})
		}
		return normal

	case *ir.Break:
		return flow{kind: flowBreak}

	case *ir.Call:
		fl := t.invoke(c.prog.Funcs[s.Fn], t.evalArgs(fr, s.Args), id, fr)
		switch fl.kind {
		case flowReturn:
			if s.Dst != "" {
				fr.locals[s.Dst] = fl.val
			}
			return normal
		case flowNormal:
			if s.Dst != "" {
				fr.locals[s.Dst] = ir.Null()
			}
			return normal
		default:
			return fl
		}

	case *ir.RPCCall:
		target := t.eval(fr, s.Target).String()
		tag := c.tag()
		c.emitF(t, fr, trace.Rec{Kind: trace.KRPCCreate, Op: tag, StaticID: id})
		c.network = append(c.network, message{
			kind: mRPCReq, target: target, tag: tag, fn: s.Fn,
			args: t.evalArgs(fr, s.Args), caller: t,
		})
		if !t.block(brRPC) {
			return flow{kind: flowKill}
		}
		if t.rpcErr != "" {
			msg := t.rpcErr
			t.rpcErr = ""
			return throwFlow("RPCError", msg, id)
		}
		c.emitF(t, fr, trace.Rec{Kind: trace.KRPCJoin, Op: tag, StaticID: id})
		if s.Dst != "" {
			fr.locals[s.Dst] = t.rpcResult
		}
		t.rpcResult = ir.Null()
		return normal

	case *ir.Send:
		target := t.eval(fr, s.Target).String()
		tag := c.tag()
		c.emitF(t, fr, trace.Rec{Kind: trace.KSockSend, Op: tag, StaticID: id})
		c.network = append(c.network, message{
			kind: mSock, target: target, tag: tag, fn: s.Fn,
			args: t.evalArgs(fr, s.Args),
		})
		return normal

	case *ir.Spawn:
		nt := c.newThread(t.node, "thread:"+s.Fn, false)
		c.emitF(t, fr, trace.Rec{Kind: trace.KThreadCreate, Op: uint64(nt.id), StaticID: id})
		c.startSpawned(nt, s.Fn, t.evalArgs(fr, s.Args))
		if s.Handle != "" {
			fr.locals[s.Handle] = ir.IntV(int64(nt.id))
		}
		return normal

	case *ir.Join:
		h := fr.locals[s.Handle]
		target := c.threadByID(int32(h.I))
		if target == nil || h.K != ir.KInt {
			return throwFlow("RuntimeException", "join on invalid thread handle", id)
		}
		if !target.ended {
			target.joiners = append(target.joiners, t)
			if !t.block(brJoin) {
				return flow{kind: flowKill}
			}
		}
		c.emitF(t, fr, trace.Rec{Kind: trace.KThreadJoin, Op: uint64(target.id), StaticID: id})
		return normal

	case *ir.Enqueue:
		q, err := t.node.queue(s.Queue)
		if err != nil {
			return throwFlow("RuntimeException", err.Error(), id)
		}
		evID := c.tag()
		c.emitF(t, fr, trace.Rec{Kind: trace.KEventCreate, Op: evID, Queue: q.name, StaticID: id})
		q.push(c, event{id: evID, fn: s.Fn, args: t.evalArgs(fr, s.Args)})
		return normal

	case *ir.Sync:
		key := memKey(s.Lock, t.evalKey(fr, s.Key), s.Key != nil)
		ls, ok := t.node.locks[key]
		if !ok {
			ls = &lockState{}
			t.node.locks[key] = ls
		}
		for ls.holder != nil && ls.holder != t {
			ls.waiters = append(ls.waiters, t)
			if !t.block(brLock) {
				return flow{kind: flowKill}
			}
		}
		if t.killed {
			return flow{kind: flowKill}
		}
		if ls.holder == t {
			ls.depth++
		} else {
			ls.holder = t
			ls.depth = 1
		}
		lockID := t.node.memID(key)
		c.emitF(t, fr, trace.Rec{Kind: trace.KLockAcq, Obj: lockID, StaticID: id})
		fl := t.execBlock(fr, s.Body)
		ls.depth--
		if ls.depth == 0 {
			ls.holder = nil
			if !t.killed {
				c.emitF(t, fr, trace.Rec{Kind: trace.KLockRel, Obj: lockID, StaticID: id})
			}
			if len(ls.waiters) > 0 {
				w := ls.waiters[0]
				ls.waiters = ls.waiters[1:]
				c.wake(w)
			}
		}
		return fl

	case *ir.ZKCreate:
		path := t.eval(fr, s.Path).String()
		data := t.eval(fr, s.Data).String()
		zxid, ok, ns := c.zk.Create(path, data, t.node.name, s.Ephemeral)
		return t.zkMutation(fr, id, path, zxid, ok, ns, s.Must, s.Ok, "create")

	case *ir.ZKSet:
		path := t.eval(fr, s.Path).String()
		data := t.eval(fr, s.Data).String()
		zxid, ok, ns := c.zk.Set(path, data)
		return t.zkMutation(fr, id, path, zxid, ok, ns, s.Must, s.Ok, "set")

	case *ir.ZKDelete:
		path := t.eval(fr, s.Path).String()
		zxid, ok, ns := c.zk.Delete(path)
		return t.zkMutation(fr, id, path, zxid, ok, ns, s.Must, s.Ok, "delete")

	case *ir.ZKGet:
		path := t.eval(fr, s.Path).String()
		data, ok := c.zk.Get(path)
		if t.traceMemHere(fr) {
			c.emitF(t, fr, trace.Rec{Kind: trace.KMemRead, Obj: "zk:" + path, StaticID: id})
		}
		if s.Dst != "" {
			if ok {
				fr.locals[s.Dst] = ir.StrV(data)
			} else {
				fr.locals[s.Dst] = ir.Null()
			}
		}
		if s.Ok != "" {
			fr.locals[s.Ok] = ir.BoolV(ok)
		}
		return normal

	case *ir.ZKWatch:
		prefix := t.eval(fr, s.Prefix).String()
		c.zk.Watch(prefix, t.node.name, s.Fn)
		return normal

	case *ir.Log:
		line := t.logFmt(fr, s.Msg, s.Args)
		switch s.Sev {
		case ir.SevError:
			c.logLine(fmt.Sprintf("%s ERROR %s", t.node.name, line))
			c.res.Failures = append(c.res.Failures, Failure{Kind: FailErrorLog, Node: t.node.name, Msg: line, StaticID: id})
		case ir.SevFatal:
			c.logLine(fmt.Sprintf("%s FATAL %s", t.node.name, line))
			c.res.Failures = append(c.res.Failures, Failure{Kind: FailFatalLog, Node: t.node.name, Msg: line, StaticID: id})
		case ir.SevWarn:
			c.logLine(fmt.Sprintf("%s WARN %s", t.node.name, line))
		default:
			c.logLine(fmt.Sprintf("%s INFO %s", t.node.name, line))
		}
		return normal

	case *ir.Abort:
		c.res.Failures = append(c.res.Failures, Failure{Kind: FailAbort, Node: t.node.name, Msg: s.Msg, StaticID: id})
		c.logLine(fmt.Sprintf("%s ABORT %s", t.node.name, s.Msg))
		c.crashNode(t.node)
		return flow{kind: flowKill}

	case *ir.Throw:
		return throwFlow(s.Exc, s.Msg, id)

	case *ir.Try:
		fl := t.execBlock(fr, s.Body)
		if fl.kind == flowThrow && (s.Exc == "" || s.Exc == fl.exc) {
			if s.CaughtVar != "" {
				fr.locals[s.CaughtVar] = ir.StrV(fl.exc)
			}
			return t.execBlock(fr, s.Catch)
		}
		return fl

	case *ir.Return:
		v := ir.Null()
		if s.E != nil {
			v = t.eval(fr, s.E)
		}
		return flow{kind: flowReturn, val: v}

	case *ir.Sleep:
		t.state = tsSleeping
		t.wakeAt = c.steps + s.Ticks
		if !t.yield() {
			return flow{kind: flowKill}
		}
		return normal

	case *ir.KillNode:
		target := t.eval(fr, s.Target).String()
		n := c.nodes[target]
		if n == nil {
			return throwFlow("RuntimeException", "kill of unknown node "+target, id)
		}
		c.logLine(fmt.Sprintf("%s KILLED by %s", target, t.node.name))
		c.crashNode(n)
		if n == t.node {
			return flow{kind: flowKill}
		}
		return normal

	case *ir.Print:
		c.logLine(fmt.Sprintf("%s %s", t.node.name, t.logFmt(fr, s.Msg, s.Args)))
		return normal

	default:
		panic(fmt.Sprintf("rt: unknown statement %T at %s", st, st.Meta().Pos))
	}
}

// zkMutation emits the Update record and znode memory access for a
// coordination mutation, pushes watch notifications, and applies Must/Ok
// semantics. Failed mutations performed an existence check, so they emit a
// read access on the znode; successful ones a write — which is how DCatch
// sees znode operations as conflicting accesses (bug HB-4729).
func (t *thread) zkMutation(fr *frame, id int32, path string, zxid uint64, ok bool, ns []zk.Notification, must bool, okVar, op string) flow {
	c := t.c
	if ok {
		c.emitF(t, fr, trace.Rec{Kind: trace.KZKUpdate, Obj: path, Op: zxid, StaticID: id})
		if t.traceMemHere(fr) {
			c.emitF(t, fr, trace.Rec{Kind: trace.KMemWrite, Obj: "zk:" + path, StaticID: id})
		}
		c.pushNotifs(ns)
	} else {
		if t.traceMemHere(fr) {
			c.emitF(t, fr, trace.Rec{Kind: trace.KMemRead, Obj: "zk:" + path, StaticID: id})
		}
		if must {
			return throwFlow("ZKFatal", fmt.Sprintf("zk %s %s failed", op, path), id)
		}
	}
	if okVar != "" {
		fr.locals[okVar] = ir.BoolV(ok)
	}
	return normal
}

func (t *thread) evalKey(fr *frame, e ir.Expr) ir.Value {
	if e == nil {
		return ir.Null()
	}
	return t.eval(fr, e)
}

func (t *thread) evalArgs(fr *frame, args []ir.Expr) []ir.Value {
	vs := make([]ir.Value, len(args))
	for i, a := range args {
		vs[i] = t.eval(fr, a)
	}
	return vs
}

func (t *thread) logFmt(fr *frame, msg string, args []ir.Expr) string {
	if len(args) == 0 {
		return msg
	}
	parts := make([]string, 0, len(args)+1)
	parts = append(parts, msg)
	for _, a := range args {
		parts = append(parts, t.eval(fr, a).String())
	}
	return strings.Join(parts, " ")
}

func (t *thread) eval(fr *frame, e ir.Expr) ir.Value {
	switch x := e.(type) {
	case ir.Const:
		return x.V
	case ir.Local:
		return fr.locals[x.Name]
	case ir.SelfNode:
		return ir.StrV(t.node.name)
	case ir.Not:
		return ir.BoolV(!t.eval(fr, x.E).Truthy())
	case ir.IsNullE:
		return ir.BoolV(t.eval(fr, x.E).IsNull())
	case ir.Bin:
		l := t.eval(fr, x.L)
		r := t.eval(fr, x.R)
		return evalBin(x.Op, l, r)
	default:
		panic(fmt.Sprintf("rt: unknown expression %T", e))
	}
}

func evalBin(op ir.BinOp, l, r ir.Value) ir.Value {
	switch op {
	case ir.OpAdd:
		if l.K == ir.KInt && r.K == ir.KInt {
			return ir.IntV(l.I + r.I)
		}
		return ir.StrV(l.String() + r.String())
	case ir.OpSub:
		return ir.IntV(l.I - r.I)
	case ir.OpEq:
		return ir.BoolV(l.Eq(r))
	case ir.OpNe:
		return ir.BoolV(!l.Eq(r))
	case ir.OpAnd:
		return ir.BoolV(l.Truthy() && r.Truthy())
	case ir.OpOr:
		return ir.BoolV(l.Truthy() || r.Truthy())
	}
	// Ordered comparisons.
	var cmp int
	switch {
	case l.K == ir.KInt && r.K == ir.KInt:
		switch {
		case l.I < r.I:
			cmp = -1
		case l.I > r.I:
			cmp = 1
		}
	default:
		cmp = strings.Compare(l.String(), r.String())
	}
	switch op {
	case ir.OpLt:
		return ir.BoolV(cmp < 0)
	case ir.OpLe:
		return ir.BoolV(cmp <= 0)
	case ir.OpGt:
		return ir.BoolV(cmp > 0)
	case ir.OpGe:
		return ir.BoolV(cmp >= 0)
	}
	panic(fmt.Sprintf("rt: unknown binop %d", op))
}
