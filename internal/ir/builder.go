package ir

import "fmt"

// ProgramBuilder accumulates function definitions and produces a finalized
// Program. Subject systems use it to express their logic concisely:
//
//	b := ir.NewProgram("minimr")
//	f := b.RPC("AM.getTask", "jid")
//	f.Read("jMap", ir.L("jid"), "task")
//	f.Return(ir.L("task"))
//	prog, err := b.Build()
type ProgramBuilder struct {
	prog *Program
	errs []error
}

// NewProgram starts a program builder.
func NewProgram(name string) *ProgramBuilder {
	return &ProgramBuilder{prog: &Program{Name: name, Funcs: map[string]*Func{}}}
}

func (b *ProgramBuilder) fn(name string, kind FuncKind, params []string) *BlockBuilder {
	if _, dup := b.prog.Funcs[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("ir: duplicate function %q", name))
	}
	f := &Func{Name: name, Kind: kind, Params: params}
	b.prog.Funcs[name] = f
	return &BlockBuilder{fn: f, body: &f.Body}
}

// Func declares a regular function (thread mains and callees).
func (b *ProgramBuilder) Func(name string, params ...string) *BlockBuilder {
	return b.fn(name, FuncRegular, params)
}

// RPC declares an RPC function.
func (b *ProgramBuilder) RPC(name string, params ...string) *BlockBuilder {
	return b.fn(name, FuncRPC, params)
}

// Event declares an event-handler function.
func (b *ProgramBuilder) Event(name string, params ...string) *BlockBuilder {
	return b.fn(name, FuncEvent, params)
}

// Msg declares a socket-message-handler function.
func (b *ProgramBuilder) Msg(name string, params ...string) *BlockBuilder {
	return b.fn(name, FuncMsg, params)
}

// WatchHandler declares an event-handler with the (path, data, kind)
// signature that ZKWatch requires.
func (b *ProgramBuilder) WatchHandler(name string) *BlockBuilder {
	return b.fn(name, FuncEvent, []string{"path", "data", "kind"})
}

// Build finalizes and returns the program.
func (b *ProgramBuilder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if err := b.prog.Finalize(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustBuild is Build for tests and fixed subject programs; it panics on
// error.
func (b *ProgramBuilder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// BlockBuilder appends statements to one statement block (a function body or
// a nested block of If/While/Sync/Try).
type BlockBuilder struct {
	fn   *Func
	body *[]Stmt
}

func (bb *BlockBuilder) push(s Stmt) { *bb.body = append(*bb.body, s) }

func sub(fn *Func, body *[]Stmt) *BlockBuilder { return &BlockBuilder{fn: fn, body: body} }

// Read appends: dst = read var[key]. key may be nil.
func (bb *BlockBuilder) Read(v string, key Expr, dst string) {
	bb.push(&Read{Var: v, Key: key, Dst: dst})
}

// Write appends: write var[key] = val.
func (bb *BlockBuilder) Write(v string, key Expr, val Expr) {
	bb.push(&Write{Var: v, Key: key, Val: val})
}

// Remove appends a deleting write: delete var[key].
func (bb *BlockBuilder) Remove(v string, key Expr) {
	bb.push(&Write{Var: v, Key: key, Delete: true})
}

// Assign appends: dst = e.
func (bb *BlockBuilder) Assign(dst string, e Expr) {
	bb.push(&Assign{Dst: dst, E: e})
}

// If appends a conditional; then and els (optional) populate the branches.
func (bb *BlockBuilder) If(cond Expr, then func(*BlockBuilder), els ...func(*BlockBuilder)) {
	s := &If{Cond: cond}
	bb.push(s)
	then(sub(bb.fn, &s.Then))
	if len(els) > 0 && els[0] != nil {
		els[0](sub(bb.fn, &s.Else))
	}
}

// While appends a loop.
func (bb *BlockBuilder) While(cond Expr, body func(*BlockBuilder)) {
	s := &While{Cond: cond}
	bb.push(s)
	body(sub(bb.fn, &s.Body))
}

// Break appends a break.
func (bb *BlockBuilder) Break() { bb.push(&Break{}) }

// Call appends: dst = call fn(args...). dst may be "".
func (bb *BlockBuilder) Call(dst, fn string, args ...Expr) {
	bb.push(&Call{Fn: fn, Args: args, Dst: dst})
}

// RPC appends: dst = rpc fn@target(args...). dst may be "".
func (bb *BlockBuilder) RPC(dst string, target Expr, fn string, args ...Expr) {
	bb.push(&RPCCall{Target: target, Fn: fn, Args: args, Dst: dst})
}

// Send appends an asynchronous message.
func (bb *BlockBuilder) Send(target Expr, fn string, args ...Expr) {
	bb.push(&Send{Target: target, Fn: fn, Args: args})
}

// Spawn appends a thread creation; handle may be "".
func (bb *BlockBuilder) Spawn(handle, fn string, args ...Expr) {
	bb.push(&Spawn{Fn: fn, Args: args, Handle: handle})
}

// Join appends a thread join on local handle.
func (bb *BlockBuilder) Join(handle string) { bb.push(&Join{Handle: handle}) }

// Enqueue appends an event enqueue on the local queue.
func (bb *BlockBuilder) Enqueue(queue, fn string, args ...Expr) {
	bb.push(&Enqueue{Queue: queue, Fn: fn, Args: args})
}

// Sync appends a critical section on lock[key]; key may be nil.
func (bb *BlockBuilder) Sync(lock string, key Expr, body func(*BlockBuilder)) {
	s := &Sync{Lock: lock, Key: key}
	bb.push(s)
	body(sub(bb.fn, &s.Body))
}

// ZKCreate appends a znode creation; ok may be "".
func (bb *BlockBuilder) ZKCreate(path, data Expr, ok string) {
	bb.push(&ZKCreate{Path: path, Data: data, Ok: ok})
}

// ZKCreateEphemeral appends an ephemeral znode creation.
func (bb *BlockBuilder) ZKCreateEphemeral(path, data Expr, ok string) {
	bb.push(&ZKCreate{Path: path, Data: data, Ephemeral: true, Ok: ok})
}

// ZKSet appends a znode update.
func (bb *BlockBuilder) ZKSet(path, data Expr, ok string) {
	bb.push(&ZKSet{Path: path, Data: data, Ok: ok})
}

// ZKDelete appends a znode deletion; ok may be "".
func (bb *BlockBuilder) ZKDelete(path Expr, ok string) {
	bb.push(&ZKDelete{Path: path, Ok: ok})
}

// ZKMustDelete appends a znode deletion that throws ZKFatal if missing.
func (bb *BlockBuilder) ZKMustDelete(path Expr) {
	bb.push(&ZKDelete{Path: path, Must: true})
}

// ZKGet appends a znode read; ok may be "".
func (bb *BlockBuilder) ZKGet(path Expr, dst, ok string) {
	bb.push(&ZKGet{Path: path, Dst: dst, Ok: ok})
}

// ZKWatch appends a persistent prefix watch handled by event function fn.
func (bb *BlockBuilder) ZKWatch(prefix Expr, fn string) {
	bb.push(&ZKWatch{Prefix: prefix, Fn: fn})
}

// LogInfo appends an informational log line (not a failure instruction).
func (bb *BlockBuilder) LogInfo(msg string, args ...Expr) {
	bb.push(&Log{Sev: SevInfo, Msg: msg, Args: args})
}

// LogWarn appends a warning (not a failure instruction).
func (bb *BlockBuilder) LogWarn(msg string, args ...Expr) {
	bb.push(&Log{Sev: SevWarn, Msg: msg, Args: args})
}

// LogError appends a severe error log — a failure instruction (§4.1).
func (bb *BlockBuilder) LogError(msg string, args ...Expr) {
	bb.push(&Log{Sev: SevError, Msg: msg, Args: args})
}

// LogFatal appends a fatal log — a failure instruction (§4.1).
func (bb *BlockBuilder) LogFatal(msg string, args ...Expr) {
	bb.push(&Log{Sev: SevFatal, Msg: msg, Args: args})
}

// Abort appends a node abort — a failure instruction (§4.1).
func (bb *BlockBuilder) Abort(msg string) { bb.push(&Abort{Msg: msg}) }

// Throw appends an exception throw.
func (bb *BlockBuilder) Throw(exc, msg string) {
	bb.push(&Throw{Exc: exc, Msg: msg})
}

// Try appends a try/catch; exc=="" catches everything; caught may be "".
func (bb *BlockBuilder) Try(body func(*BlockBuilder), exc, caught string, catch func(*BlockBuilder)) {
	s := &Try{Exc: exc, CaughtVar: caught}
	bb.push(s)
	body(sub(bb.fn, &s.Body))
	if catch != nil {
		catch(sub(bb.fn, &s.Catch))
	}
}

// Return appends a return; e may be nil.
func (bb *BlockBuilder) Return(e Expr) { bb.push(&Return{E: e}) }

// Sleep appends a timed park of the thread.
func (bb *BlockBuilder) Sleep(ticks int) { bb.push(&Sleep{Ticks: ticks}) }

// KillNode appends a node crash of target.
func (bb *BlockBuilder) KillNode(target Expr) {
	bb.push(&KillNode{Target: target})
}

// Print appends a run-log line.
func (bb *BlockBuilder) Print(msg string, args ...Expr) {
	bb.push(&Print{Msg: msg, Args: args})
}
