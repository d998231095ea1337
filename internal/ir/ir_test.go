package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	if !Null().IsNull() || IntV(1).IsNull() {
		t.Fatal("IsNull wrong")
	}
	cases := []struct {
		v    Value
		want bool
	}{
		{Null(), false},
		{IntV(0), false},
		{IntV(-3), true},
		{StrV(""), false},
		{StrV("x"), true},
		{BoolV(true), true},
		{BoolV(false), false},
	}
	for _, c := range cases {
		if c.v.Truthy() != c.want {
			t.Errorf("Truthy(%s) = %v, want %v", c.v, c.v.Truthy(), c.want)
		}
	}
	if !IntV(5).Eq(IntV(5)) || IntV(5).Eq(IntV(6)) || IntV(5).Eq(StrV("5")) {
		t.Fatal("Eq wrong for ints")
	}
	if !Null().Eq(Null()) || Null().Eq(IntV(0)) {
		t.Fatal("Eq wrong for null")
	}
	if IntV(42).String() != "42" || StrV("a").String() != "a" || BoolV(true).String() != "true" {
		t.Fatal("String wrong")
	}
}

func TestExprLocals(t *testing.T) {
	e := And(Eq(L("a"), I(1)), Bin{OpOr, NotE(L("b")), IsNull(L("c"))})
	set := ExprLocals(e)
	for _, n := range []string{"a", "b", "c"} {
		if !set[n] {
			t.Errorf("missing local %q in %v", n, set)
		}
	}
	if len(set) != 3 {
		t.Errorf("got %d locals, want 3", len(set))
	}
	if len(ExprLocals(nil)) != 0 {
		t.Error("nil expr has locals")
	}
	if len(ExprLocals(Cat(S("a"), Self()))) != 0 {
		t.Error("const/self expr has locals")
	}
}

func buildToy(t *testing.T) *Program {
	t.Helper()
	b := NewProgram("toy")
	m := b.Func("main")
	m.Write("jMap", S("j1"), I(1))
	m.Spawn("h", "worker", I(5))
	m.Join("h")
	m.RPC("r", S("nodeB"), "getTask", S("j1"))
	m.If(IsNull(L("r")), func(bb *BlockBuilder) {
		bb.LogError("task missing")
	})
	w := b.Func("worker", "n")
	w.While(Lt(L("i"), L("n")), func(bb *BlockBuilder) {
		bb.Assign("i", Add(L("i"), I(1)))
	})
	g := b.RPC("getTask", "jid")
	g.Read("jMap", L("jid"), "task")
	g.Return(L("task"))
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestFinalizeAssignsIDs(t *testing.T) {
	p := buildToy(t)
	if !p.Finalized() {
		t.Fatal("not finalized")
	}
	n := p.NumStmts()
	if n == 0 {
		t.Fatal("no statements")
	}
	seen := map[int]bool{}
	p.Walk(func(fn *Func, st Stmt) {
		m := st.Meta()
		if m.ID < 0 || m.ID >= n {
			t.Fatalf("stmt %s has out-of-range ID %d", m.Pos, m.ID)
		}
		if seen[m.ID] {
			t.Fatalf("duplicate static ID %d", m.ID)
		}
		seen[m.ID] = true
		if p.Stmt(m.ID) != st {
			t.Fatalf("Stmt(%d) does not round-trip", m.ID)
		}
		if m.Fn != fn.Name {
			t.Fatalf("stmt %s has Fn=%q, want %q", m.Pos, m.Fn, fn.Name)
		}
		if !strings.HasPrefix(m.Pos, fn.Name+"#") {
			t.Fatalf("Pos %q not prefixed by function name", m.Pos)
		}
	})
	if len(seen) != n {
		t.Fatalf("walked %d stmts, table has %d", len(seen), n)
	}
}

func TestNestedStmtsGetIDs(t *testing.T) {
	p := buildToy(t)
	// The LogError inside the If must be in the table.
	found := p.FindStmt("main", func(st Stmt) bool {
		l, ok := st.(*Log)
		return ok && l.Sev == SevError
	})
	if found == nil {
		t.Fatal("nested LogError not reachable via FindStmt")
	}
	if found.Meta().Fn != "main" {
		t.Fatal("Fn wrong for nested stmt")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(*ProgramBuilder)
		want  string
	}{
		{
			"undefined call",
			func(b *ProgramBuilder) { b.Func("main").Call("", "nope") },
			"undefined",
		},
		{
			"kind mismatch rpc",
			func(b *ProgramBuilder) {
				b.Func("main").RPC("", S("n"), "helper")
				b.Func("helper")
			},
			"kind",
		},
		{
			"kind mismatch enqueue",
			func(b *ProgramBuilder) {
				b.Func("main").Enqueue("q", "helper")
				b.Func("helper")
			},
			"kind",
		},
		{
			"arg count",
			func(b *ProgramBuilder) {
				b.Func("main").Call("", "helper", I(1), I(2))
				b.Func("helper", "x")
			},
			"args",
		},
		{
			"watch handler arity",
			func(b *ProgramBuilder) {
				b.Func("main").ZKWatch(S("/x"), "onX")
				b.Event("onX", "path")
			},
			"args",
		},
		{
			"spawn must target regular",
			func(b *ProgramBuilder) {
				b.Func("main").Spawn("", "h")
				b.Event("h")
			},
			"kind",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewProgram("bad")
			c.build(b)
			_, err := b.Build()
			if err == nil {
				t.Fatal("Build succeeded, want error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestDuplicateFunction(t *testing.T) {
	b := NewProgram("dup")
	b.Func("f")
	b.Func("f")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestEmptyProgram(t *testing.T) {
	if _, err := NewProgram("empty").Build(); err == nil {
		t.Fatal("empty program built")
	}
}

func TestDoubleFinalize(t *testing.T) {
	b := NewProgram("p")
	b.Func("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err == nil {
		t.Fatal("second Finalize succeeded")
	}
}

func TestUsesAndDefs(t *testing.T) {
	b := NewProgram("ud")
	f := b.Func("main")
	f.Read("m", L("k"), "v")
	f.Write("m", L("k2"), L("v"))
	f.Assign("x", Add(L("v"), I(1)))
	f.Call("ret", "g", L("x"))
	b.Func("g", "a").Return(L("a"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	main := p.Funcs["main"]
	rd := main.Body[0].(*Read)
	if got := rd.Defs(); len(got) != 1 || got[0] != "v" {
		t.Fatalf("Read.Defs = %v", got)
	}
	set := map[string]bool{}
	rd.Uses(set)
	if !set["k"] || len(set) != 1 {
		t.Fatalf("Read.Uses = %v", set)
	}
	wr := main.Body[1].(*Write)
	if len(wr.Defs()) != 0 {
		t.Fatal("Write defines a local")
	}
	set = map[string]bool{}
	wr.Uses(set)
	if !set["k2"] || !set["v"] {
		t.Fatalf("Write.Uses = %v", set)
	}
	call := main.Body[3].(*Call)
	if got := call.Defs(); len(got) != 1 || got[0] != "ret" {
		t.Fatalf("Call.Defs = %v", got)
	}
}

func TestStmtStrings(t *testing.T) {
	// Smoke-test String methods used in reports.
	b := NewProgram("s")
	f := b.Func("main")
	f.Read("jMap", S("j1"), "t")
	f.Remove("jMap", S("j1"))
	f.Sync("lk", nil, func(bb *BlockBuilder) { bb.Abort("bye") })
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"t = read jMap[j1]", "delete jMap[j1]", "sync lk"}
	for i, w := range want {
		if got := p.Funcs["main"].Body[i].String(); got != w {
			t.Errorf("String[%d] = %q, want %q", i, got, w)
		}
	}
}

// Property: every finalized program has a bijection between Walk order and
// the static-ID table, regardless of nesting depth.
func TestQuickIDBijection(t *testing.T) {
	f := func(depth uint8, width uint8) bool {
		d := int(depth%5) + 1
		w := int(width%3) + 1
		b := NewProgram("q")
		fb := b.Func("main")
		var fill func(bb *BlockBuilder, d int)
		fill = func(bb *BlockBuilder, d int) {
			for i := 0; i < w; i++ {
				bb.Assign("x", I(int64(i)))
				if d > 0 {
					bb.If(Eq(L("x"), I(0)), func(t2 *BlockBuilder) {
						fill(t2, d-1)
					})
				}
			}
		}
		fill(fb, d)
		p, err := b.Build()
		if err != nil {
			return false
		}
		count := 0
		ok := true
		p.Walk(func(_ *Func, st Stmt) {
			if p.Stmt(st.Meta().ID) != st {
				ok = false
			}
			count++
		})
		return ok && count == p.NumStmts()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPrintProgram(t *testing.T) {
	p := buildToy(t)
	out := PrintProgram(p)
	for _, want := range []string{
		"regular func main()",
		"rpc func getTask(jid)",
		"task = read jMap[jid]",
		"if isnull(r) {",
		"while (i < n) {",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
	// Every statement ID appears exactly once.
	for id := 0; id < p.NumStmts(); id++ {
		tag := "[" + itoaPad(id) + "]"
		if strings.Count(out, tag) != 1 {
			t.Errorf("ID %d appears %d times", id, strings.Count(out, tag))
		}
	}
}

func itoaPad(id int) string {
	s := ""
	if id < 100 {
		s += " "
	}
	if id < 10 {
		s += " "
	}
	return s + itoa(id)
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

// Walk applies visit to every statement of the program.
func (p *Program) Walk(visit func(fn *Func, st Stmt)) {
	for _, name := range p.FuncNames() {
		fn := p.Funcs[name]
		WalkFunc(fn, func(st Stmt) { visit(fn, st) })
	}
}
