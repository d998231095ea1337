package subjects

import (
	"fmt"

	"dcatch/internal/ir"
)

// MustID resolves the static ID of the first statement of fn matching pred,
// panicking when absent — ground-truth tables are fixed program facts.
func MustID(p *ir.Program, fn string, pred func(ir.Stmt) bool) int32 {
	st := p.FindStmt(fn, pred)
	if st == nil {
		panic(fmt.Sprintf("subjects: no matching statement in %s", fn))
	}
	return int32(st.Meta().ID)
}

// ReadOf resolves the first read of variable v in fn.
func ReadOf(p *ir.Program, fn, v string) int32 {
	return MustID(p, fn, func(st ir.Stmt) bool {
		r, ok := st.(*ir.Read)
		return ok && r.Var == v
	})
}

// WriteOf resolves the first non-deleting write of variable v in fn.
func WriteOf(p *ir.Program, fn, v string) int32 {
	return MustID(p, fn, func(st ir.Stmt) bool {
		w, ok := st.(*ir.Write)
		return ok && w.Var == v && !w.Delete
	})
}

// RemoveOf resolves the first deleting write of variable v in fn.
func RemoveOf(p *ir.Program, fn, v string) int32 {
	return MustID(p, fn, func(st ir.Stmt) bool {
		w, ok := st.(*ir.Write)
		return ok && w.Var == v && w.Delete
	})
}

// ZKDeleteOf resolves the first znode delete in fn.
func ZKDeleteOf(p *ir.Program, fn string) int32 {
	return MustID(p, fn, func(st ir.Stmt) bool {
		_, ok := st.(*ir.ZKDelete)
		return ok
	})
}
