// Package a is the surface gate's fixture: dead identifiers, among them
// two that only refer to themselves and one that only a dead one calls,
// one method that only an interface reaches, one allowlisted function with
// a callee it keeps alive, and one live function.
package a

// Namer is the interface that reaches T.Name.
type Namer interface{ Name() string }

// T is returned by Live.
type T struct{}

// Name has no direct caller; it satisfies Namer.
func (T) Name() string { return "t" }

// Live has a product caller.
func Live() Namer { return T{} }

// Dead has no caller outside a test.
func Dead() { OnlyDead() }

// OnlyDead's only caller is Dead, so it is dead too.
func OnlyDead() {}

// Allowed has no caller but is on the allowlist.
func Allowed() { OnlyAllowed() }

// OnlyAllowed's only caller is Allowed, which the allowlist keeps.
func OnlyAllowed() {}

// Recursive calls only itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Orphan is named only by its own method's receiver.
type Orphan struct{}

// Name satisfies Namer, so it is exempt; Orphan is not.
func (Orphan) Name() string { return "orphan" }
