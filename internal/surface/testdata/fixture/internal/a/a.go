// Package a is the surface gate's fixture: dead identifiers, among them
// two that only refer to themselves, one method that only an interface
// reaches, one allowlisted function and one live one.
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
func Dead() {}

// Allowed has no caller but is on the allowlist.
func Allowed() {}

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
