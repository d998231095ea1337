package a

import "testing"

// A use in a test file does not keep Dead alive.
func TestDead(t *testing.T) { Dead() }
