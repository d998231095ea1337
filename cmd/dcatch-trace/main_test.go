package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dcatch/internal/trace"
)

// TestBreakdownDeterministic runs the no-flag breakdown twice on a trace with
// several queues: the output must be the same bytes, with the queues in name
// order.
func TestBreakdownDeterministic(t *testing.T) {
	c := trace.NewCollector("queues")
	names := []string{"n2/q", "n0/q", "n3/q", "n1/q", "n4/q"}
	for i, q := range names {
		c.SetQueueInfo(q, 1+i%2)
		c.Emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: uint64(i + 1), Queue: q, StaticID: -1})
	}
	tr := c.Trace()

	var first, second bytes.Buffer
	writeBreakdown(&first, tr, true, 2)
	writeBreakdown(&second, tr, true, 2)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("breakdown differs between runs:\n%s\n---\n%s", first.String(), second.String())
	}
	var got []string
	for _, line := range strings.Split(first.String(), "\n") {
		if q, ok := strings.CutPrefix(line, "  queue "); ok {
			got = append(got, q[:strings.Index(q, ":")])
		}
	}
	want := slices.Sorted(slices.Values(names))
	if !slices.Equal(got, want) {
		t.Fatalf("queue lines in order %v, want %v", got, want)
	}
	if !strings.Contains(first.String(), "  ... 3 more\n") {
		t.Fatalf("dump limit not applied:\n%s", first.String())
	}
}
