package bench

import (
	"fmt"
	"strings"
	"testing"

	"dcatch/internal/core"
	"dcatch/internal/trigger"
)

// confusion counts final report pairs by ground-truth label (rows) and
// triggering verdict (columns).
type confusion map[string]map[trigger.Verdict]int

var (
	truthRows     = []string{"bug", "benign", "serial", "unlabelled"}
	truthVerdicts = []trigger.Verdict{trigger.VerdictHarmful, trigger.VerdictBenign, trigger.VerdictSerial, trigger.VerdictUntriggered}
)

func (c confusion) add(kind string, v trigger.Verdict) {
	if kind == "" {
		kind = "unlabelled"
	}
	if c[kind] == nil {
		c[kind] = map[trigger.Verdict]int{}
	}
	c[kind][v]++
}

// String renders the matrix on one line, rows in truthRows order separated
// by " | ", cells in truthVerdicts order.
func (c confusion) String() string {
	rows := make([]string, len(truthRows))
	for i, k := range truthRows {
		cells := make([]string, len(truthVerdicts))
		for j, v := range truthVerdicts {
			cells[j] = fmt.Sprint(c[k][v])
		}
		rows[i] = k + " " + strings.Join(cells, " ")
	}
	return strings.Join(rows, " | ")
}

// TestVerdictConfusionMatrix is the truth oracle for the triggering module:
// for every final pair of the seven Table 4 subjects, validated as Table 4
// validates them, it pins the confusion matrix of (Benchmark.KnownKind,
// Verdict). Columns are harmful, benign, serial, untriggered; pairs the
// ground truth does not label are their own row. All 15 labelled pairs sit
// on the diagonal (bug→harmful, benign→benign, serial→serial); 3 of the 18
// final pairs carry no label: one benign on HB-4539 and one harmful on each
// MR subject. A cell that moves is a change in what the triggering module
// claims about a pair, not just in report bytes.
func TestVerdictConfusionMatrix(t *testing.T) {
	want := map[string]string{
		"CA-1011": "bug 2 0 0 0 | benign 0 1 0 0 | serial 0 0 0 0 | unlabelled 0 0 0 0",
		"HB-4539": "bug 1 0 0 0 | benign 0 1 0 0 | serial 0 0 0 0 | unlabelled 0 1 0 0",
		"HB-4729": "bug 1 0 0 0 | benign 0 1 0 0 | serial 0 0 0 0 | unlabelled 0 0 0 0",
		"MR-3274": "bug 1 0 0 0 | benign 0 1 0 0 | serial 0 0 0 0 | unlabelled 1 0 0 0",
		"MR-4637": "bug 1 0 0 0 | benign 0 1 0 0 | serial 0 0 0 0 | unlabelled 1 0 0 0",
		"ZK-1144": "bug 1 0 0 0 | benign 0 0 0 0 | serial 0 0 1 0 | unlabelled 0 0 0 0",
		"ZK-1270": "bug 1 0 0 0 | benign 0 0 0 0 | serial 0 0 1 0 | unlabelled 0 0 0 0",
		"total":   "bug 8 0 0 0 | benign 0 5 0 0 | serial 0 0 2 0 | unlabelled 2 1 0 0",
	}
	total := confusion{}
	for _, b := range Benchmarks() {
		res, err := Detect(b)
		if err != nil {
			t.Fatalf("%s: %v", b.ID, err)
		}
		c := confusion{}
		for _, v := range core.ValidateAll(res, core.TriggerOptions{MaxSteps: 200_000}) {
			kind := b.KnownKind(&v.Pair)
			c.add(kind, v.Verdict)
			total.add(kind, v.Verdict)
		}
		if got := c.String(); got != want[b.ID] {
			t.Errorf("%s confusion matrix:\n got %s\nwant %s", b.ID, got, want[b.ID])
		}
	}
	if got := total.String(); got != want["total"] {
		t.Errorf("total confusion matrix:\n got %s\nwant %s", got, want["total"])
	}
}
