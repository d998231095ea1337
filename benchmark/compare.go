package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method); a single value is
// its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func loadLedger(path string) (*ledger, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(buf, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if led.Version != ledgerVersion {
		return nil, fmt.Errorf("%s: ledger_version %d, this tool reads %d", path, led.Version, ledgerVersion)
	}
	return &led, nil
}

// values collects one end-to-end metric of one workload over a ledger's
// untraced runs.
func (l *ledger) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range l.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v)
		}
	}
	return out
}

// compare applies every end-to-end metric's bound to two ledgers, a the
// baseline and b the candidate, one row per workload × metric:
//
//	worse       b's median is worse than a's by more than the bound
//	unresolved  not worse, but either file's run-to-run spread exceeds the
//	            bound and b's runs do not all read better than a's
//	ok          otherwise
//
// It reports whether any row is worse.
func compare(aPath, bPath string) (worse bool, err error) {
	a, err := loadLedger(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadLedger(bPath)
	if err != nil {
		return false, err
	}
	fmt.Printf("%-14s %-18s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			av, bv := a.values(w.name, d.Name), b.values(w.name, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			ma, mb := median(av), median(bv)
			// change > 0 means b is worse.
			change := (mb - ma) / ma
			allBetter := slices.Max(bv) < slices.Min(av)
			if d.Better == "higher" {
				change = -change
				allBetter = slices.Min(bv) > slices.Max(av)
			}
			noise := max(spread(av), spread(bv))
			verdict := "ok"
			switch {
			case change > d.Bound:
				verdict = "worse"
				worse = true
			case noise > d.Bound && !allBetter:
				verdict = "unresolved"
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, ma, mb, 100*change, 100*noise, 100*d.Bound, verdict)
		}
		fa, fb := failures(a, w.name), failures(b, w.name)
		if fb > fa {
			worse = true
			fmt.Printf("%-14s %-18s %14d %14d %38s\n", w.name, "failed", fa, fb, "worse")
		}
	}
	return worse, nil
}

// failures sums a workload's failed jobs over a ledger's runs.
func failures(l *ledger, workload string) int {
	n := 0
	for _, r := range l.Runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}
