package serve

import (
	"fmt"
	"strings"

	"dcatch/internal/core"
	"dcatch/internal/subjects"
	"dcatch/internal/trigger"
)

// The subject runner and the report renderers are the single source of
// truth for detection output text: the dcatch CLI prints them locally and
// dcatch-serve stores them as the job report, so a report fetched from the
// service is byte-identical to the corresponding local run by construction,
// not by convention.

// subjectValidateSteps is the step budget of each controlled replay when a
// subject job validates its reports.
const subjectValidateSteps = 200_000

// SubjectOptions is the core.Options a subject job runs under: b's step
// budget, b's registered seed unless seed is non-zero, and jopt's analysis
// options. The error reports an unusable option value.
func SubjectOptions(b *subjects.Benchmark, seed int64, jopt JobOptions) (core.Options, error) {
	opts, err := coreOptions(jopt)
	if err != nil {
		return opts, err
	}
	opts.Seed, opts.MaxSteps = b.Seed, b.MaxSteps
	if seed != 0 {
		opts.Seed = seed
	}
	return opts, nil
}

// RunSubject is a subject job — `dcatch -bench` and a subject submission
// to dcatch-serve both run it: detection under opts, then with validate the
// triggering module on every final report pair (naive: without placement
// analysis), rendered by RenderSubject. The Result is nil only with an
// error; on OOM the report is the summary line.
func RunSubject(b *subjects.Benchmark, opts core.Options, validate, naive bool) (*core.Result, string, error) {
	res, err := core.Detect(b.Workload, opts)
	if err != nil {
		return nil, "", err
	}
	var vals []trigger.Validation
	if validate && !res.OOM {
		vals = core.ValidateAll(res, core.TriggerOptions{MaxSteps: subjectValidateSteps, Naive: naive, Obs: opts.Obs})
	}
	return res, RenderSubject(b, res, vals, validate), nil
}

// RenderSubject renders a subject detection outcome exactly as
// `dcatch -bench` prints it: summary, report pairs with ground-truth
// annotations, and (when validated) the triggering-module section.
func RenderSubject(b *subjects.Benchmark, res *core.Result, vals []trigger.Validation, validated bool) string {
	var sb strings.Builder
	sb.WriteString(res.Summary())
	sb.WriteString("\n")
	if res.OOM {
		return sb.String()
	}
	sb.WriteString("\n")
	sb.WriteString(res.Final.Format(b.Workload.Program))
	for i := range res.Final.Pairs {
		if kind := b.KnownKind(&res.Final.Pairs[i]); kind != "" {
			fmt.Fprintf(&sb, "  [%d] ground truth: %s\n", i, kind)
		}
	}
	if validated {
		sb.WriteString("\ntriggering module:\n")
		harmful := 0
		for _, v := range vals {
			fmt.Fprintf(&sb, "  %s\n", v.Summary())
			for i, p := range v.Placement {
				if p.Moved != "" {
					fmt.Fprintf(&sb, "    placement[%d]: %s\n", i, p.Moved)
				}
			}
			if v.Verdict == trigger.VerdictHarmful {
				harmful++
			}
		}
		fmt.Fprintf(&sb, "%d/%d reports confirmed harmful\n", harmful, len(vals))
	}
	return sb.String()
}

// RenderTrace renders a trace-only analysis outcome exactly as
// `dcatch-trace -analyze` prints it: summary plus the TA report. There is
// no program, so pairs are described by static-statement IDs.
func RenderTrace(res *core.Result) string {
	var sb strings.Builder
	sb.WriteString(res.Summary())
	sb.WriteString("\n")
	if res.OOM {
		return sb.String()
	}
	sb.WriteString("\n")
	sb.WriteString(res.Final.Format(nil))
	return sb.String()
}
