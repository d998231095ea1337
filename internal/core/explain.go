package core

import (
	"fmt"
	"strings"

	"dcatch/internal/detect"
)

// Pair fates for Explain. Indices are assigned reported-first: the Final
// report's pairs occupy 0..len(Final.Pairs)-1 in report order (so index 0 is
// always the first reported candidate), followed by the trace-analysis
// candidates a later stage removed, in TA report order.
const (
	fateReported = "reported"
	fateStatic   = "pruned by static pruning (§4)"
	fateLoopSync = "pruned by loop-synchronization analysis (§3.2.1, Rule-Mpull)"
)

type explained struct {
	pair detect.Pair
	fate string
}

func pairKey(p *detect.Pair) detect.CallstackKey { return p.CallstackKey() }

// explainList orders every candidate the pipeline saw: reported pairs first,
// then pruned ones.
func (r *Result) explainList() []explained {
	var out []explained
	inFinal := map[detect.CallstackKey]bool{}
	if r.Final != nil {
		for i := range r.Final.Pairs {
			inFinal[pairKey(&r.Final.Pairs[i])] = true
			out = append(out, explained{r.Final.Pairs[i], fateReported})
		}
	}
	inSP := map[detect.CallstackKey]bool{}
	if r.SP != nil {
		for i := range r.SP.Pairs {
			inSP[pairKey(&r.SP.Pairs[i])] = true
		}
	}
	if r.TA != nil {
		for i := range r.TA.Pairs {
			p := r.TA.Pairs[i]
			if inFinal[pairKey(&p)] {
				continue
			}
			fate := fateLoopSync
			if !inSP[pairKey(&p)] {
				fate = fateStatic
			}
			out = append(out, explained{p, fate})
		}
	}
	return out
}

// Explain renders the provenance of candidate pair idx: for a reported pair,
// the concurrency evidence (no happens-before path in either direction, with
// the nearest common causal ancestors); for a pruned pair, which stage
// removed it and why.
func (r *Result) Explain(idx int) (string, error) {
	if r.OOM {
		return "", fmt.Errorf("core: analysis ran out of memory; no candidates to explain")
	}
	list := r.explainList()
	if idx < 0 || idx >= len(list) {
		return "", fmt.Errorf("core: pair index %d out of range [0,%d): %d reported, %d pruned",
			idx, len(list), lenPairs(r.Final), len(list)-lenPairs(r.Final))
	}
	e := list[idx]
	p := &e.pair

	var b strings.Builder
	fmt.Fprintf(&b, "pair %d of %d — %s\n", idx, len(list), e.fate)
	fmt.Fprintf(&b, "  object %q, %d dynamic occurrence(s)\n", p.Obj, p.Dynamic)
	fmt.Fprintf(&b, "  A: %s\n", r.describeAccess(p.AStatic, p.ARec))
	fmt.Fprintf(&b, "  B: %s\n", r.describeAccess(p.BStatic, p.BRec))

	switch e.fate {
	case fateReported:
		r.explainReported(&b, p)
	case fateStatic:
		r.explainStaticPrune(&b, p)
	case fateLoopSync:
		r.explainLoopSync(&b, p)
	}
	return b.String(), nil
}

func lenPairs(rep *detect.Report) int {
	if rep == nil {
		return 0
	}
	return len(rep.Pairs)
}

// describeAccess renders one side of a pair: the statement (program
// position) plus its representative trace record.
func (r *Result) describeAccess(static int32, rec int) string {
	var pos string
	if st := r.Workload.Program.Stmt(int(static)); st != nil {
		pos = fmt.Sprintf("%s (%s)", st.Meta().Pos, st)
	} else {
		pos = fmt.Sprintf("stmt#%d", static)
	}
	if r.Trace != nil && rec >= 0 && rec < len(r.Trace.Recs) {
		return fmt.Sprintf("%s\n     record %s", pos, r.Trace.Recs[rec].String())
	}
	return pos
}

// explainReported prints the concurrency evidence for a reported pair.
func (r *Result) explainReported(b *strings.Builder, p *detect.Pair) {
	fmt.Fprintf(b, "  verdict: concurrent conflicting accesses — at least one side writes,\n")
	fmt.Fprintf(b, "  and the MTEP happens-before rules order neither access before the other.\n")
	if r.Graph == nil {
		if r.Chunked {
			fmt.Fprintf(b, "  HB evidence unavailable: chunked analysis (§7.2) discards per-window\n")
			fmt.Fprintf(b, "  graphs after detection; the pair was concurrent within its window.\n")
		} else {
			fmt.Fprintf(b, "  HB evidence unavailable: no graph retained for this run.\n")
		}
		return
	}
	i, j := p.ARec, p.BRec
	if i > j {
		i, j = j, i
	}
	if r.Graph.HappensBefore(i, j) {
		// The representative records of this callstack pair are ordered in
		// the final (Rule-Mpull augmented) graph, but another dynamic
		// occurrence was not — the report keys on callstacks.
		fmt.Fprintf(b, "  note: these representative records are HB-ordered in the final graph;\n")
		fmt.Fprintf(b, "  a different dynamic occurrence of the same callstack pair is concurrent.\n")
		return
	}
	fmt.Fprintf(b, "  no happens-before path record #%d -> #%d\n", r.Trace.Recs[i].Seq, r.Trace.Recs[j].Seq)
	fmt.Fprintf(b, "  no happens-before path record #%d -> #%d\n", r.Trace.Recs[j].Seq, r.Trace.Recs[i].Seq)
	anc := r.Graph.CommonAncestors(i, j, 3)
	if len(anc) == 0 {
		fmt.Fprintf(b, "  no common causal ancestor: the accesses share no HB history at all.\n")
		return
	}
	fmt.Fprintf(b, "  nearest common causal ancestors (last points ordered before both):\n")
	for _, k := range anc {
		fmt.Fprintf(b, "    %s\n", r.Trace.Recs[k].String())
	}
}

// explainStaticPrune prints the §4.2 clause that pruned the pair.
func (r *Result) explainStaticPrune(b *strings.Builder, p *detect.Pair) {
	if r.Analysis == nil || r.Trace == nil {
		fmt.Fprintf(b, "  pruning evidence unavailable (no static analysis retained).\n")
		return
	}
	_, aReason, bReason := r.Analysis.PairImpactReason(p, r.Trace)
	fmt.Fprintf(b, "  neither access can impact a failure instruction:\n")
	fmt.Fprintf(b, "  A: %s\n", aReason)
	fmt.Fprintf(b, "  B: %s\n", bReason)
}

// explainLoopSync prints why the loop-synchronization stage removed the pair.
func (r *Result) explainLoopSync(b *strings.Builder, p *detect.Pair) {
	if r.Graph != nil {
		for _, pp := range r.Graph.PullPairs {
			if matchPull(p, pp.ReadStatic, pp.WriteStatic) {
				fmt.Fprintf(b, "  the pair is pull-based custom synchronization, not a race:\n")
				fmt.Fprintf(b, "  read stmt#%d polls a loop condition satisfied by write stmt#%d,\n", pp.ReadStatic, pp.WriteStatic)
				fmt.Fprintf(b, "  so Rule-Mpull orders the write before the loop exit (§3.2.1).\n")
				return
			}
		}
		i, j := p.ARec, p.BRec
		if i > j {
			i, j = j, i
		}
		if path := r.Graph.Path(i, j); path != nil {
			fmt.Fprintf(b, "  Rule-Mpull edges order the accesses; happens-before chain:\n")
			for _, k := range path {
				fmt.Fprintf(b, "    %s\n", r.Trace.Recs[k].String())
			}
			return
		}
	}
	fmt.Fprintf(b, "  the pair disappeared once Rule-Mpull edges were added to the HB graph:\n")
	fmt.Fprintf(b, "  the accesses are ordered through loop-based custom synchronization.\n")
}

func matchPull(p *detect.Pair, read, write int32) bool {
	return (p.AStatic == read && p.BStatic == write) ||
		(p.AStatic == write && p.BStatic == read)
}
