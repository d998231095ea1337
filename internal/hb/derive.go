package hb

import "dcatch/internal/trace"

// Deriver is the one statement of the non-Eserial, non-Mpull rules
// (Rule-Preg/Pnreg and the ID-matched pair rules) as a single forward pass
// over a trace: Next, called once per record in trace order, returns
// everything those rules say about the record. Build runs it over the whole
// trace; the streaming analyzer (internal/stream) runs it record by record
// as the trace arrives, so both derive the same edges by construction.
//
// The pass is exact online. Chain assignment is first-appearance numbering
// of ctxKeys, and program order needs only each chain's latest record. A
// pair rule links a target to the first occurrence of its (source kind, op);
// a source that appears after its target would be an inverted edge, which
// Build drops anyway, so looking sources up in the prefix seen so far finds
// exactly the edges a whole-trace lookup keeps.
type Deriver struct {
	cfg    Config
	chains map[int64]int32   // ctxKey -> chain
	last   []int32           // last[c] = chain c's latest record
	lens   []int32           // lens[c] = records seen in chain c
	first  map[pairKey]int32 // first record of each pair-rule source
}

// pairKey identifies an ID-matched pair-rule source: (source kind, op).
type pairKey struct {
	kind trace.Kind
	op   uint64
}

// Step is what the rules derive for one record.
type Step struct {
	// Chain and Pos are the record's program-order chain and its position
	// within it.
	Chain, Pos int32
	// Pred is the record's program-order predecessor (Rule-Preg/Pnreg), or
	// -1 for the first record of its chain.
	Pred int32
	// Src is the pair-rule source the record is the target of (Tfork, Tjoin,
	// Eenq, Mrpc, Msoc or Mpush), or -1.
	Src int32
	// FirstSource is set when the record is the first occurrence of a
	// pair-rule source: later targets with its op will name it as Src.
	FirstSource bool

	rule int // Src's rule, indexing ruleCounterNames
}

// NewDeriver returns a deriver for traces analyzed under cfg's ablation
// switches.
func NewDeriver(cfg Config) *Deriver {
	return &Deriver{cfg: cfg, chains: map[int64]int32{}, first: map[pairKey]int32{}}
}

// Next derives record i, the next record in trace order.
func (d *Deriver) Next(i int, r *trace.Rec) Step {
	st := Step{Pred: -1, Src: -1}
	k := d.cfg.ctxKey(r)
	c, ok := d.chains[k]
	if ok {
		st.Pred = d.last[c]
	} else {
		c = int32(len(d.lens))
		d.chains[k] = c
		d.last = append(d.last, 0)
		d.lens = append(d.lens, 0)
	}
	st.Chain, st.Pos = c, d.lens[c]
	d.lens[c]++
	d.last[c] = int32(i)

	if d.cfg.dropped(r) {
		return st
	}
	if src, rule, ok := pairSource(r.Kind); ok {
		if s, ok := d.first[pairKey{src, r.Op}]; ok {
			st.Src, st.rule = s, rule
		}
	} else if isPairSource(r.Kind) {
		key := pairKey{r.Kind, r.Op}
		if _, dup := d.first[key]; !dup {
			d.first[key] = int32(i)
			st.FirstSource = true
		}
	}
	return st
}

// pairSource returns the source kind and rule of a pair-rule target kind.
func pairSource(k trace.Kind) (src trace.Kind, rule int, ok bool) {
	switch k {
	case trace.KThreadBegin:
		return trace.KThreadCreate, ruleTfork, true
	case trace.KThreadJoin:
		return trace.KThreadEnd, ruleTjoin, true
	case trace.KEventBegin:
		return trace.KEventCreate, ruleEenq, true
	case trace.KRPCBegin:
		return trace.KRPCCreate, ruleMrpc, true
	case trace.KRPCJoin:
		return trace.KRPCEnd, ruleMrpc, true
	case trace.KSockRecv:
		return trace.KSockSend, ruleMsoc, true
	case trace.KZKPushed:
		return trace.KZKUpdate, ruleMpush, true
	}
	return 0, 0, false
}

// isPairSource reports whether k is the source kind of a pair rule.
func isPairSource(k trace.Kind) bool {
	switch k {
	case trace.KThreadCreate, trace.KThreadEnd, trace.KEventCreate,
		trace.KRPCCreate, trace.KRPCEnd, trace.KSockSend, trace.KZKUpdate:
		return true
	}
	return false
}

// Rule indices and counter names for the ID-matched pair rules.
const (
	ruleTfork = iota
	ruleTjoin
	ruleEenq
	ruleMrpc
	ruleMsoc
	ruleMpush
)

var ruleCounterNames = [...]string{
	ruleTfork: "hb.edges.tfork",
	ruleTjoin: "hb.edges.tjoin",
	ruleEenq:  "hb.edges.eenq",
	ruleMrpc:  "hb.edges.mrpc",
	ruleMsoc:  "hb.edges.msoc",
	ruleMpush: "hb.edges.mpush",
}

// chainCount returns how many program-order chains tr has under cfg — the
// chain model's admission figure — and derives nothing else, so a refused
// build allocates no edge list and no decomposition.
func chainCount(tr *trace.Trace, cfg Config) int {
	keys := map[int64]struct{}{}
	for i := range tr.Recs {
		keys[cfg.ctxKey(&tr.Recs[i])] = struct{}{}
	}
	return len(keys)
}
