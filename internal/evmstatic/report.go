package evmstatic

import (
	"encoding/hex"
	"fmt"
	"math/big"
	"strings"

	"repro/internal/ethtypes"
)

// StaticFunc is one dispatched function recovered from bytecode.
type StaticFunc struct {
	Selector [4]byte
	// EntryPC is the JUMPDEST the dispatcher routes this selector to.
	EntryPC int
	// Payable mirrors the dynamic prober's notion: a successful halt is
	// reachable from the entry without passing a callvalue==0 guard or a
	// privileged-caller gate.
	Payable bool
	// HasSplit reports whether the function body contains the
	// operator/affiliate payout pair.
	HasSplit bool
	// SplitPerMille is the operator share of the body's split, 0 when
	// absent or unresolved.
	SplitPerMille int64
}

// StaticAnalysis is the static counterpart of contracts.Analysis,
// recovered without executing any bytecode.
type StaticAnalysis struct {
	// Functions lists the dispatched selectors in dispatcher code order.
	Functions []StaticFunc
	// FallbackPC is the entry PC of the short-calldata fallback path,
	// -1 when no dispatcher fallback test was found.
	FallbackPC int
	// PayableFallback mirrors the dynamic probe: the fallback path both
	// halts successfully for an arbitrary value-bearing caller and
	// forwards value onward.
	PayableFallback bool

	// HasSplit reports whether a profit split was found anywhere; the
	// fields below describe the split chosen the same way the dynamic
	// decompiler chooses its ETHFunction — first payable dispatched
	// function with a split, else the fallback.
	HasSplit bool
	// SplitSelector is the selector owning the split; meaningful only
	// when HasSplit && !SplitInFallback.
	SplitSelector [4]byte
	// SplitInFallback marks a fallback-resident split (Inferno style).
	SplitInFallback bool

	// OperatorPerMille is the operator share; RatioKnown distinguishes
	// "resolved to 0" from "split present but ratio symbolic" (e.g. the
	// ratio lives in storage and no environment was supplied).
	OperatorPerMille int64
	RatioKnown       bool
	// RatioInPaperSet reports membership in the paper's Table 3 set.
	RatioInPaperSet bool

	// Operator is the share-call target when it resolved to a constant.
	Operator      ethtypes.Address
	OperatorKnown bool
	// Affiliate is the remainder-call target when constant;
	// AffiliateFromCalldata marks the claim-style idiom where the
	// affiliate arrives as the first calldata argument instead.
	Affiliate             ethtypes.Address
	AffiliateKnown        bool
	AffiliateFromCalldata bool

	// Fingerprints are the static detection verdicts of the
	// multi-fingerprint analyzers (approval-phishing, proxy, pyramid).
	Fingerprints []Fingerprint
	// TaintSinks counts program points where calldata-derived data
	// reached a non-dispatch sink (CALL payload, SSTORE, or LOG topic).
	TaintSinks int

	// ProxyResolved marks an analysis that followed a proxy through to
	// its implementation (AnalyzeResolved); ProxyImpl is the resolved
	// implementation address.
	ProxyResolved bool
	ProxyImpl     ethtypes.Address

	// ConstructorStores and Runtime are populated by AnalyzeDeploy:
	// the constant SSTOREs the constructor performs and the runtime it
	// installs.
	ConstructorStores []StorageSlot
	Runtime           []byte

	// CFG statistics.
	Blocks          int
	ReachableBlocks int
	// ValueCalls counts CALL sites whose forwarded value is not a known
	// zero.
	ValueCalls int
	// Truncated reports a PUSH running past the end of the code.
	Truncated bool
	// Incomplete reports that the analysis hit a resolution limit (a
	// computed jump target or the per-block visit cap): results are an
	// under-approximation.
	Incomplete bool
	// Budgeted reports that the whole-CFG abstract-interpretation
	// budget was exhausted (adversarial jump-dense bytecode): the
	// result is partial. Budgeted implies Incomplete.
	Budgeted bool
}

// AnalyzeRuntime statically analyzes runtime bytecode. storage supplies
// constant storage words (nil leaves every SLOAD symbolic); use
// TotalStorage for freshly deployed contracts where unwritten slots are
// exactly zero.
func AnalyzeRuntime(code []byte, storage Storage) *StaticAnalysis {
	g := BuildCFG(code)
	a := newAnalysis(g, storage)
	a.run()

	rep := &StaticAnalysis{FallbackPC: -1, Blocks: len(g.Blocks)}
	for _, b := range g.Blocks {
		if b.Reachable {
			rep.ReachableBlocks++
		}
	}
	for _, in := range g.Instrs {
		if in.Truncated {
			rep.Truncated = true
		}
	}
	rep.Incomplete = a.incomplete
	rep.Budgeted = a.budgeted
	rep.TaintSinks = len(a.taintSinks)
	for _, c := range a.calls {
		if !(c.value.isConst() && c.value.Const.Sign() == 0) {
			rep.ValueCalls++
		}
	}
	rep.Fingerprints = detectFingerprints(code, a)

	// Dispatched functions, in dispatcher code order.
	var chosen *splitFacts
	for _, e := range selectorOrder(a) {
		body := reachableFrom(g, e.target)
		split := findSplit(a, body)
		fn := StaticFunc{
			Selector: e.sel,
			EntryPC:  g.Blocks[e.target].StartPC,
			Payable:  successReachable(g, a.edgeConds, e.target),
			HasSplit: split.found,
		}
		if split.ratioKnown {
			fn.SplitPerMille = split.pm
		}
		if chosen == nil && fn.Payable && split.found {
			s := split
			chosen = &s
			rep.SplitSelector = e.sel
		}
		rep.Functions = append(rep.Functions, fn)
	}

	// Fallback path.
	if a.fallbackPC >= 0 {
		rep.FallbackPC = a.fallbackPC
		if fb, ok := g.BlockAt(a.fallbackPC); ok {
			body := reachableFrom(g, fb)
			split := findSplit(a, body)
			rep.PayableFallback = successReachable(g, a.edgeConds, fb) && split.found
			if chosen == nil && rep.PayableFallback {
				s := split
				chosen = &s
				rep.SplitInFallback = true
			}
		}
	}

	if chosen != nil {
		rep.HasSplit = true
		rep.OperatorPerMille = chosen.pm
		rep.RatioKnown = chosen.ratioKnown
		rep.RatioInPaperSet = chosen.ratioKnown && RatioInPaperSet(chosen.pm)
		rep.Operator = chosen.operator
		rep.OperatorKnown = chosen.opKnown
		rep.Affiliate = chosen.affiliate
		rep.AffiliateKnown = chosen.affKnown
		rep.AffiliateFromCalldata = chosen.affFromCD
	}
	return rep
}

// AnalyzeDeploy statically analyzes creation bytecode: it interprets
// the constructor to collect its constant SSTOREs, carves the runtime
// out of the initcode via the constructor's CODECOPY/RETURN pair, and
// then analyzes that runtime under the recovered storage (unwritten
// slots are exactly zero on a fresh deployment, so the environment is
// total).
func AnalyzeDeploy(initcode []byte) (*StaticAnalysis, error) {
	g := BuildCFG(initcode)
	a := newAnalysis(g, nil)
	a.run()

	runtime, err := carveRuntime(initcode, a)
	if err != nil {
		return nil, err
	}
	stores := dedupedStores(a)
	rep := AnalyzeRuntime(runtime, TotalStorage(stores))
	rep.ConstructorStores = stores
	rep.Runtime = runtime
	return rep, nil
}

// TotalStorage builds a Storage that resolves every slot: listed pairs
// return their value, everything else returns zero. Correct for fresh
// deployments and full state snapshots.
func TotalStorage(pairs []StorageSlot) Storage {
	base := NewStorage(pairs)
	return func(slot *big.Int) (*big.Int, bool) {
		if v, ok := base(slot); ok {
			return v, true
		}
		return new(big.Int), true
	}
}

// Summary renders the report for terminal display.
func (r *StaticAnalysis) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "blocks: %d (%d reachable)", r.Blocks, r.ReachableBlocks)
	if r.Truncated {
		b.WriteString("  [truncated code]")
	}
	if r.Incomplete {
		b.WriteString("  [analysis incomplete]")
	}
	if r.Budgeted {
		b.WriteString("  [budget exhausted]")
	}
	b.WriteByte('\n')
	for _, fn := range r.Functions {
		fmt.Fprintf(&b, "function 0x%s @%04x payable=%v", hex.EncodeToString(fn.Selector[:]), fn.EntryPC, fn.Payable)
		if fn.HasSplit {
			fmt.Fprintf(&b, " split=%d‰", fn.SplitPerMille)
		}
		b.WriteByte('\n')
	}
	if r.FallbackPC >= 0 {
		fmt.Fprintf(&b, "fallback @%04x payable=%v\n", r.FallbackPC, r.PayableFallback)
	}
	if r.HasSplit {
		where := fmt.Sprintf("selector 0x%s", hex.EncodeToString(r.SplitSelector[:]))
		if r.SplitInFallback {
			where = "fallback"
		}
		fmt.Fprintf(&b, "profit split in %s:", where)
		if r.RatioKnown {
			fmt.Fprintf(&b, " operator %d‰ (paper set: %v)", r.OperatorPerMille, r.RatioInPaperSet)
		} else {
			b.WriteString(" ratio unresolved")
		}
		b.WriteByte('\n')
		if r.OperatorKnown {
			fmt.Fprintf(&b, "  operator  %s\n", r.Operator)
		}
		switch {
		case r.AffiliateKnown:
			fmt.Fprintf(&b, "  affiliate %s\n", r.Affiliate)
		case r.AffiliateFromCalldata:
			b.WriteString("  affiliate taken from calldata\n")
		}
	} else {
		b.WriteString("no profit split found\n")
	}
	if r.ProxyResolved {
		fmt.Fprintf(&b, "proxy resolved to implementation %s\n", r.ProxyImpl)
	}
	for _, fp := range r.Fingerprints {
		fmt.Fprintf(&b, "fingerprint %s\n", fp)
	}
	if r.TaintSinks > 0 {
		fmt.Fprintf(&b, "calldata taint reaches %d sink(s)\n", r.TaintSinks)
	}
	if len(r.ConstructorStores) > 0 {
		b.WriteString("constructor stores:\n")
		for _, s := range r.ConstructorStores {
			fmt.Fprintf(&b, "  slot %s = 0x%s\n", s.Slot, s.Value.Text(16))
		}
	}
	return b.String()
}
