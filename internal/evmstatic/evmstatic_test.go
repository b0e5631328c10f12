package evmstatic_test

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/contracts"
	"repro/internal/ethabi"
	"repro/internal/ethtypes"
	"repro/internal/evm"
	"repro/internal/evmstatic"
)

func addr(b byte) ethtypes.Address {
	var a ethtypes.Address
	a[19] = b
	return a
}

func testSpec(style contracts.Style) contracts.Spec {
	return contracts.Spec{
		Style:            style,
		Operator:         addr(0x0b),
		Affiliate:        addr(0xaf),
		OperatorPerMille: 200,
		Authorized:       addr(0xa1),
	}
}

func TestDisassembleTruncatedPush(t *testing.T) {
	code := []byte{byte(evm.PUSH1) + 3, 0xaa, 0xbb} // PUSH4 with 2 bytes
	ins := evmstatic.Disassemble(code)
	if len(ins) != 1 {
		t.Fatalf("got %d instructions, want 1", len(ins))
	}
	in := ins[0]
	if !in.Truncated {
		t.Fatalf("truncated PUSH not flagged: %+v", in)
	}
	if !bytes.Equal(in.Operand, []byte{0xaa, 0xbb}) {
		t.Errorf("operand = %x, want existing bytes aabb", in.Operand)
	}
	if s := in.String(); !strings.Contains(s, "!truncated") {
		t.Errorf("String() = %q, want truncation marker", s)
	}
	if s := evmstatic.FormatDisassembly(ins); !strings.Contains(s, "!truncated") {
		t.Errorf("FormatDisassembly misses truncation marker: %q", s)
	}
}

func TestDisassemblePCMonotonic(t *testing.T) {
	spec := testSpec(contracts.StyleClaim)
	code, err := contracts.Runtime(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkMonotonic(t, code)
}

func checkMonotonic(t *testing.T, code []byte) {
	t.Helper()
	ins := evmstatic.Disassemble(code)
	prev := -1
	for _, in := range ins {
		if in.PC <= prev {
			t.Fatalf("PC %d after %d: not monotonic", in.PC, prev)
		}
		prev = in.PC
	}
	if len(ins) > 0 && ins[0].PC != 0 {
		t.Fatalf("first PC = %d, want 0", ins[0].PC)
	}
}

func TestBuildCFGTruncatedPushTerminates(t *testing.T) {
	// JUMPDEST, PUSH1 0x00, then PUSH4 with only one operand byte.
	code := []byte{evm.JUMPDEST, evm.PUSH1, 0x00, byte(evm.PUSH1) + 3, 0x01}
	g := evmstatic.BuildCFG(code)
	if len(g.Blocks) != 1 {
		t.Fatalf("got %d blocks, want 1", len(g.Blocks))
	}
	if n := len(g.Blocks[0].Succs); n != 0 {
		t.Fatalf("truncated-push block has %d successors, want 0", n)
	}
}

func TestBuildCFGUnreachable(t *testing.T) {
	// Block 0 stops; trailing JUMPDEST block is unreachable.
	code := []byte{evm.PUSH1, 0x01, evm.STOP, evm.JUMPDEST, evm.STOP}
	g := evmstatic.BuildCFG(code)
	if len(g.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(g.Blocks))
	}
	if !g.Blocks[0].Reachable || g.Blocks[1].Reachable {
		t.Fatalf("reachability = %v/%v, want true/false",
			g.Blocks[0].Reachable, g.Blocks[1].Reachable)
	}
}

func TestAnalyzeDeployClaimStyle(t *testing.T) {
	spec := testSpec(contracts.StyleClaim)
	initcode, err := contracts.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evmstatic.AnalyzeDeploy(initcode)
	if err != nil {
		t.Fatal(err)
	}

	runtime, err := contracts.Runtime(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Runtime, runtime) {
		t.Fatalf("carved runtime does not match assembled runtime")
	}

	wantMain := ethabi.Selector(contracts.ClaimSignatures[0])
	var gotSels []string
	for _, fn := range rep.Functions {
		gotSels = append(gotSels, hex.EncodeToString(fn.Selector[:]))
	}
	if len(rep.Functions) != 2 {
		t.Fatalf("functions = %v, want main + multicall", gotSels)
	}
	main, mc := rep.Functions[0], rep.Functions[1]
	if main.Selector != wantMain {
		t.Errorf("first selector = %x, want claim %x", main.Selector, wantMain)
	}
	if mc.Selector != contracts.SelMulticall {
		t.Errorf("second selector = %x, want multicall %x", mc.Selector, contracts.SelMulticall)
	}
	if !main.Payable || !main.HasSplit || main.SplitPerMille != 200 {
		t.Errorf("main = %+v, want payable with 200‰ split", main)
	}
	if mc.Payable {
		t.Errorf("multicall reported payable; it is gated on the authorized caller")
	}
	if rep.PayableFallback {
		t.Errorf("claim-style fallback reported payable; it only swallows ETH")
	}

	if !rep.HasSplit || rep.SplitInFallback || rep.SplitSelector != wantMain {
		t.Fatalf("split attribution = has=%v fallback=%v sel=%x", rep.HasSplit, rep.SplitInFallback, rep.SplitSelector)
	}
	if !rep.RatioKnown || rep.OperatorPerMille != 200 || !rep.RatioInPaperSet {
		t.Errorf("ratio = %d (known=%v inSet=%v), want 200", rep.OperatorPerMille, rep.RatioKnown, rep.RatioInPaperSet)
	}
	if !rep.OperatorKnown || rep.Operator != spec.Operator {
		t.Errorf("operator = %s (known=%v), want %s", rep.Operator, rep.OperatorKnown, spec.Operator)
	}
	if rep.AffiliateKnown || !rep.AffiliateFromCalldata {
		t.Errorf("affiliate: known=%v fromCalldata=%v, want calldata-sourced", rep.AffiliateKnown, rep.AffiliateFromCalldata)
	}
	if rep.Incomplete {
		t.Errorf("analysis flagged incomplete on the claim template")
	}
}

func TestAnalyzeDeployFallbackStyle(t *testing.T) {
	spec := testSpec(contracts.StyleFallback)
	spec.OperatorPerMille = 330
	initcode, err := contracts.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evmstatic.AnalyzeDeploy(initcode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Functions) != 1 || rep.Functions[0].Selector != contracts.SelMulticall {
		t.Fatalf("functions = %+v, want multicall only", rep.Functions)
	}
	if !rep.PayableFallback {
		t.Fatalf("fallback-style contract not reported payable-fallback")
	}
	if !rep.HasSplit || !rep.SplitInFallback {
		t.Fatalf("split not attributed to fallback: %+v", rep)
	}
	if rep.OperatorPerMille != 330 || !rep.RatioKnown {
		t.Errorf("ratio = %d known=%v, want 330", rep.OperatorPerMille, rep.RatioKnown)
	}
	if !rep.OperatorKnown || rep.Operator != spec.Operator {
		t.Errorf("operator = %s, want %s", rep.Operator, spec.Operator)
	}
	if !rep.AffiliateKnown || rep.Affiliate != spec.Affiliate {
		t.Errorf("affiliate = %s (known=%v), want stored %s", rep.Affiliate, rep.AffiliateKnown, spec.Affiliate)
	}
}

func TestAnalyzeRuntimeWithoutStorage(t *testing.T) {
	// Without a storage environment the split shape is still found but
	// the ratio and operator stay symbolic.
	spec := testSpec(contracts.StyleClaim)
	code, err := contracts.Runtime(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := evmstatic.AnalyzeRuntime(code, nil)
	if !rep.HasSplit {
		t.Fatalf("split shape not found without storage")
	}
	if rep.RatioKnown || rep.OperatorKnown {
		t.Errorf("ratio/operator resolved without storage: known=%v/%v", rep.RatioKnown, rep.OperatorKnown)
	}
	if !rep.AffiliateFromCalldata {
		t.Errorf("calldata affiliate not recognized without storage")
	}
}

func TestSummaryRenders(t *testing.T) {
	spec := testSpec(contracts.StyleClaim)
	initcode, err := contracts.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evmstatic.AnalyzeDeploy(initcode)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	if !strings.Contains(s, "200‰") || !strings.Contains(s, "constructor stores") {
		t.Errorf("Summary() missing expected content:\n%s", s)
	}
}

func TestRatioInPaperSet(t *testing.T) {
	for _, pm := range evmstatic.PaperRatiosPM {
		if !evmstatic.RatioInPaperSet(pm) {
			t.Errorf("paper ratio %d not in set", pm)
		}
	}
	for _, pm := range []int64{0, 99, 500, 1000} {
		if evmstatic.RatioInPaperSet(pm) {
			t.Errorf("%d wrongly in paper set", pm)
		}
	}
}

// TestAnalyzeBudgetedPathological feeds the analyzer adversarial
// jump-dense bytecode and checks the whole-CFG visit budget trips:
// the analysis returns promptly with Budgeted (and thus Incomplete)
// set instead of grinding through an unbounded fixpoint. A normal
// template must stay comfortably inside the budget.
func TestAnalyzeBudgetedPathological(t *testing.T) {
	// Shape 1: a flat chain of one-instruction blocks. Every JUMPDEST
	// opens a block, so 21k of them exceed the 20k total-visit budget
	// on the first pass.
	flat := bytes.Repeat([]byte{evm.JUMPDEST}, 21_000)
	st := evmstatic.AnalyzeRuntime(flat, nil)
	if !st.Budgeted {
		t.Errorf("flat chain of %d blocks not budgeted (%d blocks)", 21_000, st.Blocks)
	}
	if !st.Incomplete {
		t.Error("budgeted analysis not marked incomplete")
	}

	// Shape 2: a cyclic chain whose every block grows the abstract
	// stack (CALLVALUE) before jumping on. Without the 1024-entry
	// stack cap every re-visit's join cost would grow without bound;
	// with it the path is pruned as unreachable (the EVM faults past
	// 1024) and the analysis ends promptly, marked incomplete.
	const units = 400
	loop := make([]byte, 0, units*6)
	for i := 0; i < units; i++ {
		next := ((i + 1) % units) * 6
		loop = append(loop, evm.JUMPDEST, evm.CALLVALUE,
			evm.PUSH1+1, byte(next>>8), byte(next), evm.JUMP)
	}
	start := time.Now()
	st = evmstatic.AnalyzeRuntime(loop, nil)
	if !st.Incomplete {
		t.Errorf("stack-growing loop of %d blocks not marked incomplete", units)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stack-growing loop took %v; adversarial latency not contained", elapsed)
	}

	// Control: a real template resolves without touching the budget.
	runtime, err := contracts.Runtime(testSpec(contracts.StyleClaim))
	if err != nil {
		t.Fatal(err)
	}
	if st := evmstatic.AnalyzeRuntime(runtime, nil); st.Budgeted {
		t.Error("claim-style template exhausted the visit budget")
	}
}

// staticCase is one bytecode of the benchmark corpus and the
// fingerprint families the static engine must report for it.
type staticCase struct {
	name     string
	code     []byte
	families []evmstatic.Family
}

// staticCorpus is the representative bytecode BenchmarkStaticAnalyze
// times and TestAnalyzeCorpusFingerprints pins: the 45-byte minimal
// proxy, the real contract templates, and the 21KB adversarial chain
// that exhausts the visit budget.
func staticCorpus(tb testing.TB) []staticCase {
	tb.Helper()
	phisher, err := contracts.ApprovalPhisherRuntime(contracts.ApprovalPhisherSpec{Receiver: addr(0xec)})
	if err != nil {
		tb.Fatal(err)
	}
	pyramid, err := contracts.PyramidRuntime(contracts.PyramidSpec{Levels: []contracts.PyramidLevel{
		{Payee: addr(0x01), Amount: big.NewInt(4_000_000)},
		{Payee: addr(0x02), Amount: big.NewInt(2_000_000)},
		{Payee: addr(0x03), Amount: big.NewInt(1_000_000)},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	claim, err := contracts.Runtime(testSpec(contracts.StyleClaim))
	if err != nil {
		tb.Fatal(err)
	}
	merge, err := contracts.Runtime(testSpec(contracts.StyleNetworkMerge))
	if err != nil {
		tb.Fatal(err)
	}
	return []staticCase{
		{"minimal-proxy", contracts.MinimalProxyRuntime(addr(0x77)), []evmstatic.Family{evmstatic.FamilyProxy}},
		{"approval-phisher", phisher, []evmstatic.Family{evmstatic.FamilyApprovalPhish}},
		{"claim-style", claim, nil},
		{"pyramid", pyramid, []evmstatic.Family{evmstatic.FamilyPyramid}},
		{"networkmerge-style", merge, nil},
		{"pathological-21k", bytes.Repeat([]byte{evm.JUMPDEST}, 21_000), nil},
	}
}

// TestAnalyzeCorpusFingerprints: each corpus bytecode yields exactly
// its expected fingerprint families, one finding per family; the
// profit-sharing templates and the budget-exhausting chain yield none.
func TestAnalyzeCorpusFingerprints(t *testing.T) {
	for _, c := range staticCorpus(t) {
		t.Run(c.name, func(t *testing.T) {
			var got []evmstatic.Family
			for _, fp := range evmstatic.AnalyzeRuntime(c.code, nil).Fingerprints {
				got = append(got, fp.Family)
			}
			if !slices.Equal(got, c.families) {
				t.Errorf("fingerprint families = %v, want %v", got, c.families)
			}
		})
	}
}
