package contracts_test

import (
	"slices"
	"testing"

	"repro/internal/contracts"
	"repro/internal/ethtypes"
	"repro/internal/evmstatic"
	"repro/internal/worldgen"
)

// TestFingerprintsOnWorld runs the static engine over a generated
// world the way daasctl analyze does: AnalyzeResolved under the
// contract's own storage, following proxies through the chain. Every
// planted scam-shape contract must carry its own family, and none of
// the adversarial negatives (benign routers, allowance helpers,
// airdrops, clones of a benign implementation) nor the profit-sharing
// contracts may carry a scam shape.
func TestFingerprintsOnWorld(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TestConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	c := w.Chain
	read := func(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash { return c.StorageAt(a, k) }
	resolve := func(a ethtypes.Address) ([]byte, error) { return c.CodeAt(a), nil }
	analyze := func(a ethtypes.Address) *evmstatic.StaticAnalysis {
		return evmstatic.AnalyzeResolved(c.CodeAt(a), contracts.StaticStorage(a, read), resolve)
	}
	// noScamShape fails a contract that carries an approval-phishing or
	// pyramid-payout fingerprint, or that is a proxy splitting at a
	// drainer ratio.
	noScamShape := func(a ethtypes.Address, what string, st *evmstatic.StaticAnalysis) {
		t.Helper()
		names := evmstatic.FamilyNames(st.Fingerprints)
		for _, fam := range []evmstatic.Family{evmstatic.FamilyApprovalPhish, evmstatic.FamilyPyramid} {
			if slices.Contains(names, string(fam)) {
				t.Errorf("%s %s carries %s", what, a.Short(), fam)
			}
		}
		if pm, ok := drainerRatio(st); ok && slices.Contains(names, string(evmstatic.FamilyProxy)) {
			t.Errorf("%s %s is a proxy splitting at drainer ratio %d‰", what, a.Short(), pm)
		}
	}

	if len(w.Truth.ScamContracts) == 0 || len(w.Truth.NegativeContracts) == 0 {
		t.Fatal("world planted no scam shapes")
	}
	clones := 0
	for addr, fam := range w.Truth.ScamContracts {
		st := analyze(addr)
		if names := evmstatic.FamilyNames(st.Fingerprints); !slices.Contains(names, fam) {
			t.Errorf("%s: planted %s, fingerprints %v", addr.Short(), fam, names)
		}
		if fam != string(evmstatic.FamilyProxy) {
			continue
		}
		clones++
		if !st.ProxyResolved || st.ProxyImpl != w.Truth.DrainerImpl {
			t.Errorf("clone %s resolved to %s, want %s", addr.Short(), st.ProxyImpl.Short(), w.Truth.DrainerImpl.Short())
		}
		if _, ok := drainerRatio(st); !ok {
			t.Errorf("clone %s: no split at a drainer ratio (split %v, known %v, %d‰)",
				addr.Short(), st.HasSplit, st.RatioKnown, st.OperatorPerMille)
		}
	}
	if clones == 0 {
		t.Fatal("world planted no malicious clones")
	}
	for addr, kind := range w.Truth.NegativeContracts {
		st := analyze(addr)
		noScamShape(addr, kind+" negative", st)
		if kind == worldgen.NegativeBenignProxy && !st.ProxyResolved {
			t.Errorf("benign proxy %s did not resolve", addr.Short())
		}
	}
	for _, fam := range w.Truth.ContractAddrs {
		for _, addr := range fam {
			noScamShape(addr, "profit-sharing contract", analyze(addr))
		}
	}
}

// drainerRatio reports the operator share of a split the static pass
// recovered with a constant ratio, normalized to the smaller share as
// the dataset records it, and whether that share is one of the paper's
// drainer ratios.
func drainerRatio(st *evmstatic.StaticAnalysis) (int64, bool) {
	if !st.HasSplit || !st.RatioKnown {
		return 0, false
	}
	pm := st.OperatorPerMille
	if pm > 500 {
		pm = 1000 - pm
	}
	return pm, slices.Contains(evmstatic.PaperRatiosPM, pm)
}
