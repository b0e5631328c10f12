package evmstatic_test

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/contracts"
	"repro/internal/ethtypes"
	"repro/internal/evmstatic"
)

// seedCorpus adds the runtime and initcode of every template style to
// the fuzz corpus, so the fuzzer starts from realistic dispatchers.
func seedCorpus(f *testing.F) {
	f.Helper()
	f.Add([]byte{})
	f.Add([]byte{0x60})       // truncated PUSH1
	f.Add([]byte{0x7f, 0x00}) // truncated PUSH32
	for _, style := range []contracts.Style{
		contracts.StyleClaim, contracts.StyleFallback, contracts.StyleNetworkMerge,
	} {
		spec := testSpec(style)
		runtime, err := contracts.Runtime(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(runtime)
		initcode, err := contracts.Deploy(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(initcode)
	}
}

func FuzzDisassemble(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, code []byte) {
		ins := evmstatic.Disassemble(code)
		prev := -1
		covered := 0
		for _, in := range ins {
			if in.PC <= prev {
				t.Fatalf("PC %d after %d: not monotonic", in.PC, prev)
			}
			if in.PC != covered {
				t.Fatalf("instruction at PC %d leaves gap after %d", in.PC, covered)
			}
			covered = in.PC + 1 + len(in.Operand)
			prev = in.PC
		}
		if covered != len(code) {
			t.Fatalf("instructions cover %d bytes of %d", covered, len(code))
		}
	})
}

func FuzzBuildCFG(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, code []byte) {
		g := evmstatic.BuildCFG(code)
		for i, b := range g.Blocks {
			if b.Index != i {
				t.Fatalf("block %d carries index %d", i, b.Index)
			}
			if b.Start >= b.End || b.End > len(g.Instrs) {
				t.Fatalf("block %d has bad range [%d, %d) of %d", i, b.Start, b.End, len(g.Instrs))
			}
			if i > 0 && b.Start != g.Blocks[i-1].End {
				t.Fatalf("block %d does not abut block %d", i, i-1)
			}
			if b.StartPC != g.Instrs[b.Start].PC {
				t.Fatalf("block %d StartPC %d != first instruction PC %d", i, b.StartPC, g.Instrs[b.Start].PC)
			}
			for _, s := range b.Succs {
				if s < 0 || s >= len(g.Blocks) {
					t.Fatalf("block %d has out-of-range successor %d", i, s)
				}
			}
		}
		// The full static analysis must also never panic on junk.
		evmstatic.AnalyzeRuntime(code, nil)
	})
}

// FuzzFingerprints drives the full multi-fingerprint engine from a
// corpus seeded with every worldgen contract style: the three
// profit-sharing templates plus each scam-shape family and adversarial
// negative. Invariants: the analysis is total over arbitrary bytes,
// family names come sorted, deduplicated, and drawn from the known
// set, a budgeted result is always marked incomplete, and a resolved
// ratio is a valid per-mille.
func FuzzFingerprints(f *testing.F) {
	seedCorpus(f)
	receiver := addr(0xec)
	for _, sink := range contracts.ApprovalSinkSignatures {
		runtime, err := contracts.ApprovalPhisherRuntime(contracts.ApprovalPhisherSpec{
			SinkSignature: sink, Receiver: receiver,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(runtime)
	}
	pyramid := contracts.PyramidSpec{Levels: []contracts.PyramidLevel{
		{Payee: addr(0x01), Amount: big.NewInt(4_000_000)},
		{Payee: addr(0x02), Amount: big.NewInt(2_000_000)},
	}}
	for _, gen := range []func() ([]byte, error){
		func() ([]byte, error) { return contracts.PyramidRuntime(pyramid) },
		contracts.BenignRouterRuntime,
		contracts.AllowanceHelperRuntime,
		contracts.SlotProxyRuntime,
		func() ([]byte, error) {
			return contracts.AirdropRuntime(contracts.AirdropSpec{
				Owner: addr(0x0a), Recipients: []ethtypes.Address{addr(0x01)}, Amount: big.NewInt(1),
			})
		},
	} {
		runtime, err := gen()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(runtime)
	}
	f.Add(contracts.MinimalProxyRuntime(addr(0x77)))

	known := make(map[string]bool)
	for _, fam := range []evmstatic.Family{evmstatic.FamilyApprovalPhish, evmstatic.FamilyProxy, evmstatic.FamilyPyramid} {
		known[string(fam)] = true
	}
	resolve := func(ethtypes.Address) ([]byte, error) {
		return nil, errors.New("code unavailable")
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		st := evmstatic.AnalyzeResolved(code, nil, resolve)
		names := evmstatic.FamilyNames(st.Fingerprints)
		for i, name := range names {
			if !known[name] {
				t.Fatalf("unknown family %q in %v", name, names)
			}
			if i > 0 && names[i-1] >= name {
				t.Fatalf("family names not sorted/deduplicated: %v", names)
			}
		}
		if st.Budgeted && !st.Incomplete {
			t.Fatal("Budgeted result not marked Incomplete")
		}
		if st.RatioKnown && (st.OperatorPerMille < 0 || st.OperatorPerMille > 1000) {
			t.Fatalf("resolved ratio %d out of per-mille range", st.OperatorPerMille)
		}
		if st.Summary() == "" {
			t.Fatal("empty summary")
		}
	})
}
