package contracts

import (
	"math/big"
	"reflect"
	"slices"
	"testing"

	"repro/internal/chain"
	"repro/internal/ethabi"
	"repro/internal/ethtypes"
	"repro/internal/evmstatic"
	"repro/internal/tokens"
)

var (
	receiver = ethtypes.Addr("0xbadbadbadbadbadbadbadbadbadbadbadbadbad1")
	payee1   = ethtypes.Addr("0x9100000000000000000000000000000000000001")
	payee2   = ethtypes.Addr("0x9200000000000000000000000000000000000002")
	payee3   = ethtypes.Addr("0x9300000000000000000000000000000000000003")
	implAddr = ethtypes.Addr("0x1111111111111111111111111111111111111111")
)

func testPyramidSpec() PyramidSpec {
	return PyramidSpec{Levels: []PyramidLevel{
		{Payee: payee1, Amount: big.NewInt(500)},
		{Payee: payee2, Amount: big.NewInt(300)},
		{Payee: payee3, Amount: big.NewInt(200)},
	}}
}

func testAirdropSpec() AirdropSpec {
	return AirdropSpec{
		Owner:      authorized,
		Recipients: []ethtypes.Address{payee1, payee2, payee3},
		Amount:     big.NewInt(250),
	}
}

// familyCase is one cell row of the style × family agreement matrix.
type familyCase struct {
	name string
	init func() ([]byte, error)
	want []string // expected sorted family labels; nil = no fingerprints
}

func familyCases() []familyCase {
	ps := func(style Style) func() ([]byte, error) {
		return func() ([]byte, error) {
			return Deploy(Spec{Style: style, Operator: operator, Affiliate: affiliate,
				OperatorPerMille: 200, Authorized: authorized})
		}
	}
	cases := []familyCase{
		{"claim", ps(StyleClaim), nil},
		{"fallback", ps(StyleFallback), nil},
		{"network-merge", ps(StyleNetworkMerge), nil},
		{"pyramid", func() ([]byte, error) { return PyramidDeploy(testPyramidSpec()) },
			[]string{"pyramid-payout"}},
		{"minimal-proxy", func() ([]byte, error) { return MinimalProxyDeploy(implAddr) },
			[]string{"proxy"}},
		{"clone", func() ([]byte, error) {
			return CloneDeploy(implAddr, Spec{Style: StyleFallback, Operator: operator,
				Affiliate: affiliate, OperatorPerMille: 150})
		}, []string{"proxy"}},
		{"slot-proxy", func() ([]byte, error) { return SlotProxyDeploy(implAddr) },
			[]string{"proxy"}},
		// Adversarial negatives: structural twins of the scam shapes
		// that must produce zero fingerprints.
		{"benign-router", BenignRouterDeploy, nil},
		{"allowance-helper", AllowanceHelperDeploy, nil},
		{"airdrop", func() ([]byte, error) { return AirdropDeploy(testAirdropSpec()) }, nil},
	}
	for _, sink := range ApprovalSinkSignatures {
		sink := sink
		cases = append(cases, familyCase{
			name: "approval-" + baseName(sink),
			init: func() ([]byte, error) {
				return ApprovalPhisherDeploy(ApprovalPhisherSpec{SinkSignature: sink, Receiver: receiver})
			},
			want: []string{"approval-phishing"},
		})
	}
	return cases
}

// storesReader adapts constructor stores into the prober's storage
// view, mirroring what a fresh deployment's state looks like.
func storesReader(stores []evmstatic.StorageSlot) StorageReader {
	m := make(map[ethtypes.Hash]ethtypes.Hash, len(stores))
	for _, s := range stores {
		var k, v ethtypes.Hash
		s.Slot.FillBytes(k[:])
		s.Value.FillBytes(v[:])
		m[k] = v
	}
	return func(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash { return m[k] }
}

// TestFingerprintAgreementMatrix checks, for every contract style the
// generator produces, that the static fingerprint engine and the
// dynamic prober independently reach the expected family verdict —
// including zero false positives on the adversarial negatives.
func TestFingerprintAgreementMatrix(t *testing.T) {
	self := ethtypes.Addr("0x00000000000000000000000000000000005e1f00")
	for _, tc := range familyCases() {
		t.Run(tc.name, func(t *testing.T) {
			initcode, err := tc.init()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := evmstatic.AnalyzeDeploy(initcode)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if want == nil {
				want = []string{}
			}
			stat := evmstatic.FamilyNames(rep.Fingerprints)
			if !reflect.DeepEqual(stat, want) {
				t.Errorf("static families = %v, want %v\nfingerprints: %v", stat, want, rep.Fingerprints)
			}
			dyn := ProbeFamilies(rep.Runtime, self, storesReader(rep.ConstructorStores))
			if !reflect.DeepEqual(dyn, want) {
				t.Errorf("dynamic families = %v, want %v", dyn, want)
			}
			if warns := CrossValidateFingerprints(rep.Runtime, self,
				storesReader(rep.ConstructorStores), rep); len(warns) != 0 {
				t.Errorf("fingerprint cross-validation warnings: %v", warns)
			}
		})
	}
}

// TestApprovalPhisherEvidence pins the fingerprint's evidence fields:
// the forwarded sink selector and the hardcoded receiver.
func TestApprovalPhisherEvidence(t *testing.T) {
	for _, sink := range ApprovalSinkSignatures {
		initcode, err := ApprovalPhisherDeploy(ApprovalPhisherSpec{SinkSignature: sink, Receiver: receiver})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := evmstatic.AnalyzeDeploy(initcode)
		if err != nil {
			t.Fatal(err)
		}
		var fp *evmstatic.Fingerprint
		for i := range rep.Fingerprints {
			if rep.Fingerprints[i].Family == evmstatic.FamilyApprovalPhish {
				fp = &rep.Fingerprints[i]
			}
		}
		if fp == nil {
			t.Fatalf("%s: no approval-phishing fingerprint", sink)
		}
		if fp.SinkSelector != ethabi.Selector(sink) {
			t.Errorf("%s: sink selector %#x", sink, fp.SinkSelector)
		}
		if fp.Spender != receiver {
			t.Errorf("%s: spender %s, want %s", sink, fp.Spender, receiver)
		}
		if fp.Selector != ethabi.Selector(DrainSignature) {
			t.Errorf("%s: entry selector %#x", sink, fp.Selector)
		}
	}
}

// TestPyramidEvidence pins the pyramid fingerprint's leg and level
// counts.
func TestPyramidEvidence(t *testing.T) {
	initcode, err := PyramidDeploy(testPyramidSpec())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evmstatic.AnalyzeDeploy(initcode)
	if err != nil {
		t.Fatal(err)
	}
	var fp *evmstatic.Fingerprint
	for i := range rep.Fingerprints {
		if rep.Fingerprints[i].Family == evmstatic.FamilyPyramid {
			fp = &rep.Fingerprints[i]
		}
	}
	if fp == nil {
		t.Fatal("no pyramid fingerprint")
	}
	if fp.Legs != 3 || fp.Levels != 3 {
		t.Errorf("legs=%d levels=%d, want 3/3", fp.Legs, fp.Levels)
	}
}

// TestApprovalPhisherDrainsOnChain runs the approval-phishing theft
// end to end: the victim signs the phishing approval, the operator
// relays drain(token, victim, amount), and the token moves to the
// hardcoded receiver.
func TestApprovalPhisherDrainsOnChain(t *testing.T) {
	c := newChain(t)
	admin := deployer
	c.RegisterNative(usdcAddr, tokens.NewERC20(usdcAddr, "USDC", admin))

	initcode, err := ApprovalPhisherDeploy(ApprovalPhisherSpec{Receiver: receiver})
	if err != nil {
		t.Fatal(err)
	}
	_, rs := c.Mine(ts(), &chain.Transaction{From: deployer, Data: initcode})
	if !rs[0].Status {
		t.Fatalf("deploy failed: %s", rs[0].Err)
	}
	phisher := rs[0].ContractAddress

	mint, _ := ethabi.EncodeCall("mint(address,uint256)",
		[]ethabi.Type{ethabi.AddressT, ethabi.Uint256T}, []any{victim, big.NewInt(1000)})
	c.Mine(ts(), &chain.Transaction{From: admin, To: to(usdcAddr), Data: mint})
	approve, _ := ethabi.EncodeCall("approve(address,uint256)",
		[]ethabi.Type{ethabi.AddressT, ethabi.Uint256T}, []any{phisher, big.NewInt(1000)})
	c.Mine(ts(), &chain.Transaction{From: victim, To: to(usdcAddr), Data: approve})

	drain, err := ethabi.EncodeCall(DrainSignature,
		[]ethabi.Type{ethabi.AddressT, ethabi.AddressT, ethabi.Uint256T},
		[]any{usdcAddr, victim, big.NewInt(1000)})
	if err != nil {
		t.Fatal(err)
	}
	_, rs = c.Mine(ts(), &chain.Transaction{From: authorized, To: to(phisher), Data: drain})
	if !rs[0].Status {
		t.Fatalf("drain failed: %s", rs[0].Err)
	}
	if len(rs[0].Transfers) != 1 {
		t.Fatalf("transfers = %d, want 1", len(rs[0].Transfers))
	}
	tr := rs[0].Transfers[0]
	if tr.From != victim || tr.To != receiver || tr.Amount.Uint64() != 1000 {
		t.Errorf("transfer = %+v", tr)
	}
}

// TestPyramidPaysOutOnChain joins the pyramid with the exact matrix
// total and expects each level to receive its constant amount.
func TestPyramidPaysOutOnChain(t *testing.T) {
	c := newChain(t)
	spec := testPyramidSpec()
	initcode, err := PyramidDeploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, rs := c.Mine(ts(), &chain.Transaction{From: deployer, Data: initcode})
	if !rs[0].Status {
		t.Fatalf("deploy failed: %s", rs[0].Err)
	}
	addr := rs[0].ContractAddress

	join, err := ethabi.EncodeCall(JoinSignature, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rs = c.Mine(ts(), &chain.Transaction{
		From: victim, To: to(addr), Data: join,
		Value: ethtypes.WeiFromBig(spec.Total()),
	})
	if !rs[0].Status {
		t.Fatalf("join failed: %s", rs[0].Err)
	}
	for i, lv := range spec.Levels {
		got := c.BalanceOf(lv.Payee)
		if got.Big().Cmp(lv.Amount) != 0 {
			t.Errorf("level %d payee balance = %s, want %s", i, got, lv.Amount)
		}
	}
}

// TestCloneDelegatesToImplementation deploys a shared fallback-style
// implementation and an EIP-1167 clone carrying its own split config,
// then checks both the on-chain behavior (the clone splits per its own
// storage) and the static side (AnalyzeResolved follows the proxy and
// recovers the implementation's split under the clone's storage).
func TestCloneDelegatesToImplementation(t *testing.T) {
	c := newChain(t)
	implSpec := Spec{Style: StyleFallback, Operator: operator, Affiliate: affiliate,
		OperatorPerMille: 200, Authorized: authorized}
	impl := deploySpec(t, c, implSpec)

	cloneAffiliate := ethtypes.Addr("0xafc0000000000000000000000000000000000009")
	cloneInit, err := CloneDeploy(impl, Spec{Style: StyleFallback, Operator: operator,
		Affiliate: cloneAffiliate, OperatorPerMille: 150})
	if err != nil {
		t.Fatal(err)
	}
	_, rs := c.Mine(ts(), &chain.Transaction{From: deployer, Data: cloneInit})
	if !rs[0].Status {
		t.Fatalf("clone deploy failed: %s", rs[0].Err)
	}
	clone := rs[0].ContractAddress

	// A plain send to the clone splits 150/850 per the clone's storage,
	// not the implementation's.
	_, rs = c.Mine(ts(), &chain.Transaction{
		From: victim, To: to(clone), Value: ethtypes.NewWei(1000),
	})
	if !rs[0].Status {
		t.Fatalf("send to clone failed: %s", rs[0].Err)
	}
	if got := c.BalanceOf(operator).Big().Int64(); got != 150 {
		t.Errorf("operator received %d, want 150", got)
	}
	if got := c.BalanceOf(cloneAffiliate).Big().Int64(); got != 850 {
		t.Errorf("clone affiliate received %d, want 850", got)
	}

	// Static resolution: the clone's code is a proxy; following it with
	// the clone's storage recovers the implementation's split facts.
	resolve := func(a ethtypes.Address) ([]byte, error) { return c.CodeAt(a), nil }
	rep := evmstatic.AnalyzeResolved(c.CodeAt(clone), StaticStorage(clone, chainReader(c)), resolve)
	if !rep.ProxyResolved || rep.ProxyImpl != impl {
		t.Fatalf("proxy resolution: resolved=%v impl=%s", rep.ProxyResolved, rep.ProxyImpl)
	}
	if !slices.Contains(evmstatic.FamilyNames(rep.Fingerprints), string(evmstatic.FamilyProxy)) {
		t.Error("proxy fingerprint missing after resolution")
	}
	if !rep.HasSplit || !rep.RatioKnown || rep.OperatorPerMille != 150 {
		t.Errorf("resolved split = %+v", rep)
	}
	if !rep.AffiliateKnown || rep.Affiliate != cloneAffiliate {
		t.Errorf("resolved affiliate = %s, want %s", rep.Affiliate, cloneAffiliate)
	}
}
