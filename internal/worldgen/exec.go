package worldgen

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/ethabi"
	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/prices"
	"repro/internal/tokens"
)

// World is a fully generated environment: the chain with every theft
// executed, the public label directory, the price oracle, and the
// planted ground truth the pipeline is evaluated against.
type World struct {
	Plan   *Plan
	Chain  *chain.Chain
	Oracle *prices.Oracle
	Labels *labels.Directory
	Truth  *GroundTruth

	TokenAddrs  []ethtypes.Address
	NFTAddrs    []ethtypes.Address
	Marketplace ethtypes.Address
	Exchange    ethtypes.Address
	Mixer       ethtypes.Address
	Admin       ethtypes.Address
}

// GroundTruth records what was planted, for precision/recall scoring.
type GroundTruth struct {
	// ContractAddrs maps [family][contract index] to the deployed
	// address.
	ContractAddrs [][]ethtypes.Address
	// ContractFamily, OperatorFamily, AffiliateFamily map DaaS accounts
	// to their family index.
	ContractFamily  map[ethtypes.Address]int
	OperatorFamily  map[ethtypes.Address]int
	AffiliateFamily map[ethtypes.Address]int
	// VictimLossUSD accumulates each victim's total loss.
	VictimLossUSD map[ethtypes.Address]float64
	// VictimIncidents counts thefts per victim.
	VictimIncidents map[ethtypes.Address]int
	// ProfitTxs maps every true profit-sharing transaction to its
	// incident.
	ProfitTxs map[ethtypes.Hash]*Incident
	// BenignSplitTxs are split-shaped transactions of benign splitter
	// contracts (the classifier negatives).
	BenignSplitTxs map[ethtypes.Hash]bool
	// CollidingSplitters are benign contracts whose ratio collides with
	// the drainer set.
	CollidingSplitters []ethtypes.Address
	// SharedPhishingEOAs are the Etherscan-labeled accounts linking
	// operators (§7.1 edge type 2).
	SharedPhishingEOAs []ethtypes.Address
	// CashoutRoute records each cashed-out DaaS account's laundering
	// destination class: "mixer" or "exchange" (§8.1).
	CashoutRoute map[ethtypes.Address]string
	// ScamContracts maps each planted fingerprint-family contract to
	// its static family label (approval-phishing, pyramid-payout,
	// proxy) — the positive set TestFingerprintsOnWorld (in
	// internal/contracts) scores the static engine against.
	ScamContracts map[ethtypes.Address]string
	// NegativeContracts maps each planted benign look-alike (router,
	// allowance-helper, airdrop, benign-proxy) to its kind — the
	// adversarial negatives the fingerprints must not flag.
	NegativeContracts map[ethtypes.Address]string
	// DrainerImpl is the shared implementation behind the malicious
	// EIP-1167 clones.
	DrainerImpl ethtypes.Address
}

func newGroundTruth() *GroundTruth {
	return &GroundTruth{
		ContractFamily:  make(map[ethtypes.Address]int),
		OperatorFamily:  make(map[ethtypes.Address]int),
		AffiliateFamily: make(map[ethtypes.Address]int),
		VictimLossUSD:   make(map[ethtypes.Address]float64),
		VictimIncidents: make(map[ethtypes.Address]int),
		ProfitTxs:       make(map[ethtypes.Hash]*Incident),
		BenignSplitTxs:  make(map[ethtypes.Hash]bool),
		CashoutRoute:    make(map[ethtypes.Address]string),

		ScamContracts:     make(map[ethtypes.Address]string),
		NegativeContracts: make(map[ethtypes.Address]string),
	}
}

// DaaSAccountCount returns the planted population size (contracts +
// operators + affiliates), the denominator of §8.1's label coverage.
func (gt *GroundTruth) DaaSAccountCount() int {
	return len(gt.ContractFamily) + len(gt.OperatorFamily) + len(gt.AffiliateFamily)
}

// Generate plans and builds a world in one step.
func Generate(cfg Config) (*World, error) {
	plan, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	return Build(plan)
}

// Build executes a plan against a fresh chain.
func Build(plan *Plan) (*World, error) {
	rng := rand.New(rand.NewPCG(plan.Config.Seed^0xabcdef12, plan.Config.Seed+7))
	w := &World{
		Plan:   plan,
		Chain:  chain.New(DatasetStart.Add(-24 * time.Hour)),
		Oracle: prices.New(),
		Labels: labels.New(),
		Truth:  newGroundTruth(),
	}
	b := &builder{w: w, rng: rng}
	b.setupInfrastructure()
	if err := b.deployContracts(); err != nil {
		return nil, err
	}
	b.plantOperatorLinks()
	if err := b.deploySplitters(); err != nil {
		return nil, err
	}
	if err := b.buildScamShapes(); err != nil {
		return nil, err
	}
	if err := b.runTimeline(); err != nil {
		return nil, err
	}
	b.assignLabels()
	if err := b.runCashouts(); err != nil {
		return nil, err
	}
	return w, nil
}

// builder carries generation state.
type builder struct {
	w   *World
	rng *rand.Rand
	// nftNext is the next unminted token id per collection.
	nftNext []uint64
	// mktApproved tracks operator×collection marketplace approvals.
	mktApproved map[[2]int]map[ethtypes.Address]bool
	// splitterAddrs are the deployed benign splitter contracts.
	splitterAddrs []ethtypes.Address
	labelSeq      int
}

func (b *builder) setupInfrastructure() {
	w := b.w
	w.Admin = randomAddr(b.rng)
	w.Exchange = randomAddr(b.rng)
	w.Chain.Fund(w.Exchange, ethtypes.Ether(50_000_000))
	w.Chain.Fund(w.Admin, ethtypes.Ether(1000))

	for _, tp := range w.Plan.Tokens {
		addr := randomAddr(b.rng)
		w.Chain.RegisterNative(addr, tokens.NewERC20(addr, tp.Symbol, w.Admin))
		w.Oracle.Register(addr, prices.Quote{Symbol: tp.Symbol, Decimals: tp.Decimals, USD: tp.USD})
		w.TokenAddrs = append(w.TokenAddrs, addr)
	}
	for _, cp := range w.Plan.NFTs {
		addr := randomAddr(b.rng)
		w.Chain.RegisterNative(addr, tokens.NewERC721(addr, cp.Symbol, w.Admin))
		w.Oracle.Register(addr, prices.Quote{Symbol: cp.Symbol, Decimals: 0, USD: cp.FloorUSD})
		w.NFTAddrs = append(w.NFTAddrs, addr)
	}
	w.Marketplace = randomAddr(b.rng)
	w.Chain.RegisterNative(w.Marketplace, tokens.NewMarketplace(w.Marketplace, 0))
	w.Chain.Fund(w.Marketplace, ethtypes.Ether(100_000_000))
	w.Mixer = randomAddr(b.rng)

	b.nftNext = make([]uint64, len(w.Plan.NFTs))
	for i := range b.nftNext {
		b.nftNext[i] = uint64(i+1) * 1_000_000
	}
	b.mktApproved = make(map[[2]int]map[ethtypes.Address]bool)
}

// deployContracts creates every profit-sharing contract at its planned
// start time and records ground truth.
func (b *builder) deployContracts() error {
	w := b.w
	w.Truth.ContractAddrs = make([][]ethtypes.Address, len(w.Plan.Families))
	for fi, fam := range w.Plan.Families {
		w.Truth.ContractAddrs[fi] = make([]ethtypes.Address, len(fam.Contracts))
		for _, op := range fam.Operators {
			w.Truth.OperatorFamily[op.Addr] = fi
		}
		for _, aff := range fam.Affiliates {
			w.Truth.AffiliateFamily[aff.Addr] = fi
		}
		for ci, cp := range fam.Contracts {
			spec := contracts.Spec{
				Style:            fam.Params.Style,
				Operator:         fam.Operators[cp.Operator].Addr,
				OperatorPerMille: cp.RatioPM,
				Authorized:       fam.Operators[cp.Operator].Addr,
			}
			if cp.Affiliate >= 0 {
				spec.Affiliate = fam.Affiliates[cp.Affiliate].Addr
			}
			initcode, err := contracts.Deploy(spec)
			if err != nil {
				return fmt.Errorf("worldgen: bad contract spec: %w", err)
			}
			deployer := fam.Operators[cp.Operator].Addr
			_, rs := w.Chain.Mine(cp.Start, &chain.Transaction{From: deployer, Data: initcode})
			if !rs[0].Status {
				return fmt.Errorf("worldgen: contract deployment failed: %s", rs[0].Err)
			}
			addr := rs[0].ContractAddress
			w.Truth.ContractAddrs[fi][ci] = addr
			w.Truth.ContractFamily[addr] = fi
		}
	}
	return nil
}

// plantOperatorLinks executes the planned clustering edges.
func (b *builder) plantOperatorLinks() {
	w := b.w
	for fi, fam := range w.Plan.Families {
		for _, link := range fam.Links {
			a := fam.Operators[link.A]
			bb := fam.Operators[link.B]
			t := laterOf(a.Start, bb.Start).Add(6 * time.Hour)
			if link.ViaSharedAccount {
				shared := randomAddr(b.rng)
				w.Truth.SharedPhishingEOAs = append(w.Truth.SharedPhishingEOAs, shared)
				w.Labels.Add(labels.Label{
					Address: shared, Source: labels.SourceEtherscan,
					Category: labels.CategoryPhishing, Name: b.nextFakePhishing(),
				})
				w.Chain.Fund(a.Addr, ethtypes.Ether(1))
				w.Chain.Fund(bb.Addr, ethtypes.Ether(1))
				w.Chain.Mine(t,
					&chain.Transaction{From: a.Addr, To: addrPtr(shared), Value: ethtypes.GWei(100_000_000)},
					&chain.Transaction{From: bb.Addr, To: addrPtr(shared), Value: ethtypes.GWei(100_000_000)})
			} else {
				w.Chain.Fund(a.Addr, ethtypes.Ether(2))
				w.Chain.Mine(t, &chain.Transaction{From: a.Addr, To: addrPtr(bb.Addr), Value: ethtypes.Ether(1)})
			}
		}
		_ = fi
	}
}

// deploySplitters creates the benign payment splitters.
func (b *builder) deploySplitters() error {
	w := b.w
	for i := range w.Plan.Benign.Splitters {
		sp := &w.Plan.Benign.Splitters[i]
		spec := contracts.Spec{
			Style:            contracts.StyleFallback,
			Operator:         sp.PartyA,
			Affiliate:        sp.PartyB,
			OperatorPerMille: sp.RatioPM,
			Authorized:       sp.PartyA,
		}
		initcode, err := contracts.Deploy(spec)
		if err != nil {
			return fmt.Errorf("worldgen: bad splitter spec: %w", err)
		}
		_, rs := w.Chain.Mine(sp.Payments[0].Add(-24*time.Hour),
			&chain.Transaction{From: sp.Payer, Data: initcode})
		addr := rs[0].ContractAddress
		b.splitterAddrs = append(b.splitterAddrs, addr)
		if sp.Colliding {
			w.Truth.CollidingSplitters = append(w.Truth.CollidingSplitters, addr)
		}
	}
	return nil
}

// timelineEvent is anything scheduled on the world clock.
type timelineEvent struct {
	t  time.Time
	fn func() error
}

// runTimeline executes incidents, benign traffic, splitter payments,
// and revocations in time order.
func (b *builder) runTimeline() error {
	w := b.w
	var events []timelineEvent
	for _, inc := range w.Plan.Incidents {
		inc := inc
		events = append(events, timelineEvent{inc.Time, func() error { return b.runIncident(inc) }})
	}
	for i := range w.Plan.Benign.Transfers {
		tr := w.Plan.Benign.Transfers[i]
		events = append(events, timelineEvent{tr.Time, func() error { return b.runBenignTransfer(tr) }})
	}
	for i := range w.Plan.Benign.Splitters {
		sp := &w.Plan.Benign.Splitters[i]
		addr := b.splitterAddrs[i]
		for _, pt := range sp.Payments {
			pt := pt
			events = append(events, timelineEvent{pt, func() error { return b.runSplitterPayment(sp, addr, pt) }})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].t.Before(events[j].t) })
	for _, ev := range events {
		if err := ev.fn(); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) runBenignTransfer(tr BenignTransfer) error {
	w := b.w
	wei := w.Oracle.EtherForUSD(tr.AmountUSD, tr.Time)
	w.Chain.Fund(tr.From, wei)
	_, rs := w.Chain.Mine(tr.Time, &chain.Transaction{From: tr.From, To: addrPtr(tr.To), Value: wei})
	if !rs[0].Status {
		return fmt.Errorf("worldgen: benign transfer failed: %s", rs[0].Err)
	}
	return nil
}

func (b *builder) runSplitterPayment(sp *SplitterPlan, addr ethtypes.Address, t time.Time) error {
	w := b.w
	wei := w.Oracle.EtherForUSD(sp.PayUSD, t)
	w.Chain.Fund(sp.Payer, wei)
	_, rs := w.Chain.Mine(t, &chain.Transaction{From: sp.Payer, To: addrPtr(addr), Value: wei})
	if !rs[0].Status {
		return fmt.Errorf("worldgen: splitter payment failed: %s", rs[0].Err)
	}
	w.Truth.BenignSplitTxs[rs[0].TxHash] = true
	return nil
}

// runIncident executes one theft through the planned scenario and
// records its ground truth.
func (b *builder) runIncident(inc *Incident) error {
	w := b.w
	fam := w.Plan.Families[inc.Family]
	contractAddr := w.Truth.ContractAddrs[inc.Family][inc.Contract]
	affiliate := fam.Affiliates[inc.Affiliate].Addr
	operator := fam.Operators[inc.Operator].Addr

	var profitTx ethtypes.Hash
	var err error
	switch inc.Kind {
	case chain.AssetETH:
		profitTx, err = b.runETHTheft(inc, fam, contractAddr, affiliate)
	case chain.AssetERC20:
		profitTx, err = b.runERC20Theft(inc, fam, contractAddr, operator, affiliate)
	case chain.AssetERC721:
		profitTx, err = b.runNFTTheft(inc, fam, contractAddr, operator, affiliate)
	default:
		err = fmt.Errorf("worldgen: unknown asset kind %v", inc.Kind)
	}
	if err != nil {
		return fmt.Errorf("worldgen: incident (family %s, kind %v, $%.0f): %w",
			fam.Params.Key, inc.Kind, inc.LossUSD, err)
	}
	w.Truth.ProfitTxs[profitTx] = inc
	w.Truth.VictimLossUSD[inc.Victim] += inc.LossUSD
	w.Truth.VictimIncidents[inc.Victim]++
	return nil
}

// runETHTheft: the victim signs the phishing transaction that sends
// ETH straight into the profit-sharing contract (Fig. 3 top path).
func (b *builder) runETHTheft(inc *Incident, fam *FamilyPlan, contractAddr, affiliate ethtypes.Address) (ethtypes.Hash, error) {
	w := b.w
	wei := w.Oracle.EtherForUSD(inc.LossUSD, inc.Time)
	b.fundVictim(inc.Victim, wei, inc.Time)

	tx := &chain.Transaction{From: inc.Victim, To: addrPtr(contractAddr), Value: wei}
	if fam.Params.Style != contracts.StyleFallback {
		data, err := contracts.ClaimData(mainSigOf(fam), affiliate)
		if err != nil {
			return ethtypes.Hash{}, err
		}
		tx.Data = data
	}
	_, rs := w.Chain.Mine(inc.Time, tx)
	if !rs[0].Status {
		return ethtypes.Hash{}, fmt.Errorf("ETH theft tx failed: %s", rs[0].Err)
	}
	return rs[0].TxHash, nil
}

// runERC20Theft: the victim approves the contract (possibly for two
// tokens in one block), then the operator's multicall pulls the split
// directly to operator and affiliate (Fig. 3 middle path).
func (b *builder) runERC20Theft(inc *Incident, fam *FamilyPlan, contractAddr, operator, affiliate ethtypes.Address) (ethtypes.Hash, error) {
	w := b.w
	tokens := []int{inc.TokenIdx}
	if inc.Simultaneous {
		second := (inc.TokenIdx + 1) % len(w.TokenAddrs)
		tokens = append(tokens, second)
	}
	perTokenUSD := inc.LossUSD / float64(len(tokens))

	var approves []*chain.Transaction
	var steps []contracts.MulticallStep
	ratio := fam.Contracts[inc.Contract].RatioPM
	for _, ti := range tokens {
		token := w.TokenAddrs[ti]
		amount := w.Oracle.TokensForUSD(token, perTokenUSD)
		if amount.IsZero() {
			amount = ethtypes.NewWei(1)
		}
		if err := b.mintERC20(token, inc.Victim, amount, inc.Time); err != nil {
			return ethtypes.Hash{}, err
		}
		if inc.Permit {
			// Permit scheme: the allowance is granted inside the
			// drainer's own multicall — no victim-signed transaction.
			permit, err := ethabi.EncodeCall("permit(address,address,uint256)",
				[]ethabi.Type{ethabi.AddressT, ethabi.AddressT, ethabi.Uint256T},
				[]any{inc.Victim, contractAddr, amount.Big()})
			if err != nil {
				return ethtypes.Hash{}, err
			}
			steps = append(steps, contracts.MulticallStep{Target: token, Payload: permit})
		} else {
			appr, err := ethabi.EncodeCall("approve(address,uint256)",
				[]ethabi.Type{ethabi.AddressT, ethabi.Uint256T},
				[]any{contractAddr, amount.Big()})
			if err != nil {
				return ethtypes.Hash{}, err
			}
			approves = append(approves, &chain.Transaction{From: inc.Victim, To: addrPtr(token), Data: appr})
		}

		opShare := amount.MulDiv(ratio, 1000)
		affShare := amount.Sub(opShare)
		for _, leg := range []struct {
			dst ethtypes.Address
			amt ethtypes.Wei
		}{{operator, opShare}, {affiliate, affShare}} {
			payload, err := ethabi.EncodeCall("transferFrom(address,address,uint256)",
				[]ethabi.Type{ethabi.AddressT, ethabi.AddressT, ethabi.Uint256T},
				[]any{inc.Victim, leg.dst, leg.amt.Big()})
			if err != nil {
				return ethtypes.Hash{}, err
			}
			steps = append(steps, contracts.MulticallStep{Target: token, Payload: payload})
		}
	}
	// All approvals land in one block — the "multiple phishing
	// transactions signed simultaneously" signature of §6.1. Permit
	// incidents have none.
	if len(approves) > 0 {
		_, rs := w.Chain.Mine(inc.Time, approves...)
		for _, r := range rs {
			if !r.Status {
				return ethtypes.Hash{}, fmt.Errorf("approval failed: %s", r.Err)
			}
		}
	}
	mc, err := contracts.MulticallData(steps)
	if err != nil {
		return ethtypes.Hash{}, err
	}
	_, rs := w.Chain.Mine(inc.Time.Add(7*time.Minute),
		&chain.Transaction{From: operator, To: addrPtr(contractAddr), Data: mc})
	if !rs[0].Status {
		return ethtypes.Hash{}, fmt.Errorf("multicall failed: %s", rs[0].Err)
	}
	if inc.Revoke && !inc.Permit {
		for _, ti := range tokens {
			token := w.TokenAddrs[ti]
			revoke, err := ethabi.EncodeCall("approve(address,uint256)",
				[]ethabi.Type{ethabi.AddressT, ethabi.Uint256T},
				[]any{contractAddr, big.NewInt(0)})
			if err != nil {
				return ethtypes.Hash{}, err
			}
			w.Chain.Mine(inc.Time.Add(72*time.Hour),
				&chain.Transaction{From: inc.Victim, To: addrPtr(token), Data: revoke})
		}
	}
	return rs[0].TxHash, nil
}

// runNFTTheft: approval-for-all, multicall pull to the operator,
// marketplace liquidation, then an ETH split through the contract
// (Fig. 3 bottom path; §4.2 NFT scenario).
func (b *builder) runNFTTheft(inc *Incident, fam *FamilyPlan, contractAddr, operator, affiliate ethtypes.Address) (ethtypes.Hash, error) {
	w := b.w
	collection := w.NFTAddrs[inc.CollectionIdx]
	floor := w.Plan.NFTs[inc.CollectionIdx].FloorUSD

	ids := make([]uint64, inc.NFTCount)
	for i := range ids {
		ids[i] = b.nftNext[inc.CollectionIdx]
		b.nftNext[inc.CollectionIdx]++
		if err := b.mintNFT(collection, inc.Victim, ids[i], inc.Time); err != nil {
			return ethtypes.Hash{}, err
		}
	}
	// The phishing transaction: setApprovalForAll to the contract.
	saa, err := ethabi.EncodeCall("setApprovalForAll(address,bool)",
		[]ethabi.Type{ethabi.AddressT, ethabi.BoolT}, []any{contractAddr, true})
	if err != nil {
		return ethtypes.Hash{}, err
	}
	_, rs := w.Chain.Mine(inc.Time, &chain.Transaction{From: inc.Victim, To: addrPtr(collection), Data: saa})
	if !rs[0].Status {
		return ethtypes.Hash{}, fmt.Errorf("setApprovalForAll failed: %s", rs[0].Err)
	}

	// Multicall pulls every NFT to the operator EOA.
	var steps []contracts.MulticallStep
	for _, id := range ids {
		payload, err := ethabi.EncodeCall("transferFrom(address,address,uint256)",
			[]ethabi.Type{ethabi.AddressT, ethabi.AddressT, ethabi.Uint256T},
			[]any{inc.Victim, operator, new(big.Int).SetUint64(id)})
		if err != nil {
			return ethtypes.Hash{}, err
		}
		steps = append(steps, contracts.MulticallStep{Target: collection, Payload: payload})
	}
	mc, err := contracts.MulticallData(steps)
	if err != nil {
		return ethtypes.Hash{}, err
	}
	_, rs = w.Chain.Mine(inc.Time.Add(5*time.Minute),
		&chain.Transaction{From: operator, To: addrPtr(contractAddr), Data: mc})
	if !rs[0].Status {
		return ethtypes.Hash{}, fmt.Errorf("NFT multicall failed: %s", rs[0].Err)
	}

	// Liquidate on the marketplace.
	if err := b.approveMarketplace(inc, operator, collection); err != nil {
		return ethtypes.Hash{}, err
	}
	proceeds := ethtypes.Wei{}
	for _, id := range ids {
		price := w.Oracle.EtherForUSD(floor, inc.Time)
		sell, err := ethabi.EncodeCall("sell(address,uint256,uint256)",
			[]ethabi.Type{ethabi.AddressT, ethabi.Uint256T, ethabi.Uint256T},
			[]any{collection, new(big.Int).SetUint64(id), price.Big()})
		if err != nil {
			return ethtypes.Hash{}, err
		}
		_, rs = w.Chain.Mine(inc.Time.Add(20*time.Minute),
			&chain.Transaction{From: operator, To: addrPtr(w.Marketplace), Data: sell})
		if !rs[0].Status {
			return ethtypes.Hash{}, fmt.Errorf("marketplace sale failed: %s", rs[0].Err)
		}
		proceeds = proceeds.Add(price)
	}

	// Split proceeds through the contract: the profit-sharing tx.
	split := &chain.Transaction{From: operator, To: addrPtr(contractAddr), Value: proceeds}
	if fam.Params.Style != contracts.StyleFallback {
		data, err := contracts.ClaimData(mainSigOf(fam), affiliate)
		if err != nil {
			return ethtypes.Hash{}, err
		}
		split.Data = data
	}
	_, rs = w.Chain.Mine(inc.Time.Add(30*time.Minute), split)
	if !rs[0].Status {
		return ethtypes.Hash{}, fmt.Errorf("proceeds split failed: %s", rs[0].Err)
	}

	if inc.Revoke {
		revoke, err := ethabi.EncodeCall("setApprovalForAll(address,bool)",
			[]ethabi.Type{ethabi.AddressT, ethabi.BoolT}, []any{contractAddr, false})
		if err != nil {
			return ethtypes.Hash{}, err
		}
		w.Chain.Mine(inc.Time.Add(96*time.Hour),
			&chain.Transaction{From: inc.Victim, To: addrPtr(collection), Data: revoke})
	}
	return rs[0].TxHash, nil
}

func (b *builder) approveMarketplace(inc *Incident, operator ethtypes.Address, collection ethtypes.Address) error {
	key := [2]int{inc.Family, inc.CollectionIdx}
	if b.mktApproved[key] == nil {
		b.mktApproved[key] = make(map[ethtypes.Address]bool)
	}
	if b.mktApproved[key][operator] {
		return nil
	}
	saa, err := ethabi.EncodeCall("setApprovalForAll(address,bool)",
		[]ethabi.Type{ethabi.AddressT, ethabi.BoolT}, []any{b.w.Marketplace, true})
	if err != nil {
		return err
	}
	_, rs := b.w.Chain.Mine(inc.Time.Add(10*time.Minute),
		&chain.Transaction{From: operator, To: addrPtr(collection), Data: saa})
	if !rs[0].Status {
		return fmt.Errorf("marketplace approval failed: %s", rs[0].Err)
	}
	b.mktApproved[key][operator] = true
	return nil
}

// fundVictim endows a victim, sometimes via an on-chain exchange
// withdrawal for realism.
func (b *builder) fundVictim(victim ethtypes.Address, wei ethtypes.Wei, t time.Time) {
	w := b.w
	if b.rng.Float64() < 0.1 {
		_, rs := w.Chain.Mine(t.Add(-2*time.Hour),
			&chain.Transaction{From: w.Exchange, To: addrPtr(victim), Value: wei})
		if rs[0].Status {
			return
		}
	}
	w.Chain.Fund(victim, wei)
}

func (b *builder) mintERC20(token, to ethtypes.Address, amount ethtypes.Wei, t time.Time) error {
	data, err := ethabi.EncodeCall("mint(address,uint256)",
		[]ethabi.Type{ethabi.AddressT, ethabi.Uint256T}, []any{to, amount.Big()})
	if err != nil {
		return err
	}
	_, rs := b.w.Chain.Mine(t.Add(-1*time.Hour), &chain.Transaction{From: b.w.Admin, To: addrPtr(token), Data: data})
	if !rs[0].Status {
		return fmt.Errorf("mint failed: %s", rs[0].Err)
	}
	return nil
}

func (b *builder) mintNFT(collection, to ethtypes.Address, id uint64, t time.Time) error {
	data, err := ethabi.EncodeCall("mint(address,uint256)",
		[]ethabi.Type{ethabi.AddressT, ethabi.Uint256T}, []any{to, new(big.Int).SetUint64(id)})
	if err != nil {
		return err
	}
	_, rs := b.w.Chain.Mine(t.Add(-1*time.Hour), &chain.Transaction{From: b.w.Admin, To: addrPtr(collection), Data: data})
	if !rs[0].Status {
		return fmt.Errorf("NFT mint failed: %s", rs[0].Err)
	}
	return nil
}

// assignLabels populates the public label directory: seed-source tags
// on high-volume contracts, family-name tags on dominant operators,
// and filler tags up to the §8.1 Etherscan coverage rate.
func (b *builder) assignLabels() {
	w := b.w
	// Seed-source labels on contracts.
	for fi, fam := range w.Plan.Families {
		for ci, cp := range fam.Contracts {
			addr := w.Truth.ContractAddrs[fi][ci]
			for _, src := range cp.LabeledBy {
				w.Labels.Add(labels.Label{
					Address:  addr,
					Source:   labels.Source(src),
					Category: labels.CategoryPhishing,
					Name:     b.nextFakePhishing(),
				})
			}
		}
	}
	// Family-name labels on the top operators of named families.
	for fi, fam := range w.Plan.Families {
		if fam.Params.EtherscanName == "" {
			continue
		}
		top := 1 + len(fam.Operators)/4
		for oi := 0; oi < top && oi < len(fam.Operators); oi++ {
			w.Labels.Add(labels.Label{
				Address:  fam.Operators[oi].Addr,
				Source:   labels.SourceEtherscan,
				Category: labels.CategoryPhishing,
				Name:     fam.Params.EtherscanName,
			})
		}
		_ = fi
	}
	// Exchange and mixer labels (benign infrastructure).
	w.Labels.Add(labels.Label{
		Address: w.Exchange, Source: labels.SourceEtherscan,
		Category: labels.CategoryExchange, Name: "CEX Hot Wallet 14",
	})
	w.Labels.Add(labels.Label{
		Address: w.Mixer, Source: labels.SourceEtherscan,
		Category: labels.CategoryService, Name: "Cyclone Mixer: Router",
	})

	// Fill Etherscan coverage to the configured fraction of DaaS
	// accounts.
	total := w.Truth.DaaSAccountCount()
	want := int(float64(total) * w.Plan.Config.EtherscanCoverage)
	have := 0
	for addr := range w.Truth.ContractFamily {
		if w.Labels.Has(addr, labels.SourceEtherscan) {
			have++
		}
	}
	for addr := range w.Truth.OperatorFamily {
		if w.Labels.Has(addr, labels.SourceEtherscan) {
			have++
		}
	}
	// Filler: affiliate accounts reported by users over time.
	for fi := range w.Plan.Families {
		if have >= want {
			break
		}
		fam := w.Plan.Families[fi]
		for _, aff := range fam.Affiliates {
			if have >= want {
				break
			}
			if w.Labels.Has(aff.Addr, labels.SourceEtherscan) {
				continue
			}
			w.Labels.Add(labels.Label{
				Address: aff.Addr, Source: labels.SourceEtherscan,
				Category: labels.CategoryPhishing, Name: b.nextFakePhishing(),
			})
			have++
		}
	}
}

func (b *builder) nextFakePhishing() string {
	b.labelSeq++
	return fmt.Sprintf("Fake_Phishing%d", 60000+b.labelSeq)
}

// mainSigOf returns the named ETH-theft signature of a family's
// template.
func mainSigOf(fam *FamilyPlan) string {
	if fam.Params.Style == contracts.StyleNetworkMerge {
		return contracts.NetworkMergeSignature
	}
	return contracts.ClaimSignatures[0]
}

func addrPtr(a ethtypes.Address) *ethtypes.Address { return &a }

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// runCashouts moves accumulated profits off the DaaS accounts after
// each family winds down (§8.1): accounts that ended up publicly
// labeled on Etherscan cannot cash out at exchanges, so they launder
// through intermediary hops into a mixing service; unlabeled accounts
// deposit at the exchange directly.
func (b *builder) runCashouts() error {
	w := b.w
	for _, fam := range w.Plan.Families {
		when := fam.Params.End.Add(24 * time.Hour)
		accounts := make([]ethtypes.Address, 0, len(fam.Operators)+8)
		for _, op := range fam.Operators {
			accounts = append(accounts, op.Addr)
		}
		// Top affiliates cash out too.
		top := len(fam.Affiliates) / 10
		if top < 1 {
			top = 1
		}
		for _, aff := range fam.Affiliates[:top] {
			accounts = append(accounts, aff.Addr)
		}
		for _, acct := range accounts {
			balance := w.Chain.BalanceOf(acct)
			// Move ~80% of holdings, keep gas money.
			amount := balance.MulDiv(8, 10)
			if amount.Cmp(ethtypes.GWei(1_000_000)) < 0 {
				continue // dust, not worth laundering
			}
			if w.Labels.Has(acct, labels.SourceEtherscan) {
				// Reported account: two-hop route into the mixer.
				hop1, hop2 := randomAddr(b.rng), randomAddr(b.rng)
				w.Chain.Mine(when, &chain.Transaction{From: acct, To: addrPtr(hop1), Value: amount})
				w.Chain.Mine(when.Add(2*time.Hour), &chain.Transaction{From: hop1, To: addrPtr(hop2), Value: amount})
				_, rs := w.Chain.Mine(when.Add(5*time.Hour), &chain.Transaction{From: hop2, To: addrPtr(w.Mixer), Value: amount})
				if !rs[0].Status {
					return fmt.Errorf("worldgen: mixer cashout failed: %s", rs[0].Err)
				}
				w.Truth.CashoutRoute[acct] = "mixer"
			} else {
				_, rs := w.Chain.Mine(when, &chain.Transaction{From: acct, To: addrPtr(w.Exchange), Value: amount})
				if !rs[0].Status {
					return fmt.Errorf("worldgen: exchange cashout failed: %s", rs[0].Err)
				}
				w.Truth.CashoutRoute[acct] = "exchange"
			}
		}
	}
	return nil
}
