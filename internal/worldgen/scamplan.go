package worldgen

import (
	"math/rand/v2"
	"time"

	"repro/internal/contracts"
	"repro/internal/ethtypes"
)

// This file plans the scam-shape populations the static fingerprint
// engine is evaluated against: one sub-population per detection family
// (approval-phishing relays, Forsage-style payout pyramids, EIP-1167
// drainer clones) plus the adversarial negatives that differ from each
// family in exactly the leg its fingerprint tests (benign payment
// routers, allowance helpers whose spender comes from calldata,
// owner-gated airdrops, and clones of a benign implementation). These
// populations are disjoint from the profit-sharing incident timeline —
// they exist so the static engine's precision and recall can be scored
// against planted ground truth (TestFingerprintsOnWorld in
// internal/contracts).

// ScamPlan collects the fingerprint-family populations.
type ScamPlan struct {
	Phishers  []PhisherPlan
	Pyramids  []PyramidPlan
	Clones    []ClonePlan
	Negatives []NegativePlan
	// DrainerFactory deploys the shared drainer implementation behind
	// the malicious clones; BenignFactory the benign one.
	DrainerFactory ethtypes.Address
	BenignFactory  ethtypes.Address
}

// PhisherPlan is one approval-phishing relay contract (paper §6.1):
// the operator deploys it with the cash-out receiver baked in, then
// replays harvested victim consent through drain().
type PhisherPlan struct {
	Operator ethtypes.Address
	Receiver ethtypes.Address
	// Sink is the forwarded allowance-consuming signature — rotated
	// over the sinks a relay can actually monetize (transferFrom spends
	// an on-chain approval, permit mints the allowance in-flight).
	Sink   string
	Start  time.Time
	Drains []DrainPlan
}

// DrainPlan is one victim drained through a phisher relay.
type DrainPlan struct {
	Victim   ethtypes.Address
	TokenIdx int
	LossUSD  float64
	Time     time.Time
}

// PyramidPlan is one payout pyramid: join() fans each deposit over a
// fixed payee matrix with level-indexed constant amounts.
type PyramidPlan struct {
	Creator ethtypes.Address
	Payees  []ethtypes.Address
	// AmountsGwei are the per-level payouts; at least two are distinct,
	// which is the leg separating a pyramid from an equal-amount
	// airdrop.
	AmountsGwei []int64
	Start       time.Time
	Joins       []JoinPlan
}

// JoinPlan is one pyramid deposit.
type JoinPlan struct {
	Joiner ethtypes.Address
	Time   time.Time
}

// ClonePlan is one EIP-1167 clone. Malicious clones point at the
// shared drainer implementation and carry their own
// operator/affiliate/ratio in clone storage; benign clones point at a
// benign splitter implementation and are planted as proxy-family
// negatives.
type ClonePlan struct {
	Deployer  ethtypes.Address
	Operator  ethtypes.Address
	Affiliate ethtypes.Address
	RatioPM   int64
	Benign    bool
	Start     time.Time
	Payments  []PaymentPlan
}

// PaymentPlan is one user transaction against a planted contract.
type PaymentPlan struct {
	From ethtypes.Address
	USD  float64
	Time time.Time
}

// Negative look-alike kinds recorded in GroundTruth.NegativeContracts.
const (
	NegativeRouter          = "router"
	NegativeAllowanceHelper = "allowance-helper"
	NegativeAirdrop         = "airdrop"
	NegativeBenignProxy     = "benign-proxy"
)

// NegativePlan is one benign look-alike contract with its traffic
// (benign clones ride in ClonePlan instead).
type NegativePlan struct {
	Kind       string
	Owner      ethtypes.Address
	Recipients []ethtypes.Address // airdrop payout list
	AmountGwei int64              // airdrop per-recipient amount
	Start      time.Time
	Users      []PaymentPlan
}

// monetizableSinks are the forwarded signatures a relay contract can
// actually profit from on-chain; the remaining sink variants are
// covered by the contract-level agreement tests.
var monetizableSinks = []string{
	"transferFrom(address,address,uint256)",
	"permit(address,address,uint256)",
}

// planScam draws the scam-shape populations. It runs after every other
// planning stage so the extra rng draws leave the existing plan
// byte-for-byte unchanged.
func (p *Plan) planScam(rng *rand.Rand) {
	cfg := p.Config
	deployEnd := DatasetEnd.Add(-30 * 24 * time.Hour)

	for i := 0; i < cfg.scaled(cfg.ApprovalPhishers); i++ {
		ph := PhisherPlan{
			Operator: randomAddr(rng),
			Receiver: randomAddr(rng),
			Sink:     monetizableSinks[i%len(monetizableSinks)],
			Start:    randTimeIn(rng, DatasetStart, deployEnd),
		}
		for j := 0; j < 2+rng.IntN(5); j++ {
			ph.Drains = append(ph.Drains, DrainPlan{
				Victim:   randomAddr(rng),
				TokenIdx: rng.IntN(len(p.Tokens)),
				LossUSD:  logUniform(rng, 50, 20_000),
				Time:     randTimeIn(rng, ph.Start.Add(24*time.Hour), DatasetEnd),
			})
		}
		p.Scam.Phishers = append(p.Scam.Phishers, ph)
	}

	for i := 0; i < cfg.scaled(cfg.Pyramids); i++ {
		levels := 3 + rng.IntN(3)
		py := PyramidPlan{
			Creator: randomAddr(rng),
			Start:   randTimeIn(rng, DatasetStart, deployEnd),
		}
		base := int64(1+rng.IntN(5)) * 2_000_000 // gwei
		for l := 0; l < levels; l++ {
			py.Payees = append(py.Payees, randomAddr(rng))
			// Forsage-style halving schedule: every level distinct.
			py.AmountsGwei = append(py.AmountsGwei, base>>l)
		}
		for j := 0; j < 3+rng.IntN(6); j++ {
			py.Joins = append(py.Joins, JoinPlan{
				Joiner: randomAddr(rng),
				Time:   randTimeIn(rng, py.Start.Add(12*time.Hour), DatasetEnd),
			})
		}
		p.Scam.Pyramids = append(p.Scam.Pyramids, py)
	}

	p.Scam.DrainerFactory = randomAddr(rng)
	p.Scam.BenignFactory = randomAddr(rng)
	nClones := cfg.scaled(cfg.DrainerClones)
	nBenignClones := cfg.scaled(cfg.BenignLookalikes)
	drainerRatios := []int64{100, 200, 150, 300}
	for i := 0; i < nClones+nBenignClones; i++ {
		benign := i >= nClones
		cl := ClonePlan{
			Deployer:  randomAddr(rng),
			Operator:  randomAddr(rng),
			Affiliate: randomAddr(rng),
			RatioPM:   drainerRatios[i%len(drainerRatios)],
			Benign:    benign,
			Start:     randTimeIn(rng, DatasetStart, deployEnd),
		}
		if benign {
			cl.RatioPM = 500 // the 50/50 idiom of honest splitters
		}
		for j := 0; j < 1+rng.IntN(4); j++ {
			cl.Payments = append(cl.Payments, PaymentPlan{
				From: randomAddr(rng),
				USD:  logUniform(rng, 100, 10_000),
				Time: randTimeIn(rng, cl.Start.Add(6*time.Hour), DatasetEnd),
			})
		}
		p.Scam.Clones = append(p.Scam.Clones, cl)
	}

	for _, kind := range []string{NegativeRouter, NegativeAllowanceHelper, NegativeAirdrop} {
		for i := 0; i < cfg.scaled(cfg.BenignLookalikes); i++ {
			np := NegativePlan{
				Kind:  kind,
				Owner: randomAddr(rng),
				Start: randTimeIn(rng, DatasetStart, deployEnd),
			}
			if kind == NegativeAirdrop {
				for r := 0; r < 3+rng.IntN(4); r++ {
					np.Recipients = append(np.Recipients, randomAddr(rng))
				}
				np.AmountGwei = int64(1+rng.IntN(10)) * 5_000_000
			}
			for j := 0; j < 2+rng.IntN(4); j++ {
				np.Users = append(np.Users, PaymentPlan{
					From: randomAddr(rng),
					USD:  logUniform(rng, 20, 2_000),
					Time: randTimeIn(rng, np.Start.Add(6*time.Hour), DatasetEnd),
				})
			}
			p.Scam.Negatives = append(p.Scam.Negatives, np)
		}
	}
}

// pyramidSpec converts a plan row into the contract template's spec.
func (py *PyramidPlan) pyramidSpec() contracts.PyramidSpec {
	spec := contracts.PyramidSpec{}
	for i, payee := range py.Payees {
		spec.Levels = append(spec.Levels, contracts.PyramidLevel{
			Payee:  payee,
			Amount: ethtypes.GWei(py.AmountsGwei[i]).Big(),
		})
	}
	return spec
}
