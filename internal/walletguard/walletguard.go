// Package walletguard implements the wallet-side countermeasures the
// paper proposes in §9: before a user signs a transaction, simulate it
// and alert when it would transfer or approve tokens to accounts on a
// DaaS blacklist, when it would drain the account, or when the
// originating website is a known drainer deployment.
//
// The blacklist is built straight from a recovered dataset, closing
// the loop from measurement (§5–§7) to protection (§9).
//
// Storage is an internal/screen snapshot: mutations (BlockAddress,
// LoadDataset, BlockDomain) go through a mutex-guarded
// builder and publish a freshly compiled immutable snapshot with one
// atomic store, while Screen and CheckDomain read lock-free — safe for
// unlimited concurrent screening during a dataset reload, and sharing
// one source of truth with the serving-scale screening engine.
package walletguard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/screen"
)

// Severity grades a warning.
type Severity int

// Severities, ordered.
const (
	// SeverityNotice flags unusual but not certainly malicious behavior.
	SeverityNotice Severity = iota
	// SeverityWarning flags probable phishing.
	SeverityWarning
	// SeverityCritical flags certain interaction with a blacklisted
	// DaaS account.
	SeverityCritical
)

func (s Severity) String() string {
	switch s {
	case SeverityNotice:
		return "notice"
	case SeverityWarning:
		return "warning"
	case SeverityCritical:
		return "critical"
	default:
		return "unknown"
	}
}

// Warning is one finding about a pending transaction.
type Warning struct {
	Severity Severity
	Code     string // stable identifier, e.g. "transfer-to-blacklist"
	Detail   string
}

// Verdict is the guard's assessment of a pending transaction.
type Verdict struct {
	// Block recommends refusing the signature.
	Block    bool
	Warnings []Warning
	// Simulated is the dry-run receipt backing the findings.
	Simulated *chain.Receipt
}

// Guard screens pending transactions.
type Guard struct {
	chain *chain.Chain
	// mu guards builder; the published snapshot is read lock-free.
	mu      sync.Mutex
	builder *screen.Builder
	snap    atomic.Pointer[screen.Snapshot]
	// DrainThreshold is the fraction of the sender's ETH balance whose
	// outflow triggers the drain notice (default 0.95).
	DrainThreshold float64
}

// New returns a guard over the given chain with an empty blacklist.
func New(c *chain.Chain) *Guard {
	return &Guard{
		chain:          c,
		builder:        screen.NewBuilder(),
		DrainThreshold: 0.95,
	}
}

// publishLocked compiles the builder state and swaps it in; callers
// hold mu.
func (g *Guard) publishLocked() {
	g.snap.Store(g.builder.Build())
}

// BlockAddress adds one account to the blacklist with a reason tag.
func (g *Guard) BlockAddress(a ethtypes.Address, reason string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.builder.Add(screen.Record{Address: a, Kind: screen.KindManual, Reason: reason})
	g.publishLocked()
}

// LoadDataset blacklists every account of a recovered DaaS dataset —
// the reporting flow of §8.1 (wallets like MetaMask "block any user
// transactions interacting with them"). The new entries become visible
// in one atomic snapshot swap; concurrent Screen calls see either the
// whole dataset or none of it, never a partial load.
func (g *Guard) LoadDataset(ds *core.Dataset) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, rec := range ds.SortedContracts() {
		g.builder.Add(screen.Record{Address: rec.Address, Kind: screen.KindContract, Reason: screen.ReasonContract})
	}
	for _, rec := range ds.SortedOperators() {
		g.builder.Add(screen.Record{Address: rec.Address, Kind: screen.KindOperator, Reason: screen.ReasonOperator})
	}
	for _, rec := range ds.SortedAffiliates() {
		g.builder.Add(screen.Record{Address: rec.Address, Kind: screen.KindAffiliate, Reason: screen.ReasonAffiliate})
	}
	g.publishLocked()
}

// BlockDomain marks a website domain as a confirmed drainer deployment
// (the §8.2 detector's output feeds this). Domains are normalized via
// screen.NormalizeDomain, so "Evil.Example.", "evil.example:443", and
// "evil.example" all land on one entry.
func (g *Guard) BlockDomain(domain string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.builder.AddDomain(domain)
	g.publishLocked()
}

// BlacklistSize reports the number of blocked accounts.
func (g *Guard) BlacklistSize() int { return g.snap.Load().Len() }

// CheckDomain screens the website asking for the signature.
func (g *Guard) CheckDomain(domain string) (Warning, bool) {
	if g.snap.Load().LookupDomain(domain) {
		return Warning{
			Severity: SeverityCritical,
			Code:     "drainer-website",
			Detail:   fmt.Sprintf("website %s is a confirmed drainer deployment", domain),
		}, true
	}
	return Warning{}, false
}

// Screen simulates a pending transaction and returns the verdict. The
// optional originDomain is the website that requested the signature.
// The snapshot is loaded once at entry, so one verdict is always
// judged against a single consistent blacklist even while a reload is
// swapping snapshots underneath.
func (g *Guard) Screen(tx *chain.Transaction, originDomain string) Verdict {
	snap := g.snap.Load()
	lookup := func(a ethtypes.Address) (string, bool) {
		rec, ok := snap.Lookup(a)
		return rec.Reason, ok
	}
	v := Verdict{}
	if originDomain != "" && snap.LookupDomain(originDomain) {
		v.Warnings = append(v.Warnings, Warning{
			Severity: SeverityCritical,
			Code:     "drainer-website",
			Detail:   fmt.Sprintf("website %s is a confirmed drainer deployment", originDomain),
		})
		v.Block = true
	}
	// Direct recipient check (cheap, before simulation).
	if tx.To != nil {
		if reason, bad := lookup(*tx.To); bad {
			v.Warnings = append(v.Warnings, Warning{
				Severity: SeverityCritical,
				Code:     "recipient-blacklisted",
				Detail:   fmt.Sprintf("recipient %s is a %s", tx.To.Short(), reason),
			})
			v.Block = true
		}
	}

	// Simulation: what would actually move?
	r := g.chain.Simulate(tx)
	v.Simulated = r
	if !r.Status {
		v.Warnings = append(v.Warnings, Warning{
			Severity: SeverityNotice,
			Code:     "simulation-reverted",
			Detail:   "transaction would revert: " + r.Err,
		})
		sortWarnings(v.Warnings)
		return v
	}

	outflow := ethtypes.Wei{}
	for _, tr := range r.Transfers {
		if reason, bad := lookup(tr.To); bad && tr.From == tx.From {
			v.Warnings = append(v.Warnings, Warning{
				Severity: SeverityCritical,
				Code:     "transfer-to-blacklist",
				Detail: fmt.Sprintf("would send %s %s to %s (%s)",
					tr.Amount, tr.Asset.Kind, tr.To.Short(), reason),
			})
			v.Block = true
		}
		if tr.From == tx.From && tr.Asset.Kind == chain.AssetETH {
			outflow = outflow.Add(tr.Amount)
		}
	}
	for _, ap := range r.Approvals {
		if ap.Owner != tx.From {
			continue
		}
		if reason, bad := lookup(ap.Spender); bad {
			v.Warnings = append(v.Warnings, Warning{
				Severity: SeverityCritical,
				Code:     "approval-to-blacklist",
				Detail: fmt.Sprintf("would approve %s to spend your %s tokens (%s)",
					ap.Spender.Short(), ap.Kind, reason),
			})
			v.Block = true
		} else if ap.All {
			v.Warnings = append(v.Warnings, Warning{
				Severity: SeverityWarning,
				Code:     "approval-for-all",
				Detail:   fmt.Sprintf("would grant %s control of your entire collection", ap.Spender.Short()),
			})
		}
	}

	// Drain heuristic: the transaction moves essentially the whole ETH
	// balance out (the defining trait of wallet drainers, §9).
	balance := g.chain.BalanceOf(tx.From)
	if balance.Sign() > 0 && outflow.Sign() > 0 {
		threshold := balance.MulDiv(int64(g.DrainThreshold*1000), 1000)
		if outflow.Cmp(threshold) >= 0 {
			v.Warnings = append(v.Warnings, Warning{
				Severity: SeverityWarning,
				Code:     "account-drain",
				Detail:   fmt.Sprintf("would move %s of your %s wei balance", outflow, balance),
			})
		}
	}
	sortWarnings(v.Warnings)
	return v
}

// sortWarnings orders findings most severe first, then by code, so
// verdicts are deterministic.
func sortWarnings(ws []Warning) {
	sort.SliceStable(ws, func(i, j int) bool {
		if ws[i].Severity != ws[j].Severity {
			return ws[i].Severity > ws[j].Severity
		}
		return ws[i].Code < ws[j].Code
	})
}
