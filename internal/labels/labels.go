// Package labels models the public account-label ecosystem the paper's
// seed collection (§5.1 Step 1) draws on: Etherscan address tags,
// Chainabuse incident reports, and two published phishing datasets.
// Coverage is deliberately partial — the measurement pipeline must
// expand far beyond what is labeled, exactly as in the paper.
package labels

import (
	"sort"
	"sync"

	"repro/internal/ethtypes"
)

// Source identifies where a label came from.
type Source string

// The four seed sources used by the paper.
const (
	SourceEtherscan    Source = "etherscan"
	SourceChainabuse   Source = "chainabuse"
	SourceScamSniffer  Source = "scamsniffer-db"
	SourceTxPhishScope Source = "txphishscope"
)

// AllSources lists the seed sources in a stable order.
var AllSources = []Source{SourceEtherscan, SourceChainabuse, SourceScamSniffer, SourceTxPhishScope}

// Category classifies what a label asserts about an account.
type Category string

// Label categories.
const (
	CategoryPhishing Category = "phishing" // flagged as a phishing contract/account
	CategoryExchange Category = "exchange" // benign, e.g. CEX deposit address
	CategoryService  Category = "service"  // benign infrastructure
)

// Label is one public tag on an address.
type Label struct {
	Address  ethtypes.Address
	Source   Source
	Category Category
	// Name is the display tag, e.g. "Fake_Phishing66332" or
	// "Angel Drainer: Profit Contract".
	Name string
}

// Directory is a merged, queryable view over all label sources. The
// zero value is empty and ready to use... but callers should use New to
// get deterministic iteration.
type Directory struct {
	mu     sync.RWMutex
	byAddr map[ethtypes.Address][]Label
}

// New returns an empty directory.
func New() *Directory {
	return &Directory{byAddr: make(map[ethtypes.Address][]Label)}
}

// Add records a label.
func (d *Directory) Add(l Label) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.byAddr[l.Address] = append(d.byAddr[l.Address], l)
}

// Of returns all labels on an address.
func (d *Directory) Of(a ethtypes.Address) []Label {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Label, len(d.byAddr[a]))
	copy(out, d.byAddr[a])
	return out
}

// Has reports whether the address carries any label from source.
func (d *Directory) Has(a ethtypes.Address, s Source) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, l := range d.byAddr[a] {
		if l.Source == s {
			return true
		}
	}
	return false
}

// EtherscanName returns the Etherscan display tag of a, if any — the
// clustering step names families from these (§7.1).
func (d *Directory) EtherscanName(a ethtypes.Address) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, l := range d.byAddr[a] {
		if l.Source == SourceEtherscan && l.Name != "" {
			return l.Name, true
		}
	}
	return "", false
}

// PhishingReports returns every distinct address tagged as phishing by
// source, sorted for determinism — the raw material of seed collection.
func (d *Directory) PhishingReports(s Source) []ethtypes.Address {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []ethtypes.Address
	for a, ls := range d.byAddr {
		for _, l := range ls {
			if l.Source == s && l.Category == CategoryPhishing {
				out = append(out, a)
				break
			}
		}
	}
	sortAddrs(out)
	return out
}

// AllPhishing returns the union of phishing reports across sources.
func (d *Directory) AllPhishing() []ethtypes.Address {
	seen := make(map[ethtypes.Address]bool)
	var out []ethtypes.Address
	for _, s := range AllSources {
		for _, a := range d.PhishingReports(s) {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sortAddrs(out)
	return out
}

// Count returns the number of distinct labeled addresses.
func (d *Directory) Count() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byAddr)
}

func sortAddrs(addrs []ethtypes.Address) {
	sort.Slice(addrs, func(i, j int) bool {
		for k := range addrs[i] {
			if addrs[i][k] != addrs[j][k] {
				return addrs[i][k] < addrs[j][k]
			}
		}
		return false
	})
}
