// Package domains implements the domain-side machinery of the paper's
// §8.2 detector: the curated suspicious-keyword list, Levenshtein
// similarity matching for look-alike tokens, TLD statistics (Table 4),
// and deterministic generators for phishing and benign domains.
package domains

import (
	"math/rand/v2"
	"sort"
	"strings"
)

// Keywords is the curated 63-word list of §8.2 Step 1. Phishing
// domains bait victims with claim/airdrop/mint-style words.
var Keywords = []string{
	"claim", "airdrop", "mint", "reward", "rewards", "bonus", "stake",
	"staking", "restake", "bridge", "swap", "presale", "whitelist",
	"allowlist", "eligibility", "snapshot", "migration", "migrate",
	"upgrade", "merge", "unlock", "vesting", "refund", "giveaway",
	"drop", "token", "tokens", "nft", "defi", "yield", "farm",
	"farming", "liquidity", "pool", "dex", "wallet", "connect",
	"sync", "validate", "validation", "verify", "verification",
	"revoke", "gas", "rebate", "points", "season", "quest", "badge",
	"register", "registration", "portal", "dashboard", "event",
	"launch", "launchpad", "ico", "ido", "sale", "bounty", "earn",
	"redeem", "distribution",
}

// SimilarityThreshold is the Levenshtein ratio above which a token
// counts as a keyword look-alike (§8.2 uses 0.8).
const SimilarityThreshold = 0.8

// levenshteinStack is the longest input, in runes, that Levenshtein
// holds in stack buffers; every keyword and most domain tokens fit.
const levenshteinStack = 32

// Levenshtein returns the edit distance between two strings. Inputs of
// up to levenshteinStack runes each are measured without allocating.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	var bufA, bufB [levenshteinStack]rune
	var rowA, rowB [levenshteinStack + 1]int
	ra, ok := appendRunes(bufA[:0], a)
	if !ok {
		ra = []rune(a)
	}
	rb, ok := appendRunes(bufB[:0], b)
	if !ok {
		rb = []rune(b)
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev, cur := rowA[:], rowB[:]
	if len(rb) > levenshteinStack {
		prev, cur = make([]int, len(rb)+1), make([]int, len(rb)+1)
	}
	prev, cur = prev[:len(rb)+1], cur[:len(rb)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// appendRunes decodes s into buf's spare capacity, reporting false
// when s has more runes than fit.
func appendRunes(buf []rune, s string) ([]rune, bool) {
	for _, r := range s {
		if len(buf) == cap(buf) {
			return nil, false
		}
		buf = append(buf, r)
	}
	return buf, true
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Similarity returns 1 - dist/maxLen, the ratio §8.2 thresholds at 0.8.
func Similarity(a, b string) float64 {
	if a == "" && b == "" {
		return 1
	}
	maxLen := len([]rune(a))
	if l := len([]rune(b)); l > maxLen {
		maxLen = l
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// Match describes why a domain looked suspicious.
type Match struct {
	Keyword string
	Token   string
	// Exact is true for substring containment, false for a
	// similarity-threshold match.
	Exact bool
	Score float64
}

// Suspicious reports whether the domain contains a keyword or a
// near-keyword token, per §8.2 Step 1. The matcher tokenizes the
// registrable labels on hyphens and digits.
func Suspicious(domain string, threshold float64) (Match, bool) {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	labels := strings.Split(domain, ".")
	if len(labels) > 1 {
		labels = labels[:len(labels)-1] // drop the TLD
	}
	var tokens []string
	for _, l := range labels {
		for _, tok := range strings.FieldsFunc(l, func(r rune) bool {
			return r == '-' || r == '_' || (r >= '0' && r <= '9')
		}) {
			if tok != "" {
				tokens = append(tokens, tok)
			}
		}
	}
	// Exact containment first.
	joined := strings.Join(labels, "-")
	for _, kw := range Keywords {
		if strings.Contains(joined, kw) {
			return Match{Keyword: kw, Token: kw, Exact: true, Score: 1}, true
		}
	}
	// Look-alike tokens (e.g. "cIaim", "airdr0p" normalized upstream,
	// or typos like "clalm").
	for _, tok := range tokens {
		for _, kw := range Keywords {
			if s := Similarity(tok, kw); s >= threshold && s < 1 {
				return Match{Keyword: kw, Token: tok, Score: s}, true
			}
		}
	}
	return Match{}, false
}

// TLD returns the final label of a domain.
func TLD(domain string) string {
	domain = strings.TrimSuffix(strings.ToLower(domain), ".")
	idx := strings.LastIndexByte(domain, '.')
	if idx < 0 {
		return domain
	}
	return domain[idx+1:]
}

// TLDShare is one row of Table 4.
type TLDShare struct {
	TLD      string
	Count    int
	Fraction float64
}

// TLDDistribution computes the descending TLD share table over a
// domain corpus.
func TLDDistribution(domainList []string) []TLDShare {
	counts := make(map[string]int)
	for _, d := range domainList {
		counts[TLD(d)]++
	}
	out := make([]TLDShare, 0, len(counts))
	for tld, n := range counts {
		share := TLDShare{TLD: tld, Count: n}
		if len(domainList) > 0 {
			share.Fraction = float64(n) / float64(len(domainList))
		}
		out = append(out, share)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].TLD < out[j].TLD
	})
	return out
}

// Table4TLDs is the paper's observed TLD mix for phishing domains,
// used by the generator so the measured Table 4 reproduces it.
var Table4TLDs = []struct {
	TLD    string
	Weight float64
}{
	{"com", 30.0}, {"dev", 13.6}, {"app", 11.6}, {"xyz", 7.5},
	{"net", 5.6}, {"org", 3.8}, {"network", 2.4}, {"io", 2.0},
	{"top", 1.6}, {"online", 1.4},
	// Long tail of other TLDs (≈20% combined in the paper).
	{"site", 1.2}, {"live", 1.2}, {"finance", 1.1}, {"cc", 1.1},
	{"pro", 1.0}, {"me", 1.0}, {"info", 1.0}, {"one", 1.0},
	{"club", 1.0}, {"vip", 0.9}, {"run", 0.9}, {"fun", 0.8},
	{"lol", 0.8}, {"biz", 0.8}, {"us", 0.8}, {"wtf", 0.7},
	{"gg", 0.7}, {"best", 0.7}, {"click", 0.7}, {"today", 0.7},
	{"cloud", 0.7}, {"space", 0.7},
}

// brandBaits are project names phishing sites impersonate.
var brandBaits = []string{
	"uniswap", "opensea", "blur", "arbitrum", "optimism", "zksync",
	"starknet", "layerzero", "eigenlayer", "pepe", "bayc", "azuki",
	"lido", "metamask", "phantom", "blast", "scroll", "linea",
	"manta", "celestia", "jupiter", "wormhole", "magiceden", "ethena",
}

// benignWords build unremarkable domains.
var benignWords = []string{
	"garden", "kitchen", "travel", "bakery", "studio", "fitness",
	"photos", "books", "music", "coffee", "design", "weather",
	"recipe", "cycling", "museum", "gallery", "florist", "dental",
}

// Generator produces deterministic domain corpora.
type Generator struct {
	rng    *rand.Rand
	tldCum []float64
}

// NewGenerator returns a generator with the given seed.
func NewGenerator(seed uint64) *Generator {
	g := &Generator{rng: rand.New(rand.NewPCG(seed, seed^0x5bd1e995))}
	var acc float64
	for _, t := range Table4TLDs {
		acc += t.Weight
		g.tldCum = append(g.tldCum, acc)
	}
	for i := range g.tldCum {
		g.tldCum[i] /= acc
	}
	return g
}

// Phishing generates a drainer-style domain: brand + keyword (+ noise)
// under the Table 4 TLD mix. A small fraction uses a look-alike
// (typoed) keyword instead of an exact one.
func (g *Generator) Phishing() string {
	brand := brandBaits[g.rng.IntN(len(brandBaits))]
	kw := Keywords[g.rng.IntN(len(Keywords))]
	if g.rng.Float64() < 0.1 {
		kw = typo(g.rng, kw)
	}
	name := brand + "-" + kw
	switch g.rng.IntN(4) {
	case 0:
		name = kw + "-" + brand
	case 1:
		name = brand + kw
	case 2:
		name = name + "-official"
	}
	return name + "." + g.tld()
}

// Benign generates an unsuspicious domain; a given fraction of benign
// corpora elsewhere may still collide with keywords (handled by
// BenignBait).
func (g *Generator) Benign() string {
	a := benignWords[g.rng.IntN(len(benignWords))]
	b := benignWords[g.rng.IntN(len(benignWords))]
	if a == b {
		b = b + "ly"
	}
	return a + b + "." + g.tld()
}

// BenignBait generates a benign site whose domain nevertheless matches
// the keyword filter (e.g. a legitimate NFT mint tracker) — the
// negatives that force §8.2 Step 2's crawl.
func (g *Generator) BenignBait() string {
	kw := Keywords[g.rng.IntN(len(Keywords))]
	w := benignWords[g.rng.IntN(len(benignWords))]
	return w + "-" + kw + "-tracker." + g.tld()
}

func (g *Generator) tld() string {
	u := g.rng.Float64()
	for i, c := range g.tldCum {
		if u <= c {
			return Table4TLDs[i].TLD
		}
	}
	return "com"
}

// typo introduces one edit into a word, keeping similarity ≥ 0.8 for
// words of length ≥ 5.
func typo(rng *rand.Rand, w string) string {
	if len(w) < 5 {
		return w
	}
	pos := 1 + rng.IntN(len(w)-2)
	sub := byte('a' + rng.IntN(26))
	if sub == w[pos] {
		sub = 'z'
	}
	return w[:pos] + string(sub) + w[pos+1:]
}
