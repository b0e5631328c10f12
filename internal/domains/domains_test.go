package domains

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKeywordCount(t *testing.T) {
	if len(Keywords) != 63 {
		t.Errorf("keyword list has %d entries, want 63 (paper §8.2)", len(Keywords))
	}
	seen := make(map[string]bool)
	for _, kw := range Keywords {
		if seen[kw] {
			t.Errorf("duplicate keyword %q", kw)
		}
		seen[kw] = true
	}
}

func TestLevenshteinKnownAnswers(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"claim", "clalm", 1},
		{"airdrop", "airdrop", 0},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Metric properties of the edit distance.
func TestQuickLevenshteinMetric(t *testing.T) {
	short := func(s string) string {
		if len(s) > 12 {
			return s[:12]
		}
		return s
	}
	sym := func(a, b string) bool {
		a, b = short(a), short(b)
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(sym, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("symmetry:", err)
	}
	ident := func(a string) bool {
		a = short(a)
		return Levenshtein(a, a) == 0
	}
	if err := quick.Check(ident, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("identity:", err)
	}
	bound := func(a, b string) bool {
		a, b = short(a), short(b)
		d := Levenshtein(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		hi := la
		if lb > hi {
			hi = lb
		}
		lo := la - lb
		if lo < 0 {
			lo = -lo
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(bound, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("bounds:", err)
	}
}

func TestSuspicious(t *testing.T) {
	positive := []string{
		"uniswap-claim.com",
		"claim-pepe.dev",
		"opensea-airdrop-official.app",
		"blurmint.xyz",       // containment inside a label
		"arbitrum-clalm.net", // look-alike (1 edit)
		"eigenlayer-restake.io",
	}
	for _, d := range positive {
		if _, ok := Suspicious(d, SimilarityThreshold); !ok {
			t.Errorf("Suspicious(%q) = false", d)
		}
	}
	negative := []string{
		"gardenkitchen.com",
		"coffeebooks.net",
		"weatherphotos.org",
		"example.com",
	}
	for _, d := range negative {
		if m, ok := Suspicious(d, SimilarityThreshold); ok {
			t.Errorf("Suspicious(%q) = true via %+v", d, m)
		}
	}
	// The TLD itself must not trigger (e.g. ".network" is a keyword-free zone).
	if m, ok := Suspicious("gardenbakery.network", SimilarityThreshold); ok {
		t.Errorf("TLD triggered match: %+v", m)
	}
}

func TestTLD(t *testing.T) {
	if TLD("a.b.example.dev") != "dev" {
		t.Error("TLD extraction failed")
	}
	if TLD("localhost") != "localhost" {
		t.Error("TLD of bare name")
	}
}

func TestTLDDistribution(t *testing.T) {
	corpus := []string{"a.com", "b.com", "c.dev", "d.app", "e.com"}
	dist := TLDDistribution(corpus)
	if dist[0].TLD != "com" || dist[0].Count != 3 {
		t.Errorf("top TLD = %+v", dist[0])
	}
	var total float64
	for _, d := range dist {
		total += d.Fraction
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("fractions sum to %f", total)
	}
}

func TestGeneratorPhishingDomainsAreSuspicious(t *testing.T) {
	g := NewGenerator(7)
	sus := 0
	const n = 500
	for i := 0; i < n; i++ {
		d := g.Phishing()
		if _, ok := Suspicious(d, SimilarityThreshold); ok {
			sus++
		}
	}
	// Typoed keywords may occasionally fall below the threshold; the
	// overwhelming majority must match.
	if sus < n*95/100 {
		t.Errorf("only %d/%d generated phishing domains look suspicious", sus, n)
	}
}

func TestGeneratorBenignDomainsAreClean(t *testing.T) {
	g := NewGenerator(7)
	for i := 0; i < 300; i++ {
		d := g.Benign()
		if m, ok := Suspicious(d, SimilarityThreshold); ok {
			t.Fatalf("benign domain %q matched %+v", d, m)
		}
	}
}

func TestGeneratorBaitDomainsMatch(t *testing.T) {
	g := NewGenerator(7)
	for i := 0; i < 100; i++ {
		d := g.BenignBait()
		if _, ok := Suspicious(d, SimilarityThreshold); !ok {
			t.Fatalf("bait domain %q did not match", d)
		}
	}
}

func TestGeneratorTLDMixFollowsTable4(t *testing.T) {
	g := NewGenerator(99)
	var corpus []string
	for i := 0; i < 5000; i++ {
		corpus = append(corpus, g.Phishing())
	}
	dist := TLDDistribution(corpus)
	if dist[0].TLD != "com" {
		t.Errorf("top TLD = %s, want com", dist[0].TLD)
	}
	if dist[0].Fraction < 0.25 || dist[0].Fraction > 0.35 {
		t.Errorf(".com share %.3f, want ≈ 0.30", dist[0].Fraction)
	}
	// dev and app follow.
	top3 := map[string]bool{dist[0].TLD: true, dist[1].TLD: true, dist[2].TLD: true}
	if !top3["dev"] || !top3["app"] {
		t.Errorf("top-3 TLDs = %v, want com/dev/app", top3)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := NewGenerator(42), NewGenerator(42)
	for i := 0; i < 50; i++ {
		if a.Phishing() != b.Phishing() {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestSimilarity(t *testing.T) {
	if s := Similarity("claim", "claim"); s != 1 {
		t.Errorf("identical similarity = %f", s)
	}
	if s := Similarity("claim", "clalm"); s < 0.79 || s > 0.81 {
		t.Errorf("one-edit/5 similarity = %f, want 0.8", s)
	}
	if s := Similarity("", ""); s != 1 {
		t.Errorf("empty similarity = %f", s)
	}
	if !strings.Contains("abc", "") {
		t.Skip()
	}
}

// TestLevenshteinKeywordPairAllocFree: the per-token, per-keyword
// distance of the §8.2 filter allocates nothing for keyword-sized
// inputs.
func TestLevenshteinKeywordPairAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Levenshtein("clalm", "claim") }); n != 0 {
		t.Errorf("Levenshtein(clalm, claim) made %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Similarity("registratlon", "registration") }); n != 0 {
		t.Errorf("Similarity(registratlon, registration) made %v allocations, want 0", n)
	}
}

// TestLevenshteinLongInputs: inputs past the stack buffers take the
// heap path and agree with inputs that fit.
func TestLevenshteinLongInputs(t *testing.T) {
	long := strings.Repeat("ab", levenshteinStack)
	for _, c := range []struct {
		a, b string
		want int
	}{
		{long, long + "c", 1},
		{long + "c", long, 1},
		{long, "ab", len(long) - 2},
		{"ab", long, len(long) - 2},
		{long, "", len(long)},
		{strings.Repeat("é", levenshteinStack+1), strings.Repeat("e", levenshteinStack+1), levenshteinStack + 1},
	} {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%d runes, %d runes) = %d, want %d", len(c.a), len(c.b), got, c.want)
		}
	}
}
