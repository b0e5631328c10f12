// Package toolkit models drainer toolkits and their fingerprints
// (paper §7.2, §8.2): per-family JavaScript file layouts, an
// obfuscated-content generator, the fingerprint corpus assembled from
// Telegram-acquired kits and reported sites, and the matcher that
// decides whether a crawled website embeds a drainer toolkit.
package toolkit

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/keccak"
)

// Family keys for the dominant drainer toolkits (paper Table 2/§7.2).
const (
	FamilyAngel   = "Angel Drainer"
	FamilyInferno = "Inferno Drainer"
	FamilyPink    = "Pink Drainer"
	FamilyAce     = "Ace Drainer"
	FamilyVenom   = "Venom Drainer"
)

// FileLayout returns the local JavaScript file names a family's
// toolkit ships (paper §7.2: settings.js/webchunk.js for Angel;
// contract.js/main.js/vendor.js for Pink; a UUID-named file plus
// seaport.js/wallet_connect.js for Inferno).
func FileLayout(family string, rng *rand.Rand) []string {
	switch family {
	case FamilyAngel:
		return []string{"settings.js", "webchunk.js"}
	case FamilyPink:
		return []string{"contract.js", "main.js", "vendor.js"}
	case FamilyInferno:
		return []string{"seaport.js", "wallet_connect.js", uuidName(rng)}
	case FamilyAce:
		return []string{"drainer.core.js", "ace.loader.js"}
	case FamilyVenom:
		return []string{"venom.bundle.js"}
	default:
		return []string{"app.js"}
	}
}

// uuidName builds the Inferno-style random UUID file name.
func uuidName(rng *rand.Rand) string {
	var b [16]byte
	for i := range b {
		b[i] = byte(rng.UintN(256))
	}
	return fmt.Sprintf("%x-%x-%x-%x-%x.js", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// Fingerprint identifies one toolkit file: its name and the hash of
// its contents. Matching on the name with novel content still flags a
// variant (the paper folds such variants back into the corpus).
type Fingerprint struct {
	Family      string
	FileName    string
	ContentHash string // hex keccak-256
}

// GenerateContent produces deterministic obfuscated-looking drainer
// JavaScript for a family variant. Distinct variants hash differently
// while sharing the family's structural markers.
func GenerateContent(family string, variant int) string {
	sum := keccak.Sum256([]byte(fmt.Sprintf("%s|%d", family, variant)))
	blob := hex.EncodeToString(sum[:])
	var sb strings.Builder
	fmt.Fprintf(&sb, "/* %s build %d */\n", strings.ToLower(strings.ReplaceAll(family, " ", "")), variant)
	fmt.Fprintf(&sb, "var _0x%s=['connect','drain','approve','transferFrom','signTypedData'];\n", blob[:8])
	fmt.Fprintf(&sb, "(function(_k){window.__af='%s';", blob[8:24])
	sb.WriteString("async function sweep(w){const a=await w.request({method:'eth_requestAccounts'});")
	sb.WriteString("for(const t of _k)await drainToken(a[0],t);}")
	fmt.Fprintf(&sb, "const endpoint=atob('%s');", blob[24:44])
	sb.WriteString("})(window);\n")
	return sb.String()
}

// HashContent returns the corpus content hash of a file body.
func HashContent(content []byte) string {
	sum := keccak.Sum256(content)
	return hex.EncodeToString(sum[:])
}

// Corpus is the fingerprint database (867 fingerprints in the paper).
// Once built, it is safe for concurrent MatchFile and MatchSite calls;
// Add must not run concurrently with anything else.
type Corpus struct {
	byName map[string][]Fingerprint
	count  int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{byName: make(map[string][]Fingerprint)}
}

// Add inserts a fingerprint, deduplicating exact (name, hash) pairs.
func (c *Corpus) Add(fp Fingerprint) {
	for _, existing := range c.byName[fp.FileName] {
		if existing.ContentHash == fp.ContentHash {
			return
		}
	}
	c.byName[fp.FileName] = append(c.byName[fp.FileName], fp)
	c.count++
}

// Len returns the number of fingerprints.
func (c *Corpus) Len() int { return c.count }

// Families returns the distinct family names in the corpus, sorted.
func (c *Corpus) Families() []string {
	seen := make(map[string]bool)
	for _, fps := range c.byName {
		for _, fp := range fps {
			seen[fp.Family] = true
		}
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// MatchKind distinguishes exact fingerprint hits from name-only
// variant hits.
type MatchKind int

// Match kinds.
const (
	// MatchExact means name and content hash both known.
	MatchExact MatchKind = iota
	// MatchVariant means a known drainer file name with novel content —
	// a new toolkit build, which the detector also flags and folds into
	// the corpus (§8.2).
	MatchVariant
)

// Match is a detector verdict for one file.
type Match struct {
	Family   string
	FileName string
	Kind     MatchKind
}

// MatchFile tests one crawled file against the corpus. Generic file
// names shared with the broader web (main.js, vendor.js, app.js)
// require an exact content hit; distinctive drainer names also match
// as variants.
func (c *Corpus) MatchFile(name string, content []byte) (Match, bool) {
	fps := c.byName[name]
	if len(fps) == 0 {
		if looksUUIDjs(name) {
			// Inferno's per-affiliate UUID bundle: name shape + drainer
			// body markers.
			if containsDrainerMarkers(content) {
				return Match{Family: FamilyInferno, FileName: name, Kind: MatchVariant}, true
			}
		}
		return Match{}, false
	}
	hash := HashContent(content)
	for _, fp := range fps {
		if fp.ContentHash == hash {
			return Match{Family: fp.Family, FileName: name, Kind: MatchExact}, true
		}
	}
	if genericName(name) {
		return Match{}, false
	}
	if !containsDrainerMarkers(content) {
		return Match{}, false
	}
	return Match{Family: fps[0].Family, FileName: name, Kind: MatchVariant}, true
}

// MatchSite aggregates per-file verdicts: a site is drainer-deployed
// when any file matches; the family is the majority vote.
func (c *Corpus) MatchSite(files map[string][]byte) (Match, bool) {
	votes := make(map[string]int)
	var sample Match
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if m, ok := c.MatchFile(name, files[name]); ok {
			votes[m.Family]++
			if votes[m.Family] > votes[sample.Family] || sample.Family == "" {
				sample = m
			}
		}
	}
	if len(votes) == 0 {
		return Match{}, false
	}
	return sample, true
}

// genericName reports file names too common on the benign web to flag
// on name alone.
func genericName(name string) bool {
	switch name {
	case "main.js", "vendor.js", "app.js", "index.js", "bundle.js":
		return true
	}
	return false
}

// looksUUIDjs matches 8-4-4-4-12 hex UUID file names.
func looksUUIDjs(name string) bool {
	if !strings.HasSuffix(name, ".js") {
		return false
	}
	body := strings.TrimSuffix(name, ".js")
	parts := strings.Split(body, "-")
	if len(parts) != 5 {
		return false
	}
	lens := []int{8, 4, 4, 4, 12}
	for i, part := range parts {
		if len(part) != lens[i] {
			return false
		}
		for _, r := range part {
			if !strings.ContainsRune("0123456789abcdef", r) {
				return false
			}
		}
	}
	return true
}

// containsDrainerMarkers checks for the structural markers our
// generated toolkit bodies share (wallet-drain call sequences).
func containsDrainerMarkers(content []byte) bool {
	s := string(content)
	return strings.Contains(s, "drainToken") &&
		strings.Contains(s, "eth_requestAccounts")
}

// BuildCorpus assembles a corpus of approximately target fingerprints
// across the families, mimicking the paper's 867-fingerprint database
// collected from Telegram kits and reported sites.
func BuildCorpus(seed uint64, target int) *Corpus {
	rng := rand.New(rand.NewPCG(seed, seed^0x2545f491))
	c := NewCorpus()
	fams := []string{FamilyAngel, FamilyInferno, FamilyPink, FamilyAce, FamilyVenom}
	variant := 0
	for c.Len() < target {
		family := fams[variant%len(fams)]
		for _, name := range FileLayout(family, rng) {
			if c.Len() >= target {
				break
			}
			content := GenerateContent(family, variant)
			c.Add(Fingerprint{Family: family, FileName: name, ContentHash: HashContent([]byte(content))})
		}
		variant++
	}
	return c
}
