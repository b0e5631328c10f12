package crawler

import (
	"math/rand/v2"
	"net/url"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/toolkit"
	"repro/internal/website"
)

// scriptSrcRE is the reference for scriptSrcs: the pattern Fetch ran
// with package regexp before the hand-written scanner replaced it.
var scriptSrcRE = regexp.MustCompile(`(?i)<script[^>]+src=["']([^"']+)["']`)

func scriptSrcsRef(page []byte) []string {
	var out []string
	for _, m := range scriptSrcRE.FindAllSubmatch(page, -1) {
		out = append(out, string(m[1]))
	}
	return out
}

// scriptSrcSeeds are page shapes the scanner must agree with the
// reference on: the generated sites' index pages, quote mixes, a '>'
// inside a value, unterminated values, upper case and the (?i) fold of
// 's' to 'ſ'.
func scriptSrcSeeds() []string {
	rng := rand.New(rand.NewPCG(7, 7))
	seeds := []string{
		website.BuildPhishing("opensea-reward.app", toolkit.FamilyAngel, 3, rng).Files["index.html"],
		website.BuildPhishing("blast-claim.xyz", toolkit.FamilyInferno, 1, rng).Files["index.html"],
		website.BuildBenign("gardenbooks.net", rng).Files["index.html"],
		`<script src='a.js'></script><script src="b.js'></script>`,
		`<script src="a'b.js"><script src='c"d.js'>`,
		`<script data-x="1" src="a>b.js"></script>`,
		`<script src="a.js" data-src="b.js"></script>`,
		`<script src="a.js" src=""></script>`,
		`<script type=module src=x.js></script><script src="y.js">`,
		`<script src="unterminated.js></script>`,
		`<script src="a.js" src="unterminated`,
		`<script src="`,
		`<script src=`,
		`<script>src="inline.js"</script>`,
		`<scriptsrc="a.js">`,
		`<script<script src="a.js">`,
		`<SCRIPT SRC="UPPER.JS"></SCRIPT><ScRiPt sRc='Mixed.js'>`,
		`<ſcript ſrc="long-s.js"></ſcript><ſCRIPT Src='k.js'>`,
		`<script ſrc='a.js' src="b.js">`,
		"<script \xff\xfe src=\"bad-utf8.js\">\xc5",
		`<script src="a.js"` + strings.Repeat(`<script `, 20) + `src='b.js'`,
		"",
	}
	return seeds
}

func TestScriptSrcsMatchesRegexp(t *testing.T) {
	for _, page := range scriptSrcSeeds() {
		got, want := scriptSrcs([]byte(page)), scriptSrcsRef([]byte(page))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scriptSrcs(%q) = %q, want %q", page, got, want)
		}
	}
}

// FuzzScriptSrcs pins the scanner to the reference regexp's submatches
// on arbitrary pages.
func FuzzScriptSrcs(f *testing.F) {
	for _, page := range scriptSrcSeeds() {
		f.Add([]byte(page))
	}
	f.Fuzz(func(t *testing.T, page []byte) {
		got, want := scriptSrcs(page), scriptSrcsRef(page)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scriptSrcs(%q) = %q, want %q", page, got, want)
		}
	})
}

// TestScriptSrcsLinear: on a 1 MiB page of unclosed script tags, where
// every tag's search reaches the end of the page, a scanner that
// rescanned each tag's tail would take minutes; this one is linear.
func TestScriptSrcsLinear(t *testing.T) {
	page := []byte(`<script src="a.js"` + strings.Repeat("<script ", 1<<17) + `src='b.js'`)
	if got, want := scriptSrcs(page), scriptSrcsRef(page); !reflect.DeepEqual(got, want) {
		t.Errorf("scriptSrcs = %q, want %q", got, want)
	}
}

// TestSiteURLMatchesJoinPath: building a site's URL once and appending
// each path yields the URL url.JoinPath builds from all three parts.
func TestSiteURLMatchesJoinPath(t *testing.T) {
	bases := []string{"http://127.0.0.1:8080", "http://h/", "http://h/sites", "http://h/sites/", "http://h?q=1", "http://h#f"}
	sites := []string{"opensea-reward.app", "", "a b.com", "a%2Fb", "..", ".", "x?y", "x#y", "x/"}
	paths := []string{"index.html", "scripts/settings.js", "a/../b.js", "./a.js", "a//b.js", "a.js?v=1",
		"a b.js", "a%20b.js", "..", ".", "", "a/", "~u/x-y_z.js", "ſ.js"}
	for _, base := range bases {
		for _, site := range sites {
			s, err := newSiteURL(base, site)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				want, err := url.JoinPath(base, site, p)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := s.join(p); err != nil || got != want {
					t.Errorf("join(%q, %q, %q) = %q, %v; want %q", base, site, p, got, err, want)
				}
			}
		}
	}
}
