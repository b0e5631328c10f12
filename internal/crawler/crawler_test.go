package crawler_test

import (
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/toolkit"
	"repro/internal/website"
)

func newHostServer(t *testing.T, sites ...*website.Site) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(website.NewHost(sites))
	t.Cleanup(srv.Close)
	return srv
}

func TestFetchPhishingSite(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	site := website.BuildPhishing("opensea-reward.app", toolkit.FamilyAngel, 3, rng)
	srv := newHostServer(t, site)

	page, err := crawler.New(srv.URL).Fetch("opensea-reward.app")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := page.Files["index.html"]; !ok {
		t.Error("index.html missing")
	}
	if _, ok := page.Files["settings.js"]; !ok {
		t.Errorf("local script not fetched; files = %v", fileKeys(page.Files))
	}
	if !strings.Contains(string(page.Files["settings.js"]), "drainToken") {
		t.Error("script content corrupted")
	}
	// CDN refs recorded but not fetched.
	if len(page.RemoteRefs) == 0 {
		t.Error("no remote refs recorded")
	}
	for _, ref := range page.RemoteRefs {
		if !strings.HasPrefix(ref, "https://") {
			t.Errorf("remote ref %q not external", ref)
		}
	}
}

func TestFetchToleratesMissingAssets(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	site := website.BuildBenign("gardenbooks.net", rng)
	// Break a reference: index points at a script we delete.
	site.Files["index.html"] = strings.Replace(site.Files["index.html"],
		"./scripts/main.js", "./scripts/gone.js", 1)
	srv := newHostServer(t, site)

	page, err := crawler.New(srv.URL).Fetch("gardenbooks.net")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := page.Files["gone.js"]; ok {
		t.Error("missing asset fabricated")
	}
}

func TestFetchUnknownDomain(t *testing.T) {
	srv := newHostServer(t)
	if _, err := crawler.New(srv.URL).Fetch("nope.example"); err == nil {
		t.Error("fetch of unhosted domain succeeded")
	}
}

// TestFetchRespectsSizeLimit is the regression test for the silent
// truncation bug: get() used to clip a file at exactly MaxFileBytes
// and return the prefix as if it were the whole artifact, so an
// oversized drainer script would be fingerprinted against clipped
// bytes. An oversized script must now be reported in Page.Truncated,
// not clipped into Files.
func TestFetchRespectsSizeLimit(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	site := website.BuildBenign("coffeetravel.org", rng)
	site.Files["scripts/main.js"] = strings.Repeat("x", 4096)
	srv := newHostServer(t, site)

	c := crawler.New(srv.URL)
	c.MaxFileBytes = int64(len(site.Files["index.html"])) // index fits exactly; main.js does not
	page, err := c.Fetch("coffeetravel.org")
	if err != nil {
		t.Fatal(err)
	}
	if body, ok := page.Files["main.js"]; ok {
		t.Errorf("oversized script returned (%d bytes) instead of being skipped", len(body))
	}
	if len(page.Truncated) != 1 || page.Truncated[0] != "main.js" {
		t.Errorf("Truncated = %v, want [main.js]", page.Truncated)
	}
	// A file exactly at the limit is legitimate and kept whole.
	if got, want := len(page.Files["index.html"]), len(site.Files["index.html"]); got != want {
		t.Errorf("exact-limit file clipped: %d of %d bytes", got, want)
	}
}

// TestFetchOversizedIndexFails: a truncated index page cannot be
// trusted (script references past the cut are lost), so the whole
// fetch fails with ErrTruncated.
func TestFetchOversizedIndexFails(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	site := website.BuildBenign("coffeetravel.org", rng)
	srv := newHostServer(t, site)

	c := crawler.New(srv.URL)
	c.MaxFileBytes = 16
	_, err := c.Fetch("coffeetravel.org")
	if !errors.Is(err, crawler.ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func fileKeys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestFetchNotFoundStatus: a non-200 answer for the index surfaces as
// an error that names the status the host returned.
func TestFetchNotFoundStatus(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(srv.Close)
	_, err := crawler.New(srv.URL).Fetch("gone.example")
	if err == nil || !strings.Contains(err.Error(), "404 Not Found") {
		t.Errorf("Fetch against a 404 = %v, want an error naming 404 Not Found", err)
	}
}
