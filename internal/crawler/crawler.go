// Package crawler fetches candidate websites and extracts their local
// script files — the urlscan-equivalent of the paper's §8.2 Step 2.
package crawler

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// ErrTruncated reports a file larger than MaxFileBytes. The crawler
// refuses to return the clipped prefix: drainer detection fingerprints
// file contents, and a silently truncated file would hash and match as
// if it were the whole artifact.
var ErrTruncated = errors.New("crawler: file exceeds MaxFileBytes")

// Page is the crawl result for one domain.
type Page struct {
	Domain string
	// Files maps script file name (base name) to content; index.html is
	// included under "index.html".
	Files map[string][]byte
	// RemoteRefs lists external (CDN) script URLs that were not fetched.
	RemoteRefs []string
	// Truncated lists referenced local scripts skipped because they
	// exceed MaxFileBytes; their contents are NOT in Files.
	Truncated []string
}

// Crawler fetches sites hosted under a path-virtual-hosted base URL
// (as served by website.Host): {base}/{domain}/{path}. It is safe for
// concurrent Fetch calls once its fields are set.
type Crawler struct {
	// BaseURL is the hosting endpoint.
	BaseURL string
	// HTTPClient defaults to a 15s-timeout client.
	HTTPClient *http.Client
	// MaxFileBytes caps each fetched file (default 1 MiB). A file over
	// the cap fails with ErrTruncated rather than being clipped.
	MaxFileBytes int64
}

// New returns a crawler for the hosting endpoint.
func New(baseURL string) *Crawler {
	return &Crawler{BaseURL: baseURL, HTTPClient: &http.Client{Timeout: 15 * time.Second}}
}

// Fetch crawls one domain: the index page plus every locally
// referenced script. An oversized script is listed in Page.Truncated
// instead of Files; an oversized index fails the whole fetch, since
// script references past the cut would be silently lost.
func (c *Crawler) Fetch(domain string) (*Page, error) {
	site, err := newSiteURL(c.BaseURL, domain)
	if err != nil {
		return nil, fmt.Errorf("crawler: %s: %w", domain, err)
	}
	index, err := c.get(site, "index.html")
	if err != nil {
		return nil, fmt.Errorf("crawler: %s: %w", domain, err)
	}
	page := &Page{Domain: domain, Files: map[string][]byte{"index.html": index}}
	for _, src := range scriptSrcs(index) {
		if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") || strings.HasPrefix(src, "//") {
			page.RemoteRefs = append(page.RemoteRefs, src)
			continue
		}
		path := strings.TrimPrefix(strings.TrimPrefix(src, "./"), "/")
		body, err := c.get(site, path)
		if errors.Is(err, ErrTruncated) {
			page.Truncated = append(page.Truncated, baseName(path))
			continue
		}
		if err != nil {
			// Missing assets are common in the wild; record nothing and
			// continue.
			continue
		}
		page.Files[baseName(path)] = body
	}
	return page, nil
}

func (c *Crawler) get(site siteURL, path string) ([]byte, error) {
	u, err := site.join(path)
	if err != nil {
		return nil, err
	}
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 15 * time.Second}
	}
	resp, err := httpClient.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	limit := c.MaxFileBytes
	if limit <= 0 {
		limit = 1 << 20
	}
	// Read one byte past the cap: exactly-limit files are legitimate,
	// and the extra byte is what distinguishes them from clipped ones.
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("GET %s: %d+ of max %d bytes: %w", u, len(body), limit, ErrTruncated)
	}
	return body, nil
}

// siteURL is one site's URL under the crawler's base, built once per
// Fetch so a request for a plain path only appends it.
type siteURL struct {
	baseURL, domain string
	base            string // url.JoinPath(baseURL, domain)
	// concat is set when base+"/"+path is what url.JoinPath returns
	// for a plain path: base has no query, fragment or trailing slash.
	concat bool
}

func newSiteURL(baseURL, domain string) (siteURL, error) {
	base, err := url.JoinPath(baseURL, domain)
	if err != nil {
		return siteURL{}, err
	}
	concat := !strings.ContainsAny(base, "?#") && !strings.HasSuffix(base, "/")
	return siteURL{baseURL: baseURL, domain: domain, base: base, concat: concat}, nil
}

// join returns url.JoinPath(baseURL, domain, path).
func (s siteURL) join(path string) (string, error) {
	if s.concat && plainPath(path) {
		return s.base + "/" + path, nil
	}
	return url.JoinPath(s.baseURL, s.domain, path)
}

// plainPath reports whether path is '/'-separated segments of
// unreserved URL bytes with no empty, "." or ".." segment, which
// url.JoinPath neither cleans nor escapes.
func plainPath(path string) bool {
	seg := 0
	for i := 0; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			if c := path[i]; !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
				c == '-' || c == '.' || c == '_' || c == '~') {
				return false
			}
			continue
		}
		if s := path[seg:i]; s == "" || s == "." || s == ".." {
			return false
		}
		seg = i + 1
	}
	return true
}

// scriptSrcs returns the src values of the page's script tags: exactly
// the submatches, in order, that
//
//	(?i)<script[^>]+src=["']([^"']+)["']
//
// finds with FindAllSubmatch, without a regexp. Under (?i) an 's' also
// matches 'S' and 'ſ' (U+017F, whose simple case fold is 's'). The
// greedy [^>]+ makes the last src= before the tag's first '>' that
// opens a non-empty value win; a value may run past that '>' to its
// closing quote, of either kind. Each byte is scanned a bounded number
// of times, so the cost is linear in the page.
func scriptSrcs(page []byte) []string {
	// A value needs a closing quote, so none can open at or after the
	// page's last quote.
	lastQuote := bytes.LastIndexAny(page, `"'`)
	var out []string
	for i := 0; i < len(page); {
		lt := bytes.IndexByte(page[i:], '<')
		if lt < 0 {
			break
		}
		i += lt + 1
		n, ok := foldPrefix(page[i:], "script")
		if !ok {
			continue
		}
		start := i + n
		end := len(page)
		if gt := bytes.IndexByte(page[start:], '>'); gt >= 0 {
			end = start + gt
		}
		// Whether a src= at p opens a value does not depend on the tag,
		// so a later <script before end cannot match where this one
		// did not, nor past this one's match: resume at end or after.
		i = end
		for p := end - 1; p > start; p-- {
			if v, w, ok := srcValue(page, p, lastQuote); ok {
				out = append(out, string(page[v:w]))
				i = max(i, w+1)
				break
			}
		}
	}
	return out
}

// srcValue reports whether src=, a quote and a non-empty value with its
// closing quote start at page[p], and returns the value's bounds.
func srcValue(page []byte, p, lastQuote int) (v, w int, ok bool) {
	n, ok := foldPrefix(page[p:], "src")
	if !ok {
		return 0, 0, false
	}
	v = p + n + 2
	if v >= lastQuote || page[v-2] != '=' || !isQuote(page[v-1]) || isQuote(page[v]) {
		return 0, 0, false
	}
	return v, v + bytes.IndexAny(page[v:], `"'`), true
}

func isQuote(c byte) bool { return c == '"' || c == '\'' }

// foldPrefix matches word, lower-case ASCII letters other than 'k', at
// the start of b under Unicode simple case folding, where the only
// non-ASCII fold of such a letter is 'ſ' for 's', and returns the bytes
// it spans.
func foldPrefix(b []byte, word string) (int, bool) {
	n := 0
	for i := 0; i < len(word); i++ {
		switch {
		case n < len(b) && b[n]|0x20 == word[i]:
			n++
		case word[i] == 's' && bytes.HasPrefix(b[n:], []byte("ſ")):
			n += len("ſ")
		default:
			return 0, false
		}
	}
	return n, true
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
