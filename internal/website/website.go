// Package website builds and serves the web half of the study:
// phishing sites embedding drainer toolkits (the Listing 2 layout) and
// benign sites, hosted over HTTP with path-based virtual hosting so
// the crawler and detector exercise real network fetches.
package website

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/domains"
	"repro/internal/toolkit"
)

// Site is one website: its domain, role, and file tree.
type Site struct {
	Domain   string
	Phishing bool
	Family   string // drainer family for phishing sites
	// HTTPS records whether the site obtained a certificate (the paper
	// notes >70% of phishing sites use TLS; only these appear in CT).
	HTTPS bool
	// Files maps path ("index.html", "scripts/settings.js") to content.
	Files map[string]string
	// Issued is the certificate issuance time for HTTPS sites.
	Issued time.Time
}

// cdnRefs are the external script references of the Inferno HTML
// snippet (paper Listing 2); they stay remote and are never fetched by
// the crawler.
var cdnRefs = []string{
	"https://cdnjs.cloudflare.com/ajax/libs/ethers/5.6.9/ethers.umd.min.js",
	"https://cdn.jsdelivr.net/npm/merkletreejs@latest/merkletree.js",
	"https://cdn.jsdelivr.net/npm/sweetalert2@11",
}

// BuildPhishing assembles a phishing site for a family: a cloned
// project landing page with the drainer toolkit embedded.
func BuildPhishing(domain, family string, variant int, rng *rand.Rand) *Site {
	files := make(map[string]string)
	var scripts []string
	for _, name := range toolkit.FileLayout(family, rng) {
		path := "scripts/" + name
		if strings.HasSuffix(name, ".js") && strings.Count(name, "-") == 4 {
			path = name // Inferno ships the UUID bundle at the root
		}
		files[path] = toolkit.GenerateContent(family, variant)
		scripts = append(scripts, path)
	}
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><head><title>")
	sb.WriteString(strings.Title(strings.Split(domain, ".")[0]))
	sb.WriteString(" | Claim Portal</title>\n")
	for _, cdn := range cdnRefs {
		fmt.Fprintf(&sb, "<script src=%q></script>\n", cdn)
	}
	for _, s := range scripts {
		fmt.Fprintf(&sb, "<script src=\"./%s\"></script>\n", s)
	}
	sb.WriteString("</head><body><h1>Connect your wallet to claim</h1>")
	sb.WriteString("<button onclick=\"sweep(window.ethereum)\">Claim now</button>")
	sb.WriteString("</body></html>")
	files["index.html"] = sb.String()
	return &Site{Domain: domain, Phishing: true, Family: family, Files: files}
}

// BuildBenign assembles an ordinary website.
func BuildBenign(domain string, rng *rand.Rand) *Site {
	files := make(map[string]string)
	files["scripts/main.js"] = fmt.Sprintf(
		"document.addEventListener('DOMContentLoaded',()=>{console.log('welcome to %s');});\n"+
			"function subscribe(e){fetch('/api/subscribe',{method:'POST'});}\n", domain)
	files["index.html"] = fmt.Sprintf(
		"<!DOCTYPE html><html><head><title>%s</title>\n"+
			"<script src=\"./scripts/main.js\"></script>\n"+
			"</head><body><h1>%s</h1><p>A perfectly ordinary website.</p></body></html>",
		domain, domain)
	return &Site{Domain: domain, Phishing: false, Files: files}
}

// httpsFraction is the share of phishing sites with certificates
// (paper: >70%). Benign sites are always HTTPS.
const httpsFraction = 0.75

// FleetConfig sizes a generated website fleet.
type FleetConfig struct {
	Seed uint64
	// Phishing is the number of drainer-deployed sites.
	Phishing int
	// Benign is the number of ordinary sites with unsuspicious domains.
	Benign int
	// Bait is the number of benign sites whose domains match the
	// keyword filter anyway (forcing the crawl stage to discriminate).
	Bait int
	// Start seeds certificate issuance times.
	Start time.Time
}

// FamilyShare weights phishing site counts by family, roughly
// following the victim-activity mix of Table 2.
var FamilyShare = []struct {
	Family string
	Weight float64
}{
	{toolkit.FamilyAngel, 45},
	{toolkit.FamilyInferno, 38},
	{toolkit.FamilyPink, 9},
	{toolkit.FamilyAce, 5},
	{toolkit.FamilyVenom, 3},
}

// GenerateFleet builds the full site population.
func GenerateFleet(cfg FleetConfig) []*Site {
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xc0ffee))
	gen := domains.NewGenerator(cfg.Seed ^ 0xd0)
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2023, 12, 1, 0, 0, 0, 0, time.UTC)
	}

	var cum []float64
	var acc float64
	for _, fs := range FamilyShare {
		acc += fs.Weight
		cum = append(cum, acc)
	}
	pickFamily := func() string {
		u := rng.Float64() * acc
		for i, c := range cum {
			if u <= c {
				return FamilyShare[i].Family
			}
		}
		return FamilyShare[0].Family
	}

	var sites []*Site
	seen := make(map[string]bool)
	fresh := func(make func() string) string {
		for {
			d := make()
			if !seen[d] {
				seen[d] = true
				return d
			}
		}
	}
	for i := 0; i < cfg.Phishing; i++ {
		site := BuildPhishing(fresh(gen.Phishing), pickFamily(), 1000+i, rng)
		site.HTTPS = rng.Float64() < httpsFraction
		site.Issued = cfg.Start.Add(time.Duration(rng.Int64N(int64(480 * 24 * time.Hour))))
		sites = append(sites, site)
	}
	for i := 0; i < cfg.Benign; i++ {
		site := BuildBenign(fresh(gen.Benign), rng)
		site.HTTPS = true
		site.Issued = cfg.Start.Add(time.Duration(rng.Int64N(int64(480 * 24 * time.Hour))))
		sites = append(sites, site)
	}
	for i := 0; i < cfg.Bait; i++ {
		site := BuildBenign(fresh(gen.BenignBait), rng)
		site.HTTPS = true
		site.Issued = cfg.Start.Add(time.Duration(rng.Int64N(int64(480 * 24 * time.Hour))))
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Issued.Before(sites[j].Issued) })
	return sites
}

// Host serves a fleet with path-based virtual hosting:
// GET /{domain}/{path} returns the site file. It implements
// http.Handler.
type Host struct {
	sites map[string]*Site
}

// NewHost indexes the fleet for serving.
func NewHost(sites []*Site) *Host {
	h := &Host{sites: make(map[string]*Site, len(sites))}
	for _, s := range sites {
		h.sites[s.Domain] = s
	}
	return h
}

// Lookup returns a hosted site by domain.
func (h *Host) Lookup(domain string) (*Site, bool) {
	s, ok := h.sites[domain]
	return s, ok
}

// ServeHTTP implements http.Handler.
func (h *Host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	domain, rest, _ := strings.Cut(path, "/")
	site, ok := h.sites[domain]
	if !ok {
		http.NotFound(w, r)
		return
	}
	if rest == "" {
		rest = "index.html"
	}
	content, ok := site.Files[rest]
	if !ok {
		http.NotFound(w, r)
		return
	}
	if strings.HasSuffix(rest, ".html") {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
	} else if strings.HasSuffix(rest, ".js") {
		w.Header().Set("Content-Type", "application/javascript")
	}
	fmt.Fprint(w, content)
}
