// Package sitehunt composes the toolkit-based phishing-website
// detection pipeline of the paper's §8.2: poll Certificate
// Transparency for newly issued certificates, extract suspicious
// domains by keyword and Levenshtein similarity, crawl the live
// candidates, and match their files against the drainer-toolkit
// fingerprint corpus.
package sitehunt

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/crawler"
	"repro/internal/ct"
	"repro/internal/domains"
	"repro/internal/obs"
	"repro/internal/toolkit"
)

// Detection is one confirmed phishing website.
type Detection struct {
	Domain  string
	Family  string
	Match   toolkit.Match
	Keyword string
}

// Report summarizes one detector run.
type Report struct {
	CertsSeen       int
	BadCerts        int
	DomainsSeen     int
	SuspiciousCount int
	Crawled         int
	CrawlFailures   int
	Detections      []Detection
	// TLDs is the Table 4 distribution over detected phishing domains.
	TLDs []domains.TLDShare
}

// Detected returns the number of confirmed phishing sites.
func (r *Report) Detected() int { return len(r.Detections) }

// PhishingDomains returns the confirmed phishing domains, sorted and
// deduplicated — the feed a screening snapshot compiles in
// (screen.Compile) so wallets can refuse signatures requested by
// detected drainer deployments.
func (r *Report) PhishingDomains() []string {
	seen := make(map[string]bool, len(r.Detections))
	out := make([]string, 0, len(r.Detections))
	for _, d := range r.Detections {
		if !seen[d.Domain] {
			seen[d.Domain] = true
			out = append(out, d.Domain)
		}
	}
	sort.Strings(out)
	return out
}

// Detector wires the pipeline stages together.
type Detector struct {
	CT      *ct.Client
	Crawler *crawler.Crawler
	Corpus  *toolkit.Corpus
	// SimilarityThreshold defaults to domains.SimilarityThreshold.
	SimilarityThreshold float64
	// Logger receives structured progress events (nil discards them).
	Logger *obs.Logger
	// Metrics, when set, receives the §8.2 funnel counters
	// (daas_funnel_* metric names): every stage from CT certificate
	// ingestion down to confirmed toolkit matches.
	Metrics *obs.Registry
}

// funnelMetrics caches the detector's instruments; all nil (no-op)
// when Metrics is unset.
type funnelMetrics struct {
	certs      *obs.Counter
	badCerts   *obs.Counter
	domains    *obs.Counter
	suspicious *obs.Counter
	crawled    *obs.Counter
	crawlFails *obs.Counter
	matches    *obs.CounterVec
	detections *obs.Counter
}

func newFunnelMetrics(r *obs.Registry) funnelMetrics {
	return funnelMetrics{
		certs:      r.Counter("daas_funnel_ct_certs_total", "certificates ingested from CT (§8.2 step 1)"),
		badCerts:   r.Counter("daas_funnel_bad_certs_total", "CT entries skipped because their certificate would not parse"),
		domains:    r.Counter("daas_funnel_domains_total", "unique domains extracted from certificates"),
		suspicious: r.Counter("daas_funnel_suspicious_total", "domains passing the keyword/similarity filter"),
		crawled:    r.Counter("daas_funnel_crawled_total", "suspicious domains successfully crawled (§8.2 step 2)"),
		crawlFails: r.Counter("daas_funnel_crawl_failures_total", "suspicious domains that failed to crawl"),
		matches:    r.CounterVec("daas_funnel_toolkit_matches_total", "toolkit fingerprint matches per drainer family (§8.2 step 3)", "family"),
		detections: r.Counter("daas_funnel_detections_total", "confirmed phishing websites"),
	}
}

// Run drains the CT log and processes every new certificate, returning
// the cumulative report for this invocation.
func (d *Detector) Run() (*Report, error) {
	if d.CT == nil || d.Crawler == nil || d.Corpus == nil {
		return nil, fmt.Errorf("sitehunt: Detector needs CT, Crawler, and Corpus")
	}
	fm := newFunnelMetrics(d.Metrics)
	threshold := d.SimilarityThreshold
	if threshold == 0 {
		threshold = domains.SimilarityThreshold
	}
	report := &Report{}
	var phishingDomains []string
	seen := make(map[string]bool)

	for {
		entries, err := d.CT.Poll()
		if err != nil {
			return nil, fmt.Errorf("sitehunt: polling CT: %w", err)
		}
		if len(entries) == 0 {
			break
		}
		report.CertsSeen += len(entries)
		fm.certs.Add(uint64(len(entries)))
		for _, e := range entries {
			names, err := e.Domains()
			if err != nil {
				// One unparseable certificate must not kill a run that
				// monitors a live log; skip it and keep the count.
				report.BadCerts++
				fm.badCerts.Inc()
				d.Logger.Debug("skipping unparseable certificate", "index", e.Index, "err", err.Error())
				continue
			}
			for _, domain := range names {
				if seen[domain] {
					continue
				}
				seen[domain] = true
				report.DomainsSeen++
				fm.domains.Inc()
				match, suspicious := domains.Suspicious(domain, threshold)
				if !suspicious {
					continue
				}
				report.SuspiciousCount++
				fm.suspicious.Inc()
				page, err := d.Crawler.Fetch(domain)
				if err != nil {
					report.CrawlFailures++
					fm.crawlFails.Inc()
					continue
				}
				report.Crawled++
				fm.crawled.Inc()
				verdict, hit := d.Corpus.MatchSite(page.Files)
				if !hit {
					continue
				}
				fm.matches.With(verdict.Family).Inc()
				fm.detections.Inc()
				report.Detections = append(report.Detections, Detection{
					Domain:  domain,
					Family:  verdict.Family,
					Match:   verdict,
					Keyword: match.Keyword,
				})
				phishingDomains = append(phishingDomains, domain)
				d.Logger.Info("phishing website detected",
					"domain", domain, "family", verdict.Family, "keyword", match.Keyword)
			}
		}
	}
	report.TLDs = domains.TLDDistribution(phishingDomains)
	return report, nil
}

// Watch runs the detector continuously: every interval it polls the CT
// log for newly issued certificates and processes them, passing each
// non-empty incremental report to sink. It returns when ctx is
// cancelled (with ctx.Err()) or on the first pipeline error — live
// phishing monitoring, the deployment mode of §8.2 ("between December
// 2023 and April 2025 we detected and reported 32,819 websites").
func (d *Detector) Watch(ctx context.Context, interval time.Duration, sink func(*Report)) error {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		rep, err := d.Run()
		if err != nil {
			return err
		}
		if rep.CertsSeen > 0 && sink != nil {
			sink(rep)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}
