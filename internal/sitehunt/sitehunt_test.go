package sitehunt_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/ct"
	"repro/internal/sitehunt"
	"repro/internal/toolkit"
	"repro/internal/website"
)

// rig spins up the full §8.2 environment: a site fleet, its hosting
// server, a CT log fed with the HTTPS sites' certificates, and a
// detector.
type rig struct {
	fleet    []*website.Site
	hostSrv  *httptest.Server
	ctSrv    *httptest.Server
	detector *sitehunt.Detector
}

func newRig(t *testing.T, cfg website.FleetConfig) *rig {
	t.Helper()
	fleet := website.GenerateFleet(cfg)
	host := website.NewHost(fleet)
	hostSrv := httptest.NewServer(host)
	t.Cleanup(hostSrv.Close)

	log, err := ct.NewLog()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fleet {
		if !s.HTTPS {
			continue // no certificate, never appears in CT
		}
		if _, err := log.Issue([]string{s.Domain}, s.Issued); err != nil {
			t.Fatal(err)
		}
	}
	ctSrv := httptest.NewServer(log.Handler())
	t.Cleanup(ctSrv.Close)

	return &rig{
		fleet:   fleet,
		hostSrv: hostSrv,
		ctSrv:   ctSrv,
		detector: &sitehunt.Detector{
			CT:      ct.NewClient(ctSrv.URL),
			Crawler: crawler.New(hostSrv.URL),
			Corpus:  toolkit.BuildCorpus(9, 87),
		},
	}
}

func defaultCfg() website.FleetConfig {
	return website.FleetConfig{
		Seed:     1910,
		Phishing: 60,
		Benign:   40,
		Bait:     15,
		Start:    time.Date(2023, 12, 1, 0, 0, 0, 0, time.UTC),
	}
}

func TestDetectorEndToEnd(t *testing.T) {
	r := newRig(t, defaultCfg())
	report, err := r.detector.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGroundTruth(t, r.fleet, report)
}

// checkGroundTruth holds a report to the fleet it was run over: no
// false positives or family misattributions, nearly full recall of the
// HTTPS phishing sites, and bait sites crawled but not flagged.
func checkGroundTruth(t *testing.T, fleet []*website.Site, report *sitehunt.Report) {
	t.Helper()
	// Ground truth: HTTPS phishing sites whose domain passes the filter
	// are detectable; everything else must not be flagged.
	truth := make(map[string]*website.Site)
	var detectable int
	for _, s := range fleet {
		truth[s.Domain] = s
		if s.Phishing && s.HTTPS {
			detectable++
		}
	}
	if report.Detected() == 0 {
		t.Fatal("no detections")
	}
	for _, det := range report.Detections {
		site := truth[det.Domain]
		if site == nil {
			t.Fatalf("detected unknown domain %s", det.Domain)
		}
		if !site.Phishing {
			t.Errorf("false positive: benign site %s flagged as %s", det.Domain, det.Family)
		}
		if det.Family != site.Family {
			t.Errorf("family misattribution for %s: got %s, want %s", det.Domain, det.Family, site.Family)
		}
	}
	// Recall: nearly all detectable sites found (a small number of
	// typo-domains legitimately fall below the similarity threshold).
	if report.Detected() < detectable*90/100 {
		t.Errorf("detected %d of %d detectable phishing sites", report.Detected(), detectable)
	}
	// Bait sites were crawled but not flagged: the crawl count must
	// exceed detections.
	if report.Crawled <= report.Detected() {
		t.Errorf("crawled %d ≤ detected %d; bait sites skipped the crawl stage?", report.Crawled, report.Detected())
	}
	// HTTP-only phishing sites are invisible to the CT stage.
	if report.Detected() >= len(filterPhishing(fleet)) {
		t.Errorf("detector claims more than CT can see")
	}
}

func TestDetectorTLDDistribution(t *testing.T) {
	cfg := defaultCfg()
	cfg.Phishing = 400
	cfg.Benign = 30
	cfg.Bait = 10
	r := newRig(t, cfg)
	report, err := r.detector.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.TLDs) == 0 {
		t.Fatal("no TLD distribution")
	}
	if report.TLDs[0].TLD != "com" {
		t.Errorf("top TLD = %s, want com (Table 4)", report.TLDs[0].TLD)
	}
	if report.TLDs[0].Fraction < 0.2 || report.TLDs[0].Fraction > 0.4 {
		t.Errorf(".com share %.3f, want ≈ 0.30", report.TLDs[0].Fraction)
	}
}

func TestDetectorIncrementalPolling(t *testing.T) {
	r := newRig(t, defaultCfg())
	first, err := r.detector.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A second run with the same client sees no new certificates.
	second, err := r.detector.Run()
	if err != nil {
		t.Fatal(err)
	}
	if second.CertsSeen != 0 || second.Detected() != 0 {
		t.Errorf("re-run saw %d certs, %d detections; cursor not advancing", second.CertsSeen, second.Detected())
	}
	if first.CertsSeen == 0 {
		t.Error("first run saw no certs")
	}
}

func TestDetectorConfigValidation(t *testing.T) {
	d := &sitehunt.Detector{}
	if _, err := d.Run(); err == nil {
		t.Error("empty detector ran")
	}
}

func filterPhishing(fleet []*website.Site) []*website.Site {
	var out []*website.Site
	for _, s := range fleet {
		if s.Phishing {
			out = append(out, s)
		}
	}
	return out
}

func TestDetectorWatchStreamsIncrementally(t *testing.T) {
	cfg := defaultCfg()
	cfg.Phishing = 10
	cfg.Benign = 5
	fleet := website.GenerateFleet(cfg)
	host := website.NewHost(fleet)
	hostSrv := httptest.NewServer(host)
	t.Cleanup(hostSrv.Close)

	log, err := ct.NewLog()
	if err != nil {
		t.Fatal(err)
	}
	// Start with only the first half of the fleet certified.
	half := len(fleet) / 2
	issue := func(sites []*website.Site) {
		for _, s := range sites {
			if s.HTTPS {
				if _, err := log.Issue([]string{s.Domain}, s.Issued); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	issue(fleet[:half])
	ctSrv := httptest.NewServer(log.Handler())
	t.Cleanup(ctSrv.Close)

	det := &sitehunt.Detector{
		CT:      ct.NewClient(ctSrv.URL),
		Crawler: crawler.New(hostSrv.URL),
		Corpus:  toolkit.BuildCorpus(9, 60),
	}
	var mu sync.Mutex
	var batches []*sitehunt.Report
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- det.Watch(ctx, 20*time.Millisecond, func(r *sitehunt.Report) {
			mu.Lock()
			defer mu.Unlock()
			batches = append(batches, r)
			if len(batches) == 2 {
				cancel()
			}
		})
	}()
	// After the first batch lands, certify the remaining sites.
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		n := len(batches)
		mu.Unlock()
		if n >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("first watch batch never arrived")
		case <-time.After(10 * time.Millisecond):
		}
	}
	issue(fleet[half:])
	if err := <-done; err != context.Canceled {
		t.Fatalf("watch returned %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) < 2 {
		t.Fatalf("got %d batches, want 2", len(batches))
	}
	total := batches[0].Detected() + batches[1].Detected()
	if total == 0 {
		t.Error("watch detected nothing")
	}
}
