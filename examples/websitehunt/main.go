// Websitehunt runs the §8.2 detection pipeline end to end over live
// HTTP: deploy a mixed fleet of phishing and benign websites, feed
// their certificates into a Certificate Transparency log, then hunt —
// CT polling, suspicious-domain extraction, crawling, and toolkit
// fingerprint matching.
//
//	go run ./examples/websitehunt
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"repro/internal/crawler"
	"repro/internal/ct"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sitehunt"
	"repro/internal/toolkit"
	"repro/internal/website"
)

func main() {
	// Deploy 120 phishing sites, 60 benign sites, and 20 "bait" sites
	// (benign content behind suspicious-looking domains).
	fleet := website.GenerateFleet(website.FleetConfig{
		Seed: 2024, Phishing: 120, Benign: 60, Bait: 20,
	})
	hosting := httptest.NewServer(website.NewHost(fleet))
	defer hosting.Close()

	// Every HTTPS site's certificate lands in the CT log.
	ctLog, err := ct.NewLog()
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range fleet {
		if s.HTTPS {
			if _, err := ctLog.Issue([]string{s.Domain}, s.Issued); err != nil {
				log.Fatal(err)
			}
		}
	}
	ctServer := httptest.NewServer(ctLog.Handler())
	defer ctServer.Close()
	fmt.Printf("fleet: %d sites hosted at %s; CT log at %s\n\n",
		len(fleet), hosting.URL, ctServer.URL)

	// The hunter: 87 toolkit fingerprints, 0.8 similarity threshold.
	detector := &sitehunt.Detector{
		CT:      ct.NewClient(ctServer.URL),
		Crawler: crawler.New(hosting.URL),
		Corpus:  toolkit.BuildCorpus(2024, 87),
		Logger:  obs.New(os.Stderr, obs.LevelDebug),
	}
	rep, err := detector.Run()
	if err != nil {
		log.Fatal(err)
	}

	report.SiteHunt(os.Stdout, rep)
	fmt.Println()
	report.Table4(os.Stdout, rep.TLDs, 10)

	// Show a couple of concrete detections.
	fmt.Println("\nsample detections:")
	for i, det := range rep.Detections {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-40s %-16s (keyword %q)\n", det.Domain, det.Family, det.Keyword)
	}
}
