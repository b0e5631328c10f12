// Command ctwatch runs the §8.2 toolkit-based phishing-website
// detection pipeline end to end: it generates a website fleet, issues
// certificates into a local Certificate Transparency log, serves both
// over HTTP, and then hunts — extracting suspicious domains from newly
// issued certificates and confirming drainer deployments by crawling.
//
//	ctwatch -sites 2000 -benign 800 -bait 150 -fingerprints 867
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/domains"

	"repro/internal/crawler"
	"repro/internal/ct"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sitehunt"
	"repro/internal/toolkit"
	"repro/internal/website"
)

func main() {
	var (
		seed         = flag.Uint64("seed", 1910, "fleet generation seed")
		nPhish       = flag.Int("sites", 2000, "phishing sites to deploy")
		nBenign      = flag.Int("benign", 800, "benign sites")
		nBait        = flag.Int("bait", 150, "benign sites with suspicious domains")
		fingerprints = flag.Int("fingerprints", 867, "toolkit fingerprint corpus size (paper: 867)")
		verbose      = flag.Bool("v", false, "log each detection")
		follow       = flag.Duration("follow", 0, "keep watching the CT log at this interval (0 = one-shot)")
	)
	flag.Parse()

	log.Printf("deploying fleet: %d phishing, %d benign, %d bait ...", *nPhish, *nBenign, *nBait)
	fleet := website.GenerateFleet(website.FleetConfig{
		Seed: *seed, Phishing: *nPhish, Benign: *nBenign, Bait: *nBait,
	})
	hostSrv := httptest.NewServer(website.NewHost(fleet))
	defer hostSrv.Close()

	ctLog, err := ct.NewLog()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	issued := 0
	for _, s := range fleet {
		if !s.HTTPS {
			continue
		}
		if _, err := ctLog.Issue([]string{s.Domain}, s.Issued); err != nil {
			log.Fatalf("issuing cert for %s: %v", s.Domain, err)
		}
		issued++
	}
	log.Printf("issued %d certificates into the CT log in %s", issued, time.Since(start).Round(time.Millisecond))
	ctSrv := httptest.NewServer(ctLog.Handler())
	defer ctSrv.Close()

	detector := &sitehunt.Detector{
		CT:      ct.NewClient(ctSrv.URL),
		Crawler: crawler.New(hostSrv.URL),
		Corpus:  toolkit.BuildCorpus(*seed, *fingerprints),
	}
	if *verbose {
		detector.Logger = obs.New(os.Stderr, obs.LevelDebug)
	}

	if *follow > 0 {
		// Live monitoring: new certificates keep arriving (here from a
		// feeder goroutine standing in for the global CT firehose).
		go feedMoreSites(ctLog, *seed+1, *follow)
		ctx, cancel := signalContext()
		defer cancel()
		err := detector.Watch(ctx, *follow, func(rep *sitehunt.Report) {
			log.Printf("batch: %d new certs, %d detections", rep.CertsSeen, rep.Detected())
		})
		log.Printf("watch ended: %v", err)
		return
	}

	start = time.Now()
	rep, err := detector.Run()
	if err != nil {
		log.Fatalf("detector: %v", err)
	}
	log.Printf("hunt finished in %s", time.Since(start).Round(time.Millisecond))

	fmt.Println()
	report.SiteHunt(os.Stdout, rep)
	fmt.Println()
	report.Table4(os.Stdout, rep.TLDs, 10)

	// Score against ground truth.
	var truePhishing, detectable int
	detected := make(map[string]bool)
	for _, det := range rep.Detections {
		detected[det.Domain] = true
	}
	var falsePositives int
	for _, s := range fleet {
		if s.Phishing {
			truePhishing++
			if s.HTTPS {
				detectable++
			}
		} else if detected[s.Domain] {
			falsePositives++
		}
	}
	fmt.Printf("\nGround truth: %d phishing sites deployed, %d visible in CT (HTTPS).\n", truePhishing, detectable)
	fmt.Printf("Detected %d (%.1f%% of CT-visible), %d false positives.\n",
		rep.Detected(), 100*float64(rep.Detected())/float64(detectable), falsePositives)
}

// feedMoreSites drips fresh phishing certificates into the log so
// -follow mode has something to find.
func feedMoreSites(ctLog *ct.Log, seed uint64, every time.Duration) {
	gen := domains.NewGenerator(seed)
	for {
		time.Sleep(every)
		if _, err := ctLog.Issue([]string{gen.Phishing()}, time.Now()); err != nil {
			return
		}
	}
}

// signalContext cancels on SIGINT/SIGTERM.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
