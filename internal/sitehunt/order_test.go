package sitehunt_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/ct"
	"repro/internal/obs"
	"repro/internal/sitehunt"
	"repro/internal/toolkit"
	"repro/internal/website"
)

// delayTransport holds each crawler response back by a random 0–2 ms,
// drawn from a generator seeded by the seed and the request path, so
// concurrent fetches finish out of CT order.
type delayTransport struct{ seed uint64 }

func (t delayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	h := fnv.New64a()
	h.Write([]byte(req.URL.Path))
	time.Sleep(time.Duration(rand.New(rand.NewPCG(t.seed, h.Sum64())).IntN(2001)) * time.Microsecond)
	return resp, err
}

// corruptLeaves serves the log with the leaves at the given indexes
// replaced by bytes that are valid base64 but not a certificate, so
// the detector's bad-certificate events interleave with its
// detections.
func corruptLeaves(next http.Handler, bad map[int64]bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ct/v1/get-entries" {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		var body struct {
			Entries []map[string]any `json:"entries"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for _, e := range body.Entries {
			if bad[int64(e["index"].(float64))] {
				e["leaf_cert"] = base64.StdEncoding.EncodeToString([]byte("not a certificate"))
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	})
}

// orderRun is everything one detector run leaves behind.
type orderRun struct {
	report  *sitehunt.Report
	events  []string // log lines without their timestamps
	metrics string   // the funnel counters in exposition format
}

// runOrderRig runs a detector over the fleet, whose log also holds an
// unparseable certificate after every tenth site, in small CT batches;
// with delay set, crawler responses are held back at random.
func runOrderRig(t *testing.T, fleet []*website.Site, delay bool) orderRun {
	t.Helper()
	hostSrv := httptest.NewServer(website.NewHost(fleet))
	t.Cleanup(hostSrv.Close)
	log, err := ct.NewLog()
	if err != nil {
		t.Fatal(err)
	}
	bad := make(map[int64]bool)
	for i, s := range fleet {
		if s.HTTPS {
			if _, err := log.Issue([]string{s.Domain}, s.Issued); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			e, err := log.Issue([]string{fmt.Sprintf("filler-%d.example", i)}, s.Issued)
			if err != nil {
				t.Fatal(err)
			}
			bad[e.Index] = true
		}
	}
	ctSrv := httptest.NewServer(corruptLeaves(log.Handler(), bad))
	t.Cleanup(ctSrv.Close)

	var logBuf bytes.Buffer
	reg := obs.NewRegistry()
	det := &sitehunt.Detector{
		CT:      ct.NewClient(ctSrv.URL),
		Crawler: crawler.New(hostSrv.URL),
		Corpus:  toolkit.BuildCorpus(9, 87),
		Logger:  obs.New(&logBuf, obs.LevelDebug),
		Metrics: reg,
	}
	det.CT.BatchSize = 16
	if delay {
		det.Crawler.HTTPClient.Transport = delayTransport{seed: 23}
	}
	report, err := det.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.BadCerts != len(bad) {
		t.Fatalf("BadCerts = %d, want %d", report.BadCerts, len(bad))
	}
	var run orderRun
	run.report = report
	for _, line := range strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n") {
		_, rest, _ := strings.Cut(line, " ") // drop time=…
		run.events = append(run.events, rest)
	}
	var m bytes.Buffer
	if err := reg.WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	run.metrics = m.String()
	return run
}

// TestDetectorOrderIndependent: crawls that finish in random order on
// concurrent workers leave the report, the logged events and the
// funnel counters exactly as an undelayed run leaves them.
func TestDetectorOrderIndependent(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	fleet := website.GenerateFleet(defaultCfg())
	want := runOrderRig(t, fleet, false)
	got := runOrderRig(t, fleet, true)
	checkGroundTruth(t, fleet, want.report)
	if !reflect.DeepEqual(got.report, want.report) {
		t.Errorf("delayed crawl changed the report:\n got %+v\nwant %+v", got.report, want.report)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("delayed crawl changed the logged events:\n got %q\nwant %q", got.events, want.events)
	}
	if got.metrics != want.metrics {
		t.Errorf("delayed crawl changed the funnel counters:\n got %s\nwant %s", got.metrics, want.metrics)
	}
}
