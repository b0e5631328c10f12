// Package ct implements an RFC 6962-style Certificate Transparency log
// substrate: real self-signed X.509 certificates (ECDSA P-256) issued
// for generated domains, an HTTP log server exposing get-sth and
// get-entries, and a polling client. The paper's §8.2 Step 1 consumes
// newly issued certificates exactly this way.
package ct

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Entry is one log entry: a DER-encoded certificate and its index.
type Entry struct {
	Index  int64
	DER    []byte
	Issued time.Time
}

// Domains parses the certificate and returns its DNS names.
func (e Entry) Domains() ([]string, error) {
	cert, err := x509.ParseCertificate(e.DER)
	if err != nil {
		return nil, fmt.Errorf("ct: parsing entry %d: %w", e.Index, err)
	}
	return cert.DNSNames, nil
}

// Log is an append-only certificate log. The zero value is unusable;
// call NewLog.
type Log struct {
	mu      sync.RWMutex
	entries []Entry
	signer  *ecdsa.PrivateKey
	serial  int64
}

// NewLog creates an empty log with a fresh issuing key.
func NewLog() (*Log, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("ct: generating log key: %w", err)
	}
	return &Log{signer: key}, nil
}

// Issue creates a self-signed certificate covering the given domains
// and appends it to the log, returning the entry.
func (l *Log) Issue(domainNames []string, notBefore time.Time) (Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.serial++
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(l.serial),
		Subject:               pkix.Name{CommonName: domainNames[0]},
		DNSNames:              domainNames,
		NotBefore:             notBefore,
		NotAfter:              notBefore.Add(90 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &l.signer.PublicKey, l.signer)
	if err != nil {
		return Entry{}, fmt.Errorf("ct: issuing cert for %v: %w", domainNames, err)
	}
	entry := Entry{Index: int64(len(l.entries)), DER: der, Issued: notBefore}
	l.entries = append(l.entries, entry)
	return entry, nil
}

// Size returns the current tree size.
func (l *Log) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return int64(len(l.entries))
}

// Entries returns entries in [start, end] inclusive, clamped to the
// log, mirroring the RFC 6962 get-entries window semantics.
func (l *Log) Entries(start, end int64) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if start < 0 {
		start = 0
	}
	if end >= int64(len(l.entries)) {
		end = int64(len(l.entries)) - 1
	}
	if start > end {
		return nil
	}
	out := make([]Entry, 0, end-start+1)
	out = append(out, l.entries[start:end+1]...)
	return out
}

// HTTP wire shapes (RFC 6962 §4.3 / §4.6 flavored).

type sthJSON struct {
	TreeSize  int64 `json:"tree_size"`
	Timestamp int64 `json:"timestamp"`
}

type entriesJSON struct {
	Entries []wireEntry `json:"entries"`
}

type wireEntry struct {
	Index    int64  `json:"index"`
	LeafCert string `json:"leaf_cert"` // base64 DER
	Issued   int64  `json:"issued"`
}

// Handler serves the log over HTTP at /ct/v1/get-sth and
// /ct/v1/get-entries?start=&end=.
func (l *Log) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ct/v1/get-sth", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, sthJSON{TreeSize: l.Size(), Timestamp: time.Now().Unix()})
	})
	mux.HandleFunc("/ct/v1/get-entries", func(w http.ResponseWriter, r *http.Request) {
		start, err1 := strconv.ParseInt(r.URL.Query().Get("start"), 10, 64)
		end, err2 := strconv.ParseInt(r.URL.Query().Get("end"), 10, 64)
		if err1 != nil || err2 != nil {
			http.Error(w, "start and end required", http.StatusBadRequest)
			return
		}
		var out entriesJSON
		for _, e := range l.Entries(start, end) {
			out.Entries = append(out.Entries, wireEntry{
				Index:    e.Index,
				LeafCert: base64.StdEncoding.EncodeToString(e.DER),
				Issued:   e.Issued.Unix(),
			})
		}
		writeJSON(w, out)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Client polls a CT log server.
type Client struct {
	// BaseURL is the log endpoint (no trailing slash).
	BaseURL string
	// HTTPClient defaults to a 30s-timeout client.
	HTTPClient *http.Client
	// BatchSize bounds one get-entries window (default 256).
	BatchSize int64
	// Metrics, when set, records poll counts, ingested entries, and
	// poll latency (daas_ct_* metric names).
	Metrics *obs.Registry

	next        int64
	metricsOnce sync.Once
	cm          clientMetrics
}

// clientMetrics caches the client's instruments; all nil (no-op) when
// Metrics is unset.
type clientMetrics struct {
	polls          *obs.Counter
	entries        *obs.Counter
	errors         *obs.Counter
	badLeaves      *obs.Counter
	windowsSkipped *obs.Counter
	duration       *obs.Histogram
}

// noopClientMetrics serves calls made before Metrics is assigned; nil
// instruments are no-ops.
var noopClientMetrics clientMetrics

func (c *Client) metrics() *clientMetrics {
	// The nil guard must precede the once: a client polled before
	// Metrics is assigned would otherwise latch no-op instruments
	// forever and record nothing for the rest of its life.
	if c.Metrics == nil {
		return &noopClientMetrics
	}
	c.metricsOnce.Do(func() {
		c.cm = clientMetrics{
			polls:          c.Metrics.Counter("daas_ct_polls_total", "CT log poll round trips (§8.2 step 1)"),
			entries:        c.Metrics.Counter("daas_ct_entries_total", "certificate entries ingested from the CT log"),
			errors:         c.Metrics.Counter("daas_ct_poll_errors_total", "failed CT log polls"),
			badLeaves:      c.Metrics.Counter("daas_ct_bad_leaves_total", "undecodable CT log entries skipped by the poller"),
			windowsSkipped: c.Metrics.Counter("daas_ct_windows_skipped_total", "get-entries windows skipped because every leaf was confirmed poison"),
			duration:       c.Metrics.Histogram("daas_ct_poll_duration_seconds", "CT poll latency", obs.DefDurationBuckets),
		}
	})
	return &c.cm
}

// NewClient returns a client starting at entry 0.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: &http.Client{Timeout: 30 * time.Second}, BatchSize: 256}
}

// TreeSize fetches the current signed tree head size.
func (c *Client) TreeSize() (int64, error) {
	var sth sthJSON
	if err := c.get("/ct/v1/get-sth", &sth); err != nil {
		return 0, err
	}
	return sth.TreeSize, nil
}

// Poll fetches entries the client has not seen yet, advancing its
// cursor. It returns nil when caught up.
//
// An undecodable entry can be one of two very different things: a
// genuine poison pill (logs do serve permanently mangled leaves) or a
// transient wire corruption that would decode fine on retry. The two
// demand opposite cursor behavior — advancing past a transient drop
// silently skips real certificates, while parking before a poison pill
// re-fetches and re-fails the same window forever. Poll disambiguates
// with one confirming re-fetch of the window: an entry is declared
// poison only when it is undecodable in both fetches (counted in
// daas_ct_bad_leaves_total and skipped); an entry that heals on the
// re-fetch is returned normally. If the confirming fetch itself fails,
// Poll returns the error with the cursor still parked before the
// window, so nothing is skipped. The cursor advances only past fully
// resolved windows; a window whose every leaf is confirmed poison is
// counted in daas_ct_windows_skipped_total and the poll moves on to
// the next window instead of reporting a false catch-up.
func (c *Client) Poll() (entries []Entry, err error) {
	cm := c.metrics()
	cm.polls.Inc()
	start := time.Now()
	defer func() {
		cm.duration.ObserveDuration(time.Since(start))
		if err != nil {
			cm.errors.Inc()
		} else {
			cm.entries.Add(uint64(len(entries)))
		}
	}()
	size, err := c.TreeSize()
	if err != nil {
		return nil, err
	}
	for c.next < size {
		end := c.next + c.batch() - 1
		if end >= size {
			end = size - 1
		}
		var out entriesJSON
		path := fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", c.next, end)
		if err := c.get(path, &out); err != nil {
			return nil, err
		}
		if len(out.Entries) == 0 {
			return nil, nil
		}
		good := make(map[int64]Entry, len(out.Entries))
		decode := func(wire []wireEntry) (anyBad bool) {
			for _, we := range wire {
				if _, ok := good[we.Index]; ok {
					continue
				}
				der, err := base64.StdEncoding.DecodeString(we.LeafCert)
				if err != nil {
					anyBad = true
					continue
				}
				good[we.Index] = Entry{Index: we.Index, DER: der, Issued: time.Unix(we.Issued, 0).UTC()}
			}
			return anyBad
		}
		if decode(out.Entries) {
			// At least one leaf failed to decode: confirm poison with a
			// second fetch of the same window before giving up on it. A
			// fetch error here returns with the cursor still parked
			// before the window — transient failures skip nothing.
			var again entriesJSON
			if err := c.get(path, &again); err != nil {
				return nil, err
			}
			decode(again.Entries)
		}
		advanced := c.next
		for _, we := range out.Entries {
			if we.Index >= advanced {
				advanced = we.Index + 1
			}
			e, ok := good[we.Index]
			if !ok {
				// Undecodable in both fetches: confirmed poison pill.
				cm.badLeaves.Inc()
				continue
			}
			entries = append(entries, e)
		}
		c.next = advanced
		if len(entries) > 0 {
			return entries, nil
		}
		// Whole window was confirmed poison; keep going so an all-bad
		// stretch does not masquerade as "caught up".
		cm.windowsSkipped.Inc()
	}
	return nil, nil
}

func (c *Client) batch() int64 {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 256
}

func (c *Client) get(path string, v any) error {
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := httpClient.Get(c.BaseURL + path)
	if err != nil {
		return fmt.Errorf("ct: GET %s: %w", path, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ct: GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// maxDrain bounds how much of an unread response body drainClose
// discards to keep its connection.
const maxDrain = 64 << 10

// drainClose reads a response body to EOF before closing it: the
// decoder stops at the end of the JSON value, and a body closed before
// its chunked terminator makes the transport drop the keep-alive
// connection, so every poll would dial again.
func drainClose(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, maxDrain)
	body.Close()
}
