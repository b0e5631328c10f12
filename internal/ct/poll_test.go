package ct

import (
	"encoding/base64"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// poisonedServer serves a log but mangles the base64 of the entries
// whose indexes are in bad — the wire-level poison pill real CT log
// frontends occasionally emit.
func poisonedServer(t *testing.T, log *Log, bad map[int64]bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/ct/v1/get-sth", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, sthJSON{TreeSize: log.Size(), Timestamp: ts().Unix()})
	})
	mux.HandleFunc("/ct/v1/get-entries", func(w http.ResponseWriter, r *http.Request) {
		start, _ := strconv.ParseInt(r.URL.Query().Get("start"), 10, 64)
		end, _ := strconv.ParseInt(r.URL.Query().Get("end"), 10, 64)
		var out entriesJSON
		for _, e := range log.Entries(start, end) {
			leaf := base64.StdEncoding.EncodeToString(e.DER)
			if bad[e.Index] {
				leaf = "!!!not-base64!!!"
			}
			out.Entries = append(out.Entries, wireEntry{Index: e.Index, LeafCert: leaf, Issued: e.Issued.Unix()})
		}
		writeJSON(w, out)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func issueN(t *testing.T, log *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := log.Issue([]string{"site.example"}, ts()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPollSkipsPoisonPill is the regression test for the poison-pill
// wedge: one undecodable leaf_cert used to fail the whole batch
// without advancing the cursor, so every subsequent poll re-fetched
// and re-failed the same window and ingestion never progressed again.
func TestPollSkipsPoisonPill(t *testing.T) {
	log, _ := NewLog()
	issueN(t, log, 5)
	srv := poisonedServer(t, log, map[int64]bool{2: true})

	reg := obs.NewRegistry()
	client := NewClient(srv.URL)
	client.Metrics = reg
	entries, err := client.Poll()
	if err != nil {
		t.Fatalf("poll with poison pill failed: %v", err)
	}
	var got []int64
	for _, e := range entries {
		got = append(got, e.Index)
		if _, derr := e.Domains(); derr != nil {
			t.Errorf("returned entry %d unparseable: %v", e.Index, derr)
		}
	}
	if len(got) != 4 || got[0] != 0 || got[3] != 4 {
		t.Errorf("entries = %v, want [0 1 3 4]", got)
	}
	if n := reg.Counter("daas_ct_bad_leaves_total", "").Value(); n != 1 {
		t.Errorf("bad_leaves_total = %d, want 1", n)
	}
	// Cursor advanced past the poison pill: the next poll is a clean
	// catch-up, not a re-fetch of the same wedged window.
	entries, err = client.Poll()
	if err != nil || len(entries) != 0 {
		t.Errorf("follow-up poll = %d entries, %v; want caught up", len(entries), err)
	}
}

// TestPollAllPoisonWindowAdvances: a window consisting entirely of bad
// leaves must not masquerade as "caught up" — the poller moves to the
// next window and returns its entries.
func TestPollAllPoisonWindowAdvances(t *testing.T) {
	log, _ := NewLog()
	issueN(t, log, 5)
	srv := poisonedServer(t, log, map[int64]bool{0: true, 1: true, 2: true})

	reg := obs.NewRegistry()
	client := NewClient(srv.URL)
	client.Metrics = reg
	client.BatchSize = 3
	entries, err := client.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Index != 3 || entries[1].Index != 4 {
		var got []int64
		for _, e := range entries {
			got = append(got, e.Index)
		}
		t.Errorf("entries = %v, want [3 4]", got)
	}
	if n := reg.Counter("daas_ct_bad_leaves_total", "").Value(); n != 3 {
		t.Errorf("bad_leaves_total = %d, want 3", n)
	}
	if n := reg.Counter("daas_ct_windows_skipped_total", "").Value(); n != 1 {
		t.Errorf("windows_skipped_total = %d, want 1", n)
	}
}

// transientServer serves a log whose get-entries responses are mangled
// or failed per call number — the transient wire corruption a
// continuously polling radar feed hits in the wild.
func transientServer(t *testing.T, log *Log, call func(n int) (mangle bool, status int)) *httptest.Server {
	t.Helper()
	var calls int
	mux := http.NewServeMux()
	mux.HandleFunc("/ct/v1/get-sth", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, sthJSON{TreeSize: log.Size(), Timestamp: ts().Unix()})
	})
	mux.HandleFunc("/ct/v1/get-entries", func(w http.ResponseWriter, r *http.Request) {
		calls++
		mangle, status := call(calls)
		if status != 0 {
			http.Error(w, "transient failure", status)
			return
		}
		start, _ := strconv.ParseInt(r.URL.Query().Get("start"), 10, 64)
		end, _ := strconv.ParseInt(r.URL.Query().Get("end"), 10, 64)
		var out entriesJSON
		for _, e := range log.Entries(start, end) {
			leaf := base64.StdEncoding.EncodeToString(e.DER)
			if mangle {
				leaf = "!!!not-base64!!!"
			}
			out.Entries = append(out.Entries, wireEntry{Index: e.Index, LeafCert: leaf, Issued: e.Issued.Unix()})
		}
		writeJSON(w, out)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestPollTransientCorruptionNotSkipped is the regression test for the
// transient-vs-poison cursor bug: a get-entries response whose leaves
// are corrupted only once (they decode fine on re-fetch) used to be
// treated as poison, advancing the cursor past the whole window and
// silently dropping every certificate in it. The confirming re-fetch
// must heal the window and return all entries with nothing counted as
// a bad leaf.
func TestPollTransientCorruptionNotSkipped(t *testing.T) {
	log, _ := NewLog()
	issueN(t, log, 4)
	srv := transientServer(t, log, func(n int) (bool, int) {
		return n == 1, 0 // first response mangled, re-fetch clean
	})

	reg := obs.NewRegistry()
	client := NewClient(srv.URL)
	client.Metrics = reg
	entries, err := client.Poll()
	if err != nil {
		t.Fatalf("poll over transient corruption failed: %v", err)
	}
	if len(entries) != 4 {
		var got []int64
		for _, e := range entries {
			got = append(got, e.Index)
		}
		t.Errorf("entries = %v, want [0 1 2 3]", got)
	}
	for _, e := range entries {
		if _, derr := e.Domains(); derr != nil {
			t.Errorf("returned entry %d unparseable: %v", e.Index, derr)
		}
	}
	if n := reg.Counter("daas_ct_bad_leaves_total", "").Value(); n != 0 {
		t.Errorf("bad_leaves_total = %d, want 0 (corruption was transient)", n)
	}
	if n := reg.Counter("daas_ct_windows_skipped_total", "").Value(); n != 0 {
		t.Errorf("windows_skipped_total = %d, want 0", n)
	}
}

// TestPollConfirmFetchErrorKeepsCursor: when the confirming re-fetch
// itself fails, Poll must surface the error with the cursor still
// parked before the window, so the next poll re-fetches it and no
// entry is skipped.
func TestPollConfirmFetchErrorKeepsCursor(t *testing.T) {
	log, _ := NewLog()
	issueN(t, log, 3)
	srv := transientServer(t, log, func(n int) (bool, int) {
		switch n {
		case 1:
			return true, 0 // mangled: triggers the confirming re-fetch
		case 2:
			return false, http.StatusInternalServerError
		default:
			return false, 0
		}
	})

	reg := obs.NewRegistry()
	client := NewClient(srv.URL)
	client.Metrics = reg
	if entries, err := client.Poll(); err == nil {
		t.Fatalf("poll with failed confirm fetch returned %d entries, nil error; want error", len(entries))
	}
	entries, err := client.Poll()
	if err != nil {
		t.Fatalf("follow-up poll failed: %v", err)
	}
	if len(entries) != 3 || entries[0].Index != 0 || entries[2].Index != 2 {
		var got []int64
		for _, e := range entries {
			got = append(got, e.Index)
		}
		t.Errorf("entries = %v, want [0 1 2]: cursor moved past an unresolved window", got)
	}
	if n := reg.Counter("daas_ct_bad_leaves_total", "").Value(); n != 0 {
		t.Errorf("bad_leaves_total = %d, want 0", n)
	}
}

// TestMetricsAssignedAfterFirstPoll is the regression test for the
// instrument-latch bug (the same one fixed in rpc.Client): a client
// polled once before Metrics was assigned latched no-op instruments
// via metricsOnce and recorded nothing forever after.
func TestMetricsAssignedAfterFirstPoll(t *testing.T) {
	log, _ := NewLog()
	issueN(t, log, 2)
	srv := httptest.NewServer(log.Handler())
	defer srv.Close()

	client := NewClient(srv.URL)
	if _, err := client.Poll(); err != nil { // metrics-less probe poll
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	client.Metrics = reg
	issueN(t, log, 1)
	entries, err := client.Poll()
	if err != nil || len(entries) != 1 {
		t.Fatalf("instrumented poll = %d entries, %v", len(entries), err)
	}
	if n := reg.Counter("daas_ct_polls_total", "").Value(); n == 0 {
		t.Error("polls_total = 0 after an instrumented poll: no-op instruments were latched")
	}
	if n := reg.Counter("daas_ct_entries_total", "").Value(); n != 1 {
		t.Errorf("entries_total = %d, want 1", n)
	}
}

// TestPollReusesConnection: polling a log whose get-entries pages are
// large enough to be sent chunked stays on one keep-alive connection.
func TestPollReusesConnection(t *testing.T) {
	log, _ := NewLog()
	issueN(t, log, 1000)
	srv := httptest.NewUnstartedServer(log.Handler())
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	client := NewClient(srv.URL)
	polls, total := 0, 0
	for {
		entries, err := client.Poll()
		if err != nil {
			t.Fatal(err)
		}
		polls++
		if len(entries) == 0 {
			break
		}
		total += len(entries)
	}
	if total != 1000 {
		t.Fatalf("polled %d entries, want 1000", total)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d polls opened %d connections, want 1", polls, n)
	}
}
