package ct

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func ts() time.Time { return time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC) }

func TestIssueAndParse(t *testing.T) {
	log, err := NewLog()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := log.Issue([]string{"uniswap-claim.com", "www.uniswap-claim.com"}, ts())
	if err != nil {
		t.Fatal(err)
	}
	names, err := entry.Domains()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "uniswap-claim.com" {
		t.Errorf("domains = %v", names)
	}
	if log.Size() != 1 {
		t.Errorf("size = %d", log.Size())
	}
}

func TestEntriesWindowClamping(t *testing.T) {
	log, _ := NewLog()
	for i := 0; i < 5; i++ {
		if _, err := log.Issue([]string{"example.dev"}, ts()); err != nil {
			t.Fatal(err)
		}
	}
	if got := log.Entries(1, 3); len(got) != 3 || got[0].Index != 1 {
		t.Errorf("window [1,3] = %d entries starting %d", len(got), got[0].Index)
	}
	if got := log.Entries(3, 99); len(got) != 2 {
		t.Errorf("overrun window = %d entries", len(got))
	}
	if got := log.Entries(-5, 1); len(got) != 2 {
		t.Errorf("negative start = %d entries", len(got))
	}
	if got := log.Entries(9, 10); got != nil {
		t.Errorf("beyond-end window = %v", got)
	}
}

func TestClientPollPagination(t *testing.T) {
	log, _ := NewLog()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := log.Issue([]string{"site.example"}, ts()); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(log.Handler())
	defer srv.Close()

	client := NewClient(srv.URL)
	client.BatchSize = 3
	total := 0
	lastIdx := int64(-1)
	for {
		entries, err := client.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			break
		}
		if len(entries) > 3 {
			t.Errorf("batch of %d exceeds BatchSize", len(entries))
		}
		for _, e := range entries {
			if e.Index != lastIdx+1 {
				t.Errorf("entry gap: %d after %d", e.Index, lastIdx)
			}
			lastIdx = e.Index
			if _, err := e.Domains(); err != nil {
				t.Errorf("entry %d certificate unparseable: %v", e.Index, err)
			}
		}
		total += len(entries)
	}
	if total != n {
		t.Errorf("polled %d entries, want %d", total, n)
	}
	// New issuance resumes the stream.
	if _, err := log.Issue([]string{"late.example"}, ts()); err != nil {
		t.Fatal(err)
	}
	entries, err := client.Poll()
	if err != nil || len(entries) != 1 {
		t.Fatalf("resume poll = %d entries, %v", len(entries), err)
	}
	if names, _ := entries[0].Domains(); names[0] != "late.example" {
		t.Errorf("resumed entry = %v", names)
	}
}

func TestClientErrors(t *testing.T) {
	client := NewClient("http://127.0.0.1:1")
	if _, err := client.TreeSize(); err == nil {
		t.Error("unreachable log succeeded")
	}
	log, _ := NewLog()
	srv := httptest.NewServer(log.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/ct/v1/get-entries")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing params status = %d, want 400", resp.StatusCode)
	}
}

// TestClientNotFoundStatus: a non-200 answer surfaces as an error that
// names the status the log returned.
func TestClientNotFoundStatus(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	_, err := NewClient(srv.URL).TreeSize()
	if err == nil || !strings.Contains(err.Error(), "404 Not Found") {
		t.Errorf("TreeSize against a 404 = %v, want an error naming 404 Not Found", err)
	}
}
