package rpc_test

import (
	"bytes"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ethtypes"
	"repro/internal/rpc"
	"repro/internal/screen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// captureTransport records the last request body a client sent and the
// response body it received.
type captureTransport struct {
	mu        sync.Mutex
	req, resp []byte
}

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	r.Body = io.NopCloser(bytes.NewReader(req))
	res, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, err
	}
	res.Body = io.NopCloser(bytes.NewReader(resp))
	c.mu.Lock()
	c.req, c.resp = req, resp
	c.mu.Unlock()
	return res, nil
}

// goldenAge is the snapshot age the golden response carries.
const goldenAge = 90 * time.Second

// TestScreenBatchGolden pins the daas_screenBatch wire bytes both ways:
// the request body rpc.Client emits and the response body the server
// writes, for a batch covering clean and listed verdicts, the boolean
// flags, family names that need HTML-safe escaping, non-ASCII and
// invalid UTF-8 family names, and a stale snapshot. The file holds the
// request on its first line and the response (with the encoder's
// trailing newline) after it.
func TestScreenBatchGolden(t *testing.T) {
	b := screen.NewBuilder()
	b.Add(screen.Record{Address: screenAddr(1), Kind: screen.KindContract, Reason: screen.ReasonContract,
		Family: "Inferno", Tainted: true, StaticFlagged: true})
	b.Add(screen.Record{Address: screenAddr(2), Kind: screen.KindOperator, Reason: screen.ReasonOperator})
	b.Add(screen.Record{Address: screenAddr(3), Kind: screen.KindAffiliate, Reason: screen.ReasonAffiliate,
		Family: "Angel <&> Co"})
	b.Add(screen.Record{Address: screenAddr(4), Kind: screen.KindAffiliate, Reason: screen.ReasonAffiliate,
		Family: "Pink Drainer é\u2028日"})
	b.Add(screen.Record{Address: screenAddr(5), Kind: screen.KindManual, Reason: "hotlist \"x\"\n",
		Family: "Venom\xff\xfe"})
	eng := screen.NewEngine(nil)
	eng.Swap(b.Build())
	srv := httptest.NewServer(&rpc.Server{Screen: eng})
	defer srv.Close()

	addrs := []ethtypes.Address{screenAddr(9), screenAddr(1), screenAddr(2), screenAddr(3),
		screenAddr(4), screenAddr(5), screenAddr(0xAB)}
	var (
		ct      captureTransport
		results []rpc.ScreenResult
	)
	// The age is whole seconds of wall time; retry on the rare run that
	// straddles a second boundary.
	for attempt := 0; ; attempt++ {
		eng.MarkFreshAt(time.Now().Add(-goldenAge - 100*time.Millisecond))
		client := rpc.NewClient(srv.URL)
		client.HTTPClient.Transport = &ct
		var err error
		if results, err = client.ScreenBatch(addrs); err != nil {
			t.Fatal(err)
		}
		if eng.Age() < goldenAge+time.Second || attempt == 3 {
			break
		}
	}

	got := append(append(append([]byte{}, ct.req...), '\n'), ct.resp...)
	path := filepath.Join("testdata", "screen_batch.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantReq, wantResp, _ := bytes.Cut(want, []byte("\n"))
	if !bytes.Equal(ct.req, wantReq) {
		t.Errorf("request bytes differ from the pinned format\n--- got ---\n%s\n--- want ---\n%s", ct.req, wantReq)
	}
	if !bytes.Equal(ct.resp, wantResp) {
		t.Errorf("response bytes differ from the pinned format\n--- got ---\n%s\n--- want ---\n%s", ct.resp, wantResp)
	}

	age := uint64(goldenAge / time.Second)
	wantResults := []rpc.ScreenResult{
		{Address: screenAddr(9), SnapshotAgeSeconds: age},
		{Address: screenAddr(1), Listed: true, Kind: "contract", Reason: screen.ReasonContract, Family: "Inferno",
			Tainted: true, StaticFlagged: true, SnapshotAgeSeconds: age},
		{Address: screenAddr(2), Listed: true, Kind: "operator", Reason: screen.ReasonOperator, SnapshotAgeSeconds: age},
		{Address: screenAddr(3), Listed: true, Kind: "affiliate", Reason: screen.ReasonAffiliate,
			Family: "Angel <&> Co", SnapshotAgeSeconds: age},
		{Address: screenAddr(4), Listed: true, Kind: "affiliate", Reason: screen.ReasonAffiliate,
			Family: "Pink Drainer é\u2028日", SnapshotAgeSeconds: age},
		{Address: screenAddr(5), Listed: true, Kind: "manual", Reason: "hotlist \"x\"\n",
			Family: "Venom\ufffd\ufffd", SnapshotAgeSeconds: age},
		{Address: screenAddr(0xAB), SnapshotAgeSeconds: age},
	}
	if len(results) != len(wantResults) {
		t.Fatalf("got %d results, want %d", len(results), len(wantResults))
	}
	for i := range wantResults {
		if results[i] != wantResults[i] {
			t.Errorf("result %d = %+v, want %+v", i, results[i], wantResults[i])
		}
	}
}

// TestScreenBatchReusesConnection: sequential daas_screenBatch calls
// large enough to be sent chunked share one keep-alive connection. The
// client must read each response to EOF before closing it, or the
// transport drops the connection and the next call dials again.
func TestScreenBatchReusesConnection(t *testing.T) {
	b := screen.NewBuilder()
	b.Add(screen.Record{Address: screenAddr(1), Kind: screen.KindContract, Reason: screen.ReasonContract})
	eng := screen.NewEngine(nil)
	eng.Swap(b.Build())
	srv := httptest.NewUnstartedServer(&rpc.Server{Screen: eng})
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	client := rpc.NewClient(srv.URL)
	addrs := make([]ethtypes.Address, 1024)
	for i := range addrs {
		addrs[i] = screenAddr(byte(i))
	}
	for i := 0; i < 20; i++ {
		if _, err := client.ScreenBatch(addrs); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("20 sequential ScreenBatch calls opened %d connections, want 1", n)
	}
}
