package rpc_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/ethtypes"
)

// postRaw sends one raw JSON-RPC request body and decodes the envelope.
func postRaw(t *testing.T, url, body string) (json.RawMessage, *struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Result json.RawMessage `json:"result"`
		Error  *struct {
			Code    int    `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Result, out.Error
}

// TestScreenBatchEmptyArray: an empty address array is a valid request
// answered with a flat empty array, not null and not an error.
func TestScreenBatchEmptyArray(t *testing.T) {
	client, done := newScreenServer(t, nil)
	defer done()

	result, rpcErr := postRaw(t, client.URL, `{"jsonrpc":"2.0","id":1,"method":"daas_screenBatch","params":[]}`)
	if rpcErr != nil {
		t.Fatalf("empty batch errored: %+v", rpcErr)
	}
	if string(result) != "[]" {
		t.Errorf("empty batch result = %s, want []", result)
	}
}

// TestScreenBatchDuplicates: repeated addresses each get their own
// verdict slot, in input order, with identical verdicts per occurrence.
func TestScreenBatchDuplicates(t *testing.T) {
	client, done := newScreenServer(t, nil)
	defer done()

	addrs := []ethtypes.Address{screenAddr(1), screenAddr(1), screenAddr(9), screenAddr(2), screenAddr(1)}
	results, err := client.ScreenBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(addrs) {
		t.Fatalf("got %d results for %d addresses", len(results), len(addrs))
	}
	for i, r := range results {
		if r.Address != addrs[i] {
			t.Errorf("result %d address = %s, want %s", i, r.Address, addrs[i])
		}
	}
	if results[0] != results[1] || results[0] != results[4] {
		t.Errorf("duplicate occurrences got different verdicts: %+v / %+v / %+v",
			results[0], results[1], results[4])
	}
	if !results[0].Listed || results[2].Listed || !results[3].Listed {
		t.Errorf("verdicts wrong: %+v", results)
	}
}

// TestScreenBatchOversized: one request past the server cap earns
// invalid-params; exactly at the cap it succeeds.
func TestScreenBatchOversized(t *testing.T) {
	client, done := newScreenServer(t, nil)
	defer done()

	build := func(n int) string {
		var sb strings.Builder
		sb.WriteString(`{"jsonrpc":"2.0","id":1,"method":"daas_screenBatch","params":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `"%s"`, screenAddr(byte(i)).Hex())
		}
		sb.WriteString(`]}`)
		return sb.String()
	}

	if _, rpcErr := postRaw(t, client.URL, build(4096)); rpcErr != nil {
		t.Errorf("batch at the cap errored: %+v", rpcErr)
	}
	_, rpcErr := postRaw(t, client.URL, build(4097))
	if rpcErr == nil {
		t.Fatal("batch of 4097 succeeded, want invalid params")
	}
	if rpcErr.Code != -32602 || !strings.Contains(rpcErr.Message, "4097") {
		t.Errorf("oversized batch error = %+v, want code -32602 naming the size", rpcErr)
	}
}

// TestScreenBatchClientChunks: the client splits a workload past the
// per-request cap into multiple requests and stitches the results back
// in input order.
func TestScreenBatchClientChunks(t *testing.T) {
	client, done := newScreenServer(t, nil)
	defer done()

	n := 4100
	addrs := make([]ethtypes.Address, n)
	for i := range addrs {
		addrs[i] = screenAddr(byte(i % 251))
	}
	results, err := client.ScreenBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results for %d addresses", len(results), n)
	}
	for _, i := range []int{0, 4095, 4096, n - 1} {
		if results[i].Address != addrs[i] {
			t.Errorf("result %d address = %s, want %s (chunk stitching broke order)", i, results[i].Address, addrs[i])
		}
		wantListed := addrs[i] == screenAddr(1) || addrs[i] == screenAddr(2)
		if results[i].Listed != wantListed {
			t.Errorf("result %d listed = %v, want %v", i, results[i].Listed, wantListed)
		}
	}
}

// TestScreenBatchMalformedAddress: a bad address fails the whole batch
// with invalid-params naming the offending index.
func TestScreenBatchMalformedAddress(t *testing.T) {
	client, done := newScreenServer(t, nil)
	defer done()

	body := `{"jsonrpc":"2.0","id":1,"method":"daas_screenBatch","params":["` +
		screenAddr(1).Hex() + `","0xnope"]}`
	_, rpcErr := postRaw(t, client.URL, body)
	if rpcErr == nil {
		t.Fatal("malformed address succeeded")
	}
	if rpcErr.Code != -32602 || !strings.Contains(rpcErr.Message, "address 1") {
		t.Errorf("error = %+v, want code -32602 naming address 1", rpcErr)
	}
}

// TestScreenBatchOrderContract: the wire result is one flat array of
// verdict objects, position i answering input i — mixed listed and
// clean, unsorted.
func TestScreenBatchOrderContract(t *testing.T) {
	client, done := newScreenServer(t, nil)
	defer done()

	addrs := []ethtypes.Address{screenAddr(2), screenAddr(9), screenAddr(1), screenAddr(3)}
	params := make([]string, len(addrs))
	for i, a := range addrs {
		params[i] = a.Hex()
	}
	body, _ := json.Marshal(map[string]any{
		"jsonrpc": "2.0", "id": 1, "method": "daas_screenBatch", "params": params,
	})
	result, rpcErr := postRaw(t, client.URL, string(body))
	if rpcErr != nil {
		t.Fatal(rpcErr)
	}
	var flat []struct {
		Address string `json:"address"`
		Listed  bool   `json:"listed"`
	}
	if err := json.Unmarshal(result, &flat); err != nil {
		t.Fatalf("result is not a flat verdict array: %v (%s)", err, result)
	}
	wantListed := []bool{true, false, true, false}
	for i := range addrs {
		if !strings.EqualFold(flat[i].Address, addrs[i].Hex()) {
			t.Errorf("verdict %d address = %s, want %s", i, flat[i].Address, addrs[i].Hex())
		}
		if flat[i].Listed != wantListed[i] {
			t.Errorf("verdict %d listed = %v, want %v", i, flat[i].Listed, wantListed[i])
		}
	}
}

// TestNilChainServerErrors: every chain-backed method on a
// screening-only server (nil Chain) answers with a clean internal
// error instead of a nil-pointer crash.
func TestNilChainServerErrors(t *testing.T) {
	client, done := newScreenServer(t, nil)
	defer done()

	calls := map[string]string{
		"eth_blockNumber":          `[]`,
		"eth_getBlockByNumber":     `[0]`,
		"eth_getTransactionByHash": `["0x` + strings.Repeat("11", 32) + `"]`,
		"repro_getReceipt":         `["0x` + strings.Repeat("11", 32) + `"]`,
		"eth_getBalance":           `["` + screenAddr(1).Hex() + `"]`,
		"eth_getCode":              `["` + screenAddr(1).Hex() + `"]`,
		"eth_call":                 `["` + screenAddr(1).Hex() + `","0x"]`,
		"repro_getStorageAt":       `["` + screenAddr(1).Hex() + `","0x` + strings.Repeat("00", 32) + `"]`,
		"repro_isContract":         `["` + screenAddr(1).Hex() + `"]`,
		"repro_transactionsOf":     `["` + screenAddr(1).Hex() + `"]`,
	}
	for method, params := range calls {
		body := `{"jsonrpc":"2.0","id":1,"method":"` + method + `","params":` + params + `}`
		_, rpcErr := postRaw(t, client.URL, body)
		if rpcErr == nil {
			t.Errorf("%s succeeded on a chainless server", method)
			continue
		}
		if rpcErr.Code != -32603 || !strings.Contains(rpcErr.Message, "needs a chain backend") {
			t.Errorf("%s error = %+v, want internal error naming the missing backend", method, rpcErr)
		}
	}

	// repro_labels and the daas_* methods stay serviceable without a
	// chain.
	if _, rpcErr := postRaw(t, client.URL, `{"jsonrpc":"2.0","id":1,"method":"repro_labels","params":[]}`); rpcErr != nil {
		t.Errorf("repro_labels errored on a chainless server: %+v", rpcErr)
	}
	if _, err := client.Screen(screenAddr(1)); err != nil {
		t.Errorf("daas_screen errored on a chainless server: %v", err)
	}
}
