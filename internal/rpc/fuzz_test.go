package rpc_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/radar"
	"repro/internal/rpc"
	"repro/internal/screen"
)

// fuzzEnvelope is the minimal well-formedness contract every response
// must satisfy: a JSON-RPC 2.0 version tag and either a result or an
// error object.
type fuzzEnvelope struct {
	JSONRPC string          `json:"jsonrpc"`
	Result  json.RawMessage `json:"result"`
	Error   *struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func checkFuzzEnvelope(t *testing.T, e fuzzEnvelope, body []byte) {
	t.Helper()
	if e.JSONRPC != "2.0" {
		t.Fatalf("jsonrpc = %q for input %q", e.JSONRPC, body)
	}
	if e.Error == nil && len(e.Result) == 0 {
		t.Fatalf("response has neither result nor error for input %q", body)
	}
	if e.Error != nil && e.Error.Code == 0 {
		t.Fatalf("error with zero code for input %q", body)
	}
}

// FuzzServeHTTP drives the hardened server with arbitrary bodies —
// truncated JSON, deep nesting, wrong-typed fields, huge ids, giant
// arrays — asserting it never panics and always answers a well-formed
// JSON-RPC envelope (or envelope array) with an expected HTTP status.
func FuzzServeHTTP(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte(``),
		[]byte(`{}`),
		[]byte(`null`),
		[]byte(`true`),
		[]byte(`[`),
		[]byte(`[]`),
		[]byte(`[{}]`),
		[]byte(`[{},{},{}]`),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"daas_screen","params":["0x0101010101010101010101010101010101010101"]}`),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"daas_screenBatch","params":[["not","strings",1]]}`),
		[]byte(`{"jsonrpc":"2.0","id":1,"meth`),
		[]byte(`{"id":"string-id","method":5,"params":"?"}`),
		[]byte(`{"jsonrpc":"2.0","id":99999999999999999999999999999,"method":"eth_blockNumber"}`),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"eth_call","params":["0xzz","0x"]}`),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"daas_radarUpdates","params":[-1,-1]}`),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":[18446744073709551615]}`),
		[]byte(strings.Repeat(`[`, 2000)),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"daas_screen","params":` + strings.Repeat(`[`, 500) + strings.Repeat(`]`, 500) + `}`),
		[]byte(`[{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]},{"jsonrpc":"2.0","id":2,"method":"nope"}]`),
		bytes.Repeat([]byte(`a`), 4096),
	} {
		f.Add(seed)
	}

	b := screen.NewBuilder()
	b.Add(screen.Record{Address: screenAddr(1), Kind: screen.KindContract, Reason: screen.ReasonContract})
	b.AddDomain("drainer.example")
	eng := screen.NewEngine(nil)
	eng.Swap(b.Build())
	srv := &rpc.Server{
		Chain:  world.Chain,
		Labels: world.Labels,
		Screen: eng,
		Radar:  &stubRadar{status: radar.Status{Head: 10, Cursor: 10}},
		Limits: rpc.Limits{MaxBodyBytes: 64 << 10, MaxBatch: 64},
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		res := rec.Result()
		defer res.Body.Close()
		switch res.StatusCode {
		case http.StatusOK, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for input %q", res.StatusCode, body)
		}
		data, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		trimmed := bytes.TrimLeft(data, " \t\r\n")
		if len(trimmed) == 0 {
			t.Fatalf("empty response for input %q", body)
		}
		if trimmed[0] == '[' {
			var envs []fuzzEnvelope
			if err := json.Unmarshal(trimmed, &envs); err != nil {
				t.Fatalf("batch response is not JSON (%v) for input %q", err, body)
			}
			if len(envs) == 0 {
				t.Fatalf("empty batch response for input %q", body)
			}
			for _, e := range envs {
				checkFuzzEnvelope(t, e, body)
			}
			return
		}
		var env fuzzEnvelope
		if err := json.Unmarshal(trimmed, &env); err != nil {
			t.Fatalf("response is not JSON (%v) for input %q", err, body)
		}
		checkFuzzEnvelope(t, env, body)
	})
}
