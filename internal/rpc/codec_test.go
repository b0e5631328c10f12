package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ethtypes"
	"repro/internal/screen"
)

func codecAddr(b byte) ethtypes.Address {
	var a ethtypes.Address
	for i := range a {
		a[i] = b
	}
	return a
}

// codecEngine serves three listed addresses whose reason and family
// strings are the caller's, stamped age seconds stale.
func codecEngine(reason, family string, age uint16) *screen.Engine {
	b := screen.NewBuilder()
	b.Add(screen.Record{Address: codecAddr(1), Kind: screen.KindContract, Reason: reason, Family: family, Tainted: true})
	b.Add(screen.Record{Address: codecAddr(2), Kind: screen.KindAffiliate, Reason: screen.ReasonAffiliate,
		Family: family, StaticFlagged: true})
	b.Add(screen.Record{Address: codecAddr(3), Kind: screen.KindManual, Reason: reason})
	eng := screen.NewEngine(nil)
	eng.Swap(b.Build())
	// A tenth of a second past the whole age, so the stamp holds for
	// the few microseconds a comparison takes.
	eng.MarkFreshAt(time.Now().Add(-time.Duration(age)*time.Second - 100*time.Millisecond))
	return eng
}

// referenceRequest is the daas_screenBatch body the generic client path
// writes: json.Marshal of the hex params inside the envelope.
func referenceRequest(t *testing.T, id int64, addrs []ethtypes.Address) []byte {
	t.Helper()
	params := make([]string, len(addrs))
	for i, a := range addrs {
		params[i] = a.Hex()
	}
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(request{JSONRPC: "2.0", ID: id, Method: "daas_screenBatch", Params: raw})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestScreenBatchCodecOwnWire: the client's request bytes equal
// encoding/json's in an exactly sized buffer, and both scanners
// recognise what the other end of the codec writes, so the fast path
// is the one taken.
func TestScreenBatchCodecOwnWire(t *testing.T) {
	eng := codecEngine(screen.ReasonContract, "Inferno", 3)
	srv := &Server{Screen: eng}
	for _, id := range []int64{1, -7, math.MaxInt64, math.MinInt64} {
		for _, n := range []int{0, 1, 4, 300} {
			addrs := make([]ethtypes.Address, n)
			for i := range addrs {
				addrs[i] = codecAddr(byte(i))
			}
			body := appendScreenBatchRequest(id, addrs)
			if want := referenceRequest(t, id, addrs); !bytes.Equal(body, want) {
				t.Fatalf("id %d, %d addresses: request\n%s\nwant\n%s", id, n, body, want)
			}
			if len(body) != cap(body) {
				t.Errorf("id %d, %d addresses: request buffer cap %d for %d bytes", id, n, cap(body), len(body))
			}
			gotID, scanned, ok := scanScreenBatchRequest(body, nil)
			if !ok || gotID != id || len(scanned) != n {
				t.Fatalf("id %d, %d addresses: server scanner = %d, %d addresses, %v", id, n, gotID, len(scanned), ok)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
			out, ok := scanScreenBatchResponse(rec.Body.Bytes(), n)
			if !ok {
				t.Fatalf("id %d, %d addresses: client scanner rejected %s", id, n, rec.Body.Bytes())
			}
			for i, r := range out {
				if r.Address != addrs[i] || r.SnapshotAgeSeconds != 3 || r.Listed != (i%256 >= 1 && i%256 <= 3) {
					t.Errorf("verdict %d = %+v", i, r)
				}
			}
		}
	}
}

// TestAppendStringMatchesMarshal: appendString writes every byte value,
// and the runes encoding/json treats specially, exactly as json.Marshal
// does.
func TestAppendStringMatchesMarshal(t *testing.T) {
	var cases []string
	for b := 0; b < 256; b++ {
		cases = append(cases, "a"+string([]byte{byte(b)})+"z")
	}
	cases = append(cases, "", "\u2028", "\u2029", "\ufffd", "é日", "\xff\xfe", "\xe2\x80")
	for _, c := range cases {
		want, _ := json.Marshal(c)
		if got := appendString(nil, c); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", c, got, want)
		}
	}
}

// screenBatchBody builds a request body around params.
func screenBatchBody(params string) []byte {
	return []byte(`{"jsonrpc":"2.0","id":7,"method":"daas_screenBatch","params":` + params + `}`)
}

// FuzzScreenBatchCodec is the differential check of the codec against
// encoding/json. For any request body and any snapshot strings, the
// server's response bytes equal those of the encoding/json path (which
// also means equal error codes and messages). For any response body,
// the client's decoded verdicts equal what encoding/json decodes, or
// both fail with the same error.
func FuzzScreenBatchCodec(f *testing.F) {
	a1, a2, a3, a9 := codecAddr(1).Hex(), codecAddr(2).Hex(), codecAddr(3).Hex(), codecAddr(9).Hex()
	upper := "0x" + strings.Repeat("AB", 20)
	canon := screenBatchBody(`["` + a1 + `","` + a9 + `","` + a2 + `","` + a3 + `"]`)
	bodies := [][]byte{
		canon,
		screenBatchBody(`[]`),
		screenBatchBody(`null`),
		screenBatchBody(`[null]`),
		screenBatchBody(`[["` + a1 + `"]]`),
		screenBatchBody(`["` + upper + `"]`),
		screenBatchBody(`["` + a1[2:] + `"]`),
		screenBatchBody(`["0X` + a1[2:] + `"]`),
		screenBatchBody(`["` + a1 + `","0xnope"]`),
		screenBatchBody(`["` + a1 + `",]`),
		[]byte(" \t{ \"jsonrpc\" : \"2.0\" ,\n\"id\" : -0 , \"method\" :\"daas_screenBatch\", \"params\" : [ \"" + a1 + "\" ,\r\"" + a9 + "\" ] }\n "),
		[]byte(`{"id":7,"jsonrpc":"2.0","method":"daas_screenBatch","params":["` + a1 + `"]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"method":"daas_screenBatch","params":["` + a1 + `"],"extra":1}`),
		[]byte(`{"jsonrpc":"2.0","ID":7,"method":"daas_screenBatch","params":["` + a1 + `"]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"method":"daas_screenBatch","params":["` + a1 + `"]}`),
		[]byte(`{"jsonrpc":"1.0","id":7,"method":"daas_screenBatch","params":["` + a1 + `"]}`),
		[]byte(`{"jsonrpc":"2.0","id":1.0,"method":"daas_screenBatch","params":["` + a1 + `"]}`),
		[]byte(`{"jsonrpc":"2.0","id":1e2,"method":"daas_screenBatch","params":["` + a1 + `"]}`),
		[]byte(`{"jsonrpc":"2.0","id":01,"method":"daas_screenBatch","params":["` + a1 + `"]}`),
		[]byte(`{"jsonrpc":"2.0","id":99999999999999999999,"method":"daas_screenBatch","params":["` + a1 + `"]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"method":"daas_screenBatch","params":["` + a1 + `"]}x`),
		[]byte(`{"jsonrpc":"2.0","id":7,"method":"daas_screenBatch","params":["` + a1 + `"]`),
		[]byte(`{"jsonrpc":"2.0","id":7,"method":"daas_screen","params":["` + a1 + `"]}`),
		[]byte(`[{"jsonrpc":"2.0","id":7,"method":"daas_screenBatch","params":["` + a1 + `"]}]`),
		// Response shapes, for the client side.
		[]byte(`{"jsonrpc":"2.0","id":7,"result":[{"address":"` + a1 + `","listed":true,"kind":"contract","reason":"r","family":"<&>","tainted":true,"staticFlagged":true,"snapshotAge":5}]}` + "\n"),
		[]byte(`{"jsonrpc":"2.0","id":7,"result":[{"address":"` + a1 + `","listed":false},{"address":"` + upper + `","listed":false}]}trailing`),
		[]byte(`{"jsonrpc":"2.0","id":7,"result":[{"address":"` + a1 + `","listed":true,"tainted":false,"kind":"x"}]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"result":[{"listed":true,"address":"` + a1 + `"}]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"result":[{"address":"` + a1 + `","listed":true,"kind":"x","tainted":false}]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"result":[{"address":"` + a2 + `","listed":true,"staticFlagged":false}]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"result":[{"address":"` + a1 + `","listed":null,"kind":"x","kind":"y"}]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"result":[{"address":"` + a1 + `","listed":true,"kind":"a\u0000","snapshotAge":0}]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"result":[{"address":"` + a1 + `","listed":true,"family":"é` + "\xff" + `","snapshotAge":18446744073709551616}]}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"result":null}`),
		[]byte(`{"jsonrpc":"2.0","id":7,"error":{"code":-32602,"message":"address 1: bad"}}`),
	}
	strs := []string{"", screen.ReasonContract, "Inferno", "Angel <&> Co", "Tom & Jerry", "é\u2028日", "Venom\xff\xfe", "q\"b\\s", "\x00ctl\x7f"}
	for i, body := range bodies {
		f.Add(body, strs[i%len(strs)], strs[(i+3)%len(strs)], uint16(i%3))
	}

	f.Fuzz(func(t *testing.T, body []byte, reason, family string, age uint16) {
		srv := &Server{Screen: codecEngine(reason, family, age)}
		fast := httptest.NewRecorder()
		srv.ServeHTTP(fast, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
		ref := httptest.NewRecorder()
		srv.serveBody(context.Background(), ref, body)
		if fast.Code != ref.Code || !bytes.Equal(fast.Body.Bytes(), ref.Body.Bytes()) {
			t.Fatalf("request %q: codec answered %d %s\nencoding/json answered %d %s",
				body, fast.Code, fast.Body.Bytes(), ref.Code, ref.Body.Bytes())
		}

		for _, resp := range [][]byte{fast.Body.Bytes(), body} {
			n := 1
			var probe []screenResultJSON
			if decodeResponse("daas_screenBatch", bytes.NewReader(resp), &probe) == nil {
				n = len(probe)
			}
			for _, n := range []int{n, n + 1} {
				got, gotErr := decodeScreenBatch(resp, n)
				want, wantErr := decodeScreenBatchJSON(resp, n)
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("response %q, %d verdicts: codec error %v, encoding/json error %v", resp, n, gotErr, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("response %q: codec decoded %d verdicts, encoding/json %d", resp, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("response %q: verdict %d decoded %+v, encoding/json %+v", resp, i, got[i], want[i])
					}
				}
			}
		}
	})
}
