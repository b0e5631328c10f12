package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/ethtypes"
	"repro/internal/screen"
)

// The daas_screenBatch codec. A wallet's pre-signing check is one
// daas_screenBatch round trip, and encoding/json's reflection costs
// about twenty times the snapshot lookups the batch carries. This file
// scans and appends the one envelope shape that rpc.Client and
// encoding/json emit for that method, on both ends of the wire. Every
// byte the scanners accept is validated; anything else (other key
// orders, extra keys, escapes, non-canonical numbers, nulls, oversized
// batches) is left to the encoding/json path, so malformed input keeps
// its error codes and messages. The bytes written are exactly what
// encoding/json writes; FuzzScreenBatchCodec pins the two paths as
// equal.

// maxPooledBuf is the largest buffer put back into bufPool; a rare
// giant request must not pin its buffer for the process lifetime.
const maxPooledBuf = 1 << 20

// bufPool holds the scratch byte buffers of the codec and the response
// writer; addrPool holds the server's scanned address slices.
var (
	bufPool  = sync.Pool{New: func() any { return new([]byte) }}
	addrPool = sync.Pool{New: func() any { return new([]ethtypes.Address) }}
)

func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// readAll is io.ReadAll appending to buf.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	b := bytes.NewBuffer(buf)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// appendString appends s as a JSON string the way encoding/json writes
// it. Plain printable ASCII free of `"\<>&` is copied; anything else
// (HTML-special characters, control bytes, non-ASCII, invalid UTF-8)
// goes through json.Marshal for its escaping rules.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendResponse appends one envelope as json.Encoder writes it, less
// the trailing newline. Result is copied verbatim: every producer
// (json.Marshal, appendScreenBatch) already writes it compact and
// HTML-escaped, which is all the encoder's re-compaction would do.
func appendResponse(buf []byte, resp response) []byte {
	buf = append(buf, `{"jsonrpc":`...)
	buf = appendString(buf, resp.JSONRPC)
	buf = append(buf, `,"id":`...)
	buf = strconv.AppendInt(buf, resp.ID, 10)
	if len(resp.Result) > 0 {
		buf = append(buf, `,"result":`...)
		buf = append(buf, resp.Result...)
	}
	if resp.Error != nil {
		e, _ := json.Marshal(resp.Error)
		buf = append(buf, `,"error":`...)
		buf = append(buf, e...)
	}
	return append(buf, '}')
}

// appendVerdict appends one screenResultJSON as json.Marshal writes it.
func appendVerdict(buf []byte, a ethtypes.Address, rec screen.Record, listed bool, age uint64) []byte {
	buf = append(buf, `{"address":"0x`...)
	buf = hex.AppendEncode(buf, a[:])
	if !listed {
		buf = append(buf, `","listed":false`...)
	} else {
		buf = append(buf, `","listed":true,"kind":`...)
		buf = appendString(buf, rec.Kind.String())
		if rec.Reason != "" {
			buf = appendString(append(buf, `,"reason":`...), rec.Reason)
		}
		if rec.Family != "" {
			buf = appendString(append(buf, `,"family":`...), rec.Family)
		}
		if rec.Tainted {
			buf = append(buf, `,"tainted":true`...)
		}
		if rec.StaticFlagged {
			buf = append(buf, `,"staticFlagged":true`...)
		}
	}
	if age > 0 {
		buf = strconv.AppendUint(append(buf, `,"snapshotAge":`...), age, 10)
	}
	return append(buf, '}')
}

// appendScreenBatchRequest returns the daas_screenBatch request body
// json.Marshal writes, in a buffer of exactly its size.
func appendScreenBatchRequest(id int64, addrs []ethtypes.Address) []byte {
	const head, mid = `{"jsonrpc":"2.0","id":`, `,"method":"daas_screenBatch","params":[`
	var idBuf [20]byte
	idText := strconv.AppendInt(idBuf[:0], id, 10)
	// Each address is `"0x…",` (45 bytes) bar the last comma; "]}" ends it.
	size := len(head) + len(idText) + len(mid) + len(addrs)*45 + 1
	if len(addrs) == 0 {
		size++
	}
	buf := make([]byte, 0, size)
	buf = append(buf, head...)
	buf = append(buf, idText...)
	buf = append(buf, mid...)
	for i, a := range addrs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `"0x`...)
		buf = hex.AppendEncode(buf, a[:])
		buf = append(buf, '"')
	}
	return append(buf, "]}"...)
}

// scanner walks a JSON text the codec recognises. Each method skips
// insignificant whitespace first and reports whether the input
// continued as expected; the caller falls back on the first false.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the literal token l.
func (s *scanner) lit(l string) bool {
	s.ws()
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// key consumes `"k":`.
func (s *scanner) key(k string) bool {
	s.ws()
	end := s.i + len(k) + 2
	if end > len(s.b) || s.b[s.i] != '"' || string(s.b[s.i+1:end-1]) != k || s.b[end-1] != '"' {
		return false
	}
	s.i = end
	return s.lit(":")
}

// digits consumes a JSON integer literal without sign: 0, or a
// non-zero digit followed by digits.
func (s *scanner) digits() ([]byte, bool) {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
		return s.b[start:s.i], true
	}
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.b[start:s.i], s.i > start
}

// int64 consumes an integer that fits an int64.
func (s *scanner) int64() (int64, bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if _, ok := s.digits(); !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(s.b[start:s.i]), 10, 64)
	return v, err == nil
}

// uint64 consumes a non-negative integer that fits a uint64.
func (s *scanner) uint64() (uint64, bool) {
	s.ws()
	d, ok := s.digits()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(d), 10, 64)
	return v, err == nil
}

// address consumes `"0x<40 hex digits>"`.
func (s *scanner) address(a *ethtypes.Address) bool {
	s.ws()
	const n = 2*ethtypes.AddressLength + 4
	if len(s.b)-s.i < n || s.b[s.i] != '"' || s.b[s.i+1] != '0' || s.b[s.i+2] != 'x' || s.b[s.i+n-1] != '"' {
		return false
	}
	if _, err := hex.Decode(a[:], s.b[s.i+3:s.i+n-1]); err != nil {
		return false
	}
	s.i += n
	return true
}

// internTable holds the strings a verdict's kind and reason take in
// practice; decoding one of them costs no allocation.
var internTable = []string{
	screen.KindContract.String(), screen.KindOperator.String(),
	screen.KindAffiliate.String(), screen.KindManual.String(),
	screen.ReasonContract, screen.ReasonOperator, screen.ReasonAffiliate,
}

func intern(b []byte) string {
	for _, s := range internTable {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// str consumes a JSON string. Plain printable ASCII is taken as is;
// a string with escapes or other bytes is decoded by encoding/json.
func (s *scanner) str() (string, bool) {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return "", false
	}
	plain := true
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			tok := s.b[s.i : j+1]
			s.i = j + 1
			if plain {
				return intern(tok[1 : len(tok)-1]), true
			}
			var v string
			return v, json.Unmarshal(tok, &v) == nil
		case c == '\\':
			plain = false
			j++
		case c < 0x20 || c > 0x7e:
			plain = false
		}
	}
	return "", false
}

// scanScreenBatchRequest recognises
//
//	{"jsonrpc":"2.0","id":<int64>,"method":"daas_screenBatch","params":["0x<40 hex>",…]}
//
// with insignificant whitespace and at most maxScreenBatch addresses,
// appending the addresses to addrs. ok is false for any other body.
func scanScreenBatchRequest(body []byte, addrs []ethtypes.Address) (id int64, _ []ethtypes.Address, ok bool) {
	s := scanner{b: body}
	if !s.lit("{") || !s.key("jsonrpc") || !s.lit(`"2.0"`) || !s.lit(",") || !s.key("id") {
		return 0, addrs, false
	}
	if id, ok = s.int64(); !ok {
		return 0, addrs, false
	}
	if !s.lit(",") || !s.key("method") || !s.lit(`"daas_screenBatch"`) || !s.lit(",") || !s.key("params") || !s.lit("[") {
		return 0, addrs, false
	}
	if !s.lit("]") {
		for {
			if len(addrs) == maxScreenBatch {
				return 0, addrs, false
			}
			var a ethtypes.Address
			if !s.address(&a) {
				return 0, addrs, false
			}
			addrs = append(addrs, a)
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return 0, addrs, false
			}
		}
	}
	if !s.lit("}") {
		return 0, addrs, false
	}
	s.ws()
	return id, addrs, s.i == len(s.b)
}

// verdictFields are a verdict's optional keys in the order
// screenResultJSON declares them.
var verdictFields = [...]string{"kind", "reason", "family", "tainted", "staticFlagged", "snapshotAge"}

// verdict consumes one screenResultJSON object whose keys appear in
// declaration order, address and listed first.
func (s *scanner) verdict() (r ScreenResult, ok bool) {
	if !s.lit("{") || !s.key("address") || !s.address(&r.Address) || !s.lit(",") || !s.key("listed") {
		return r, false
	}
	switch {
	case s.lit("true"):
		r.Listed = true
	case s.lit("false"):
	default:
		return r, false
	}
	next := 0
	for !s.lit("}") {
		if !s.lit(",") {
			return r, false
		}
		k := next
		for k < len(verdictFields) && !s.key(verdictFields[k]) {
			k++
		}
		if k == len(verdictFields) {
			return r, false
		}
		next = k + 1
		switch verdictFields[k] {
		case "kind":
			r.Kind, ok = s.str()
		case "reason":
			r.Reason, ok = s.str()
		case "family":
			r.Family, ok = s.str()
		case "tainted":
			ok = s.lit("true")
			r.Tainted = ok
		case "staticFlagged":
			ok = s.lit("true")
			r.StaticFlagged = ok
		case "snapshotAge":
			r.SnapshotAgeSeconds, ok = s.uint64()
		}
		if !ok {
			return r, false
		}
	}
	return r, true
}

// scanScreenBatchResponse recognises a successful daas_screenBatch
// response carrying exactly n verdicts,
//
//	{"jsonrpc":"2.0","id":<int64>,"result":[<verdict>,…]}
//
// with insignificant whitespace. Like json.Decoder.Decode, it reads
// the first JSON value and ignores what follows it.
func scanScreenBatchResponse(buf []byte, n int) ([]ScreenResult, bool) {
	s := scanner{b: buf}
	if !s.lit("{") || !s.key("jsonrpc") || !s.lit(`"2.0"`) || !s.lit(",") || !s.key("id") {
		return nil, false
	}
	if _, ok := s.int64(); !ok || !s.lit(",") || !s.key("result") || !s.lit("[") {
		return nil, false
	}
	out := make([]ScreenResult, 0, n)
	if !s.lit("]") {
		for {
			if len(out) == n {
				return nil, false
			}
			r, ok := s.verdict()
			if !ok {
				return nil, false
			}
			out = append(out, r)
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return nil, false
			}
		}
	}
	return out, len(out) == n && s.lit("}")
}

// decodeScreenBatch decodes a daas_screenBatch response body of n
// verdicts: through the scanner when it recognises the body, else
// exactly as the generic client path decodes it.
func decodeScreenBatch(body []byte, n int) ([]ScreenResult, error) {
	if out, ok := scanScreenBatchResponse(body, n); ok {
		return out, nil
	}
	return decodeScreenBatchJSON(body, n)
}

// decodeScreenBatchJSON is decodeScreenBatch through encoding/json
// alone.
func decodeScreenBatchJSON(body []byte, n int) ([]ScreenResult, error) {
	var raw []screenResultJSON
	if err := decodeResponse("daas_screenBatch", bytes.NewReader(body), &raw); err != nil {
		return nil, err
	}
	if len(raw) != n {
		return nil, fmt.Errorf("rpc: daas_screenBatch: %d results for %d addresses", len(raw), n)
	}
	out := make([]ScreenResult, len(raw))
	for i, rj := range raw {
		r, err := fromScreenResultJSON(rj)
		if err != nil {
			return nil, fmt.Errorf("rpc: daas_screenBatch item %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}
