package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/screen"
)

// Server serves a chain (and optionally a label directory) over
// JSON-RPC 2.0. It implements http.Handler; mount it wherever.
type Server struct {
	// Chain backs the eth_*/repro_* methods; nil (a screening-only
	// server) answers them with an error instead of crashing.
	Chain  *chain.Chain
	Labels *labels.Directory
	// Screen, when set, serves the daas_screen* methods off the engine's
	// current snapshot.
	Screen *screen.Engine
	// Radar, when set, serves the daas_radar* methods off the live
	// detection daemon.
	Radar RadarBackend
	// Metrics, when set, records server-side per-method request counts,
	// errors, and latency (daas_rpc_server_* metric names).
	Metrics *obs.Registry
	// Limits bounds body size, batch length, concurrency, and request
	// deadlines; the zero value applies production defaults.
	Limits Limits

	metricsOnce sync.Once
	sm          serverMetrics

	// gate is the admission semaphore, sized lazily from Limits on the
	// first request.
	gateOnce sync.Once
	gate     chan struct{}
}

// serverMetrics caches the server's instruments; all nil (no-op) when
// Metrics is unset.
type serverMetrics struct {
	requests    *obs.CounterVec
	errors      *obs.CounterVec
	latency     *obs.HistogramVec
	panics      *obs.Counter
	shed        *obs.Counter
	writeErrors *obs.Counter
	inflight    *obs.Gauge
}

var noopServerMetrics serverMetrics

func (s *Server) metrics() *serverMetrics {
	if s.Metrics == nil {
		return &noopServerMetrics
	}
	s.metricsOnce.Do(func() {
		s.sm = serverMetrics{
			requests:    s.Metrics.CounterVec("daas_rpc_server_requests_total", "JSON-RPC requests served by method", "method"),
			errors:      s.Metrics.CounterVec("daas_rpc_server_request_errors_total", "JSON-RPC requests answered with an error by method", "method"),
			latency:     s.Metrics.HistogramVec("daas_rpc_server_request_duration_seconds", "server-side request handling latency by method", obs.DefDurationBuckets, "method"),
			panics:      s.Metrics.Counter("daas_rpc_server_panics_total", "handler panics recovered into codeInternal responses"),
			shed:        s.Metrics.Counter("daas_rpc_server_shed_total", "requests shed by the admission gate with codeOverloaded"),
			writeErrors: s.Metrics.Counter("daas_rpc_server_write_errors_total", "responses dropped because the client connection failed mid-write"),
			inflight:    s.Metrics.Gauge("daas_rpc_server_inflight", "requests currently admitted and being handled"),
		}
	})
	return &s.sm
}

// knownMethods bounds the method label cardinality: requests for
// anything else are counted under "unknown" so a garbage-spraying
// client cannot grow the registry without limit.
var knownMethods = map[string]bool{
	"eth_blockNumber": true, "eth_getBlockByNumber": true,
	"eth_getTransactionByHash": true, "repro_getReceipt": true,
	"eth_getBalance": true, "eth_getCode": true, "eth_call": true,
	"repro_getStorageAt": true, "repro_isContract": true,
	"repro_transactionsOf": true, "repro_getLogs": true,
	"repro_labels": true, "daas_screen": true,
	"daas_screenBatch": true, "daas_screenDomain": true,
	"daas_radarStatus": true, "daas_radarUpdates": true,
}

// maxScreenBatch caps one daas_screenBatch request. Anything larger is
// rejected with invalid-params instead of tying up the handler; the
// client splits oversized workloads into multiple requests.
const maxScreenBatch = 4096

func metricMethod(m string) string {
	if knownMethods[m] {
		return m
	}
	return "unknown"
}

// NewServer returns a handler for the given chain.
func NewServer(c *chain.Chain, l *labels.Directory) *Server {
	return &Server{Chain: c, Labels: l}
}

// ServeHTTP implements http.Handler. A body whose first token is a
// JSON array is a spec-compliant batch (JSON-RPC 2.0 §6): every
// element is dispatched and the responses come back as an array, in
// request order.
//
// The handler is the overload front door: GET /healthz and /readyz
// bypass the JSON-RPC machinery; everything else passes the admission
// gate (shed with CodeOverloaded + Retry-After when full), a body-size
// cap, per-connection read/write deadlines against slow-loris clients,
// and a per-request context deadline. A panic anywhere in handling is
// recovered into a codeInternal envelope instead of killing the
// connection's serve goroutine.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && (r.URL.Path == "/healthz" || r.URL.Path == "/readyz") {
		s.serveHealth(w, r)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics().panics.Inc()
			s.writeStatusResponse(w, http.StatusInternalServerError, response{
				JSONRPC: "2.0",
				Error:   &rpcError{Code: codeInternal, Message: fmt.Sprintf("internal error: %v", rec)},
			})
		}
	}()

	release, admitted := s.admit()
	if !admitted {
		s.shed(w)
		return
	}
	defer release()

	ctx := r.Context()
	if rt := s.Limits.requestTimeout(); rt > 0 {
		deadline := time.Now().Add(rt)
		// Bound the network reads/writes too: a client trickling its
		// body (slow loris) is evicted at the request deadline instead
		// of holding an admission slot; errors mean the transport does
		// not support per-request deadlines (e.g. test recorders) and
		// the context deadline alone applies.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(deadline)
		_ = rc.SetWriteDeadline(deadline.Add(writeGrace))
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	buf := getBuf()
	defer putBuf(buf)
	body, err := readBody(w, r, s.Limits.maxBodyBytes(), *buf)
	*buf = body
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeStatusResponse(w, http.StatusRequestEntityTooLarge, response{
				JSONRPC: "2.0",
				Error:   &rpcError{Code: codeInvalidRequest, Message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)},
			})
			return
		}
		s.writeResponse(w, response{JSONRPC: "2.0", Error: &rpcError{Code: codeParse, Message: err.Error()}})
		return
	}
	if !s.serveScreenBatch(ctx, w, body) {
		s.serveBody(ctx, w, body)
	}
}

// serveBody answers one request body through encoding/json: a single
// envelope or a JSON array batch.
func (s *Server) serveBody(ctx context.Context, w http.ResponseWriter, body []byte) {
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		s.serveBatch(ctx, w, trimmed)
		return
	}
	var req request
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeResponse(w, response{JSONRPC: "2.0", Error: &rpcError{Code: codeParse, Message: err.Error()}})
		return
	}
	s.writeResponse(w, s.handle(ctx, req))
}

// serveScreenBatch answers a daas_screenBatch body the codec
// recognises (see codec.go) without encoding/json, and reports false,
// having written nothing, for any other body.
func (s *Server) serveScreenBatch(ctx context.Context, w http.ResponseWriter, body []byte) bool {
	if s.Screen == nil {
		return false
	}
	ap := addrPool.Get().(*[]ethtypes.Address)
	defer addrPool.Put(ap)
	id, addrs, ok := scanScreenBatchRequest(body, (*ap)[:0])
	*ap = addrs
	if !ok {
		return false
	}
	rb := getBuf()
	defer putBuf(rb)
	s.writeResponse(w, s.handleWith(ctx, id, "daas_screenBatch", func() (json.RawMessage, *rpcError) {
		var rpcErr *rpcError
		*rb, rpcErr = s.appendScreenBatch(ctx, *rb, addrs)
		if rpcErr != nil {
			return nil, rpcErr
		}
		return *rb, nil
	}))
	return true
}

// appendScreenBatch appends the daas_screenBatch result for addrs: the
// verdict array json.Marshal would write for dispatchScreen's result.
func (s *Server) appendScreenBatch(ctx context.Context, buf []byte, addrs []ethtypes.Address) ([]byte, *rpcError) {
	age := s.snapshotAge()
	buf = append(buf, '[')
	for i, a := range addrs {
		if i%screenCtxStride == 0 && ctx.Err() != nil {
			return buf, deadlineError()
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		rec, listed := s.Screen.Screen(a)
		buf = appendVerdict(buf, a, rec, listed, age)
	}
	return append(buf, ']'), nil
}

// readBody drains one request body under the configured cap (0 = no
// cap) into buf. The MaxBytesReader also arms the server to close the
// connection when the cap trips, so an attacker cannot keep streaming.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	body := r.Body
	if limit > 0 {
		body = http.MaxBytesReader(w, body, limit)
	}
	return readAll(body, buf)
}

// serveBatch answers one JSON array of requests. Per the spec, a batch
// that fails to parse or is empty earns a single error object, not an
// array; one exceeding Limits.MaxBatch is rejected the same way before
// any element is dispatched. Once the request deadline expires, the
// remaining elements are answered with CodeTimeout envelopes rather
// than silently holding the admission slot.
func (s *Server) serveBatch(ctx context.Context, w http.ResponseWriter, body []byte) {
	var reqs []request
	if err := json.Unmarshal(body, &reqs); err != nil {
		s.writeResponse(w, response{JSONRPC: "2.0", Error: &rpcError{Code: codeParse, Message: err.Error()}})
		return
	}
	if len(reqs) == 0 {
		s.writeResponse(w, response{JSONRPC: "2.0", Error: &rpcError{Code: codeInvalidRequest, Message: "empty batch"}})
		return
	}
	if max := s.Limits.maxBatch(); max > 0 && len(reqs) > max {
		s.writeResponse(w, response{JSONRPC: "2.0", Error: &rpcError{
			Code: codeInvalidRequest, Message: fmt.Sprintf("batch of %d exceeds limit %d", len(reqs), max),
		}})
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	b := append(*buf, '[')
	for i, req := range reqs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendResponse(b, s.handle(ctx, req))
	}
	*buf = append(b, ']', '\n')
	s.write(w, http.StatusOK, *buf)
}

// handle dispatches one request into one response envelope. Every
// request — batched or not — is booked against the server-side
// instruments here, so daas_rpc_server_requests_total counts batch
// items individually. A panicking handler yields codeInternal for that
// element only, and an expired context yields CodeTimeout without
// dispatching.
func (s *Server) handle(ctx context.Context, req request) response {
	return s.handleWith(ctx, req.ID, req.Method, func() (json.RawMessage, *rpcError) {
		result, rpcErr := s.dispatch(ctx, req.Method, req.Params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		raw, err := json.Marshal(result)
		if err != nil {
			return nil, &rpcError{Code: codeInternal, Message: err.Error()}
		}
		return raw, nil
	})
}

// handleWith is handle with the dispatch step supplied by the caller:
// answer produces the result bytes (compact and HTML-escaped, as
// json.Marshal writes them) or the error.
func (s *Server) handleWith(ctx context.Context, id int64, method string, answer func() (json.RawMessage, *rpcError)) (resp response) {
	sm := s.metrics()
	label := metricMethod(method)
	sm.requests.With(label).Inc()
	start := time.Now()
	resp = response{JSONRPC: "2.0", ID: id}
	defer func() {
		if rec := recover(); rec != nil {
			sm.panics.Inc()
			resp.Result = nil
			resp.Error = &rpcError{Code: codeInternal, Message: fmt.Sprintf("internal error: %v", rec)}
		}
		sm.latency.With(label).ObserveDuration(time.Since(start))
		if resp.Error != nil {
			sm.errors.With(label).Inc()
		}
	}()
	if ctx.Err() != nil {
		resp.Error = deadlineError()
		return resp
	}
	resp.Result, resp.Error = answer()
	return resp
}

func (s *Server) writeResponse(w http.ResponseWriter, resp response) {
	s.writeStatusResponse(w, http.StatusOK, resp)
}

// writeStatusResponse writes one envelope, as json.Encoder would, with
// the given HTTP status.
func (s *Server) writeStatusResponse(w http.ResponseWriter, status int, resp response) {
	buf := getBuf()
	defer putBuf(buf)
	*buf = append(appendResponse(*buf, resp), '\n')
	s.write(w, status, *buf)
}

// write sends one JSON body with the given HTTP status, counting
// clients that vanished mid-write instead of dropping the error on the
// floor.
func (s *Server) write(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	if _, err := w.Write(body); err != nil {
		s.metrics().writeErrors.Inc()
	}
}

func deadlineError() *rpcError {
	return &rpcError{Code: codeTimeout, Message: "request deadline exceeded"}
}

func (s *Server) dispatch(ctx context.Context, method string, params json.RawMessage) (any, *rpcError) {
	if result, rpcErr, handled := s.dispatchScreen(ctx, method, params); handled {
		return result, rpcErr
	}
	if result, rpcErr, handled := s.dispatchRadar(ctx, method, params); handled {
		return result, rpcErr
	}
	if s.Chain == nil && method != "repro_labels" {
		return nil, &rpcError{Code: codeInternal, Message: "method " + method + " needs a chain backend"}
	}
	switch method {
	case "eth_blockNumber":
		return s.Chain.BlockCount() - 1, nil

	case "eth_getBlockByNumber":
		var args []uint64
		if err := json.Unmarshal(params, &args); err != nil || len(args) != 1 {
			return nil, invalidParams("want [blockNumber]")
		}
		b, err := s.Chain.BlockByNumber(args[0])
		if err != nil {
			return nil, &rpcError{Code: codeInvalidParams, Message: err.Error()}
		}
		out := blockJSON{
			Number:    b.Number,
			Timestamp: b.Timestamp.Unix(),
			Hash:      b.Hash().Hex(),
			Parent:    b.Parent.Hex(),
		}
		for _, h := range b.TxHashes {
			out.TxHashes = append(out.TxHashes, h.Hex())
		}
		return out, nil

	case "eth_getTransactionByHash":
		h, rpcErr := hashParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		tx, err := s.Chain.Transaction(h)
		if err != nil {
			return nil, &rpcError{Code: codeInvalidParams, Message: err.Error()}
		}
		return toTxJSON(tx), nil

	case "repro_getReceipt":
		h, rpcErr := hashParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		r, err := s.Chain.Receipt(h)
		if err != nil {
			return nil, &rpcError{Code: codeInvalidParams, Message: err.Error()}
		}
		return toReceiptJSON(r), nil

	case "eth_getBalance":
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		return s.Chain.BalanceOf(a).String(), nil

	case "eth_getCode":
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		return fmt.Sprintf("0x%x", s.Chain.CodeAt(a)), nil

	case "eth_call":
		var args []string
		if err := json.Unmarshal(params, &args); err != nil || len(args) != 2 {
			return nil, invalidParams("want [to, data]")
		}
		to, err := ethtypes.HexToAddress(args[0])
		if err != nil {
			return nil, invalidParams(err.Error())
		}
		raw, err := decodeHexBlob(args[1])
		if err != nil {
			return nil, invalidParams(err.Error())
		}
		ret, err := s.Chain.StaticCall(to, raw)
		if err != nil {
			return nil, &rpcError{Code: codeInternal, Message: err.Error()}
		}
		return fmt.Sprintf("0x%x", ret), nil

	case "repro_getStorageAt":
		var args []string
		if err := json.Unmarshal(params, &args); err != nil || len(args) != 2 {
			return nil, invalidParams("want [address, key]")
		}
		a, err := ethtypes.HexToAddress(args[0])
		if err != nil {
			return nil, invalidParams(err.Error())
		}
		k, err := ethtypes.HexToHash(args[1])
		if err != nil {
			return nil, invalidParams(err.Error())
		}
		v := s.Chain.StorageAt(a, k)
		return v.Hex(), nil

	case "repro_isContract":
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		return s.Chain.IsContract(a), nil

	case "repro_transactionsOf":
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		hashes := s.Chain.TransactionsOf(a)
		out := make([]string, len(hashes))
		for i, h := range hashes {
			out[i] = h.Hex()
		}
		return out, nil

	case "repro_getLogs":
		var args struct {
			FromBlock uint64 `json:"fromBlock"`
			ToBlock   uint64 `json:"toBlock"`
			Address   string `json:"address,omitempty"`
			Topic0    string `json:"topic0,omitempty"`
		}
		if err := json.Unmarshal(params, &args); err != nil {
			return nil, invalidParams(err.Error())
		}
		var addrFilter *ethtypes.Address
		if args.Address != "" {
			a, err := ethtypes.HexToAddress(args.Address)
			if err != nil {
				return nil, invalidParams(err.Error())
			}
			addrFilter = &a
		}
		var topicFilter *ethtypes.Hash
		if args.Topic0 != "" {
			t, err := ethtypes.HexToHash(args.Topic0)
			if err != nil {
				return nil, invalidParams(err.Error())
			}
			topicFilter = &t
		}
		entries := s.Chain.FilterLogs(args.FromBlock, args.ToBlock, addrFilter, topicFilter)
		out := make([]logEntryJSON, 0, len(entries))
		for _, e := range entries {
			lj := logJSON{Address: e.Address.Hex(), Data: fmt.Sprintf("0x%x", e.Data)}
			for _, tp := range e.Topics {
				lj.Topics = append(lj.Topics, tp.Hex())
			}
			out = append(out, logEntryJSON{
				Log: lj, TxHash: e.TxHash.Hex(), BlockNumber: e.BlockNumber, Timestamp: e.Timestamp.Unix(),
			})
		}
		return out, nil

	case "repro_labels":
		if s.Labels == nil {
			return []labelJSON{}, nil
		}
		var out []labelJSON
		for _, src := range labels.AllSources {
			for _, addr := range s.Labels.PhishingReports(src) {
				for _, l := range s.Labels.Of(addr) {
					if l.Source == src {
						out = append(out, toLabelJSON(l))
					}
				}
			}
		}
		return out, nil

	default:
		return nil, &rpcError{Code: codeMethodNotFound, Message: "unknown method " + method}
	}
}

// screenCtxStride is how many daas_screenBatch lookups run between
// context-deadline checks: cheap enough to keep the hot loop tight,
// frequent enough that an expired request releases its admission slot
// promptly.
const screenCtxStride = 256

// dispatchScreen answers the daas_screen* methods off the screening
// engine's current snapshot; handled is false for every other method.
// daas_screenBatch takes a flat address array in one request — the
// high-throughput path — while single daas_screen requests also ride
// the generic JSON-RPC array-batch transport.
func (s *Server) dispatchScreen(ctx context.Context, method string, params json.RawMessage) (any, *rpcError, bool) {
	switch method {
	case "daas_screen":
		if s.Screen == nil {
			return nil, screenUnavailable(), true
		}
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return nil, rpcErr, true
		}
		return s.screenOne(a, s.snapshotAge()), nil, true

	case "daas_screenBatch":
		if s.Screen == nil {
			return nil, screenUnavailable(), true
		}
		var args []string
		if err := json.Unmarshal(params, &args); err != nil {
			return nil, invalidParams("want [address, ...]"), true
		}
		if len(args) > maxScreenBatch {
			return nil, invalidParams(fmt.Sprintf("batch of %d exceeds limit %d", len(args), maxScreenBatch)), true
		}
		age := s.snapshotAge()
		out := make([]screenResultJSON, len(args))
		for i, raw := range args {
			if i%screenCtxStride == 0 && ctx.Err() != nil {
				return nil, deadlineError(), true
			}
			a, err := ethtypes.HexToAddress(raw)
			if err != nil {
				return nil, invalidParams(fmt.Sprintf("address %d: %s", i, err)), true
			}
			out[i] = s.screenOne(a, age)
		}
		return out, nil, true

	case "daas_screenDomain":
		if s.Screen == nil {
			return nil, screenUnavailable(), true
		}
		var args []string
		if err := json.Unmarshal(params, &args); err != nil || len(args) != 1 {
			return nil, invalidParams("want [domain]"), true
		}
		return s.Screen.ScreenDomain(args[0]), nil, true
	}
	return nil, nil, false
}

// snapshotAge is the whole seconds since the engine's snapshot was
// last confirmed fresh, stamped into every screening verdict. A
// healthy upstream keeps it at 0 (sub-second freshness rounds down),
// so the field only appears on the wire while serving degraded.
func (s *Server) snapshotAge() uint64 {
	age := s.Screen.Age()
	if age <= 0 {
		return 0
	}
	return uint64(age / time.Second)
}

// screenOne books one engine lookup into the wire DTO.
func (s *Server) screenOne(a ethtypes.Address, age uint64) screenResultJSON {
	rec, ok := s.Screen.Screen(a)
	out := screenResultJSON{Address: a.Hex(), Listed: ok, SnapshotAge: age}
	if ok {
		out.Kind = rec.Kind.String()
		out.Reason = rec.Reason
		out.Family = rec.Family
		out.Tainted = rec.Tainted
		out.StaticFlagged = rec.StaticFlagged
	}
	return out
}

func screenUnavailable() *rpcError {
	return &rpcError{Code: codeInternal, Message: "screening unavailable: no engine configured"}
}

func invalidParams(msg string) *rpcError {
	return &rpcError{Code: codeInvalidParams, Message: msg}
}

func hashParam(params json.RawMessage) (ethtypes.Hash, *rpcError) {
	var args []string
	if err := json.Unmarshal(params, &args); err != nil || len(args) != 1 {
		return ethtypes.Hash{}, invalidParams("want [hash]")
	}
	h, err := ethtypes.HexToHash(args[0])
	if err != nil {
		return ethtypes.Hash{}, invalidParams(err.Error())
	}
	return h, nil
}

func addressParam(params json.RawMessage) (ethtypes.Address, *rpcError) {
	var args []string
	if err := json.Unmarshal(params, &args); err != nil || len(args) != 1 {
		return ethtypes.Address{}, invalidParams("want [address]")
	}
	a, err := ethtypes.HexToAddress(args[0])
	if err != nil {
		return ethtypes.Address{}, invalidParams(err.Error())
	}
	return a, nil
}
