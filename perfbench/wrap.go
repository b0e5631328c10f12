package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/radar"
)

// callStats counts calls into one layer and the time spent inside
// them, summed over goroutines.
type callStats struct {
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (c *callStats) done(start time.Time) {
	c.calls.Add(1)
	c.busy.Add(int64(time.Since(start)))
}

func (c *callStats) load() (calls int64, busy time.Duration) {
	return c.calls.Load(), time.Duration(c.busy.Load())
}

// sourceStats times a chain source and counts the receipts it served,
// the denominator of the pipeline's yield.
type sourceStats struct {
	callStats
	receipts atomic.Int64
}

// timedSource times every call into a core.ChainSource. wrapSource
// adds exactly the optional extensions (ContextSource, BatchSource,
// CodeSource, StorageSource) the wrapped source has, so the program
// takes the same path through a wrapped source as through the bare
// one: a missing Code would turn the static pre-filter off, an added
// BatchSource would turn batching on.
type timedSource struct {
	src core.ChainSource
	st  *sourceStats
}

func (s *timedSource) TransactionsOf(a ethtypes.Address) ([]ethtypes.Hash, error) {
	defer s.st.done(time.Now())
	return s.src.TransactionsOf(a)
}

func (s *timedSource) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	defer s.st.done(time.Now())
	return s.src.Transaction(h)
}

func (s *timedSource) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	defer s.st.done(time.Now())
	s.st.receipts.Add(1)
	return s.src.Receipt(h)
}

func (s *timedSource) IsContract(a ethtypes.Address) (bool, error) {
	defer s.st.done(time.Now())
	return s.src.IsContract(a)
}

type timedContext struct{ s *timedSource }

func (t timedContext) TransactionContext(ctx context.Context, h ethtypes.Hash) (*chain.Transaction, error) {
	defer t.s.st.done(time.Now())
	return t.s.src.(core.ContextSource).TransactionContext(ctx, h)
}

func (t timedContext) ReceiptContext(ctx context.Context, h ethtypes.Hash) (*chain.Receipt, error) {
	defer t.s.st.done(time.Now())
	t.s.st.receipts.Add(1)
	return t.s.src.(core.ContextSource).ReceiptContext(ctx, h)
}

type timedBatch struct{ s *timedSource }

func (t timedBatch) BatchTransactions(hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	defer t.s.st.done(time.Now())
	return t.s.src.(core.BatchSource).BatchTransactions(hs)
}

func (t timedBatch) BatchReceipts(hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	defer t.s.st.done(time.Now())
	t.s.st.receipts.Add(int64(len(hs)))
	return t.s.src.(core.BatchSource).BatchReceipts(hs)
}

type timedCode struct{ s *timedSource }

func (t timedCode) Code(a ethtypes.Address) ([]byte, error) {
	defer t.s.st.done(time.Now())
	return t.s.src.(core.CodeSource).Code(a)
}

type timedStorage struct{ s *timedSource }

func (t timedStorage) StorageAt(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash {
	defer t.s.st.done(time.Now())
	return t.s.src.(core.StorageSource).StorageAt(a, k)
}

// wrapSource returns src timed into st, with the same optional
// extensions as src.
func wrapSource(src core.ChainSource, st *sourceStats) core.ChainSource {
	s := &timedSource{src: src, st: st}
	x, b, c, g := timedContext{s}, timedBatch{s}, timedCode{s}, timedStorage{s}
	var mask int
	if _, ok := src.(core.ContextSource); ok {
		mask |= 1
	}
	if _, ok := src.(core.BatchSource); ok {
		mask |= 2
	}
	if _, ok := src.(core.CodeSource); ok {
		mask |= 4
	}
	if _, ok := src.(core.StorageSource); ok {
		mask |= 8
	}
	switch mask {
	case 1:
		return struct {
			*timedSource
			timedContext
		}{s, x}
	case 2:
		return struct {
			*timedSource
			timedBatch
		}{s, b}
	case 3:
		return struct {
			*timedSource
			timedContext
			timedBatch
		}{s, x, b}
	case 4:
		return struct {
			*timedSource
			timedCode
		}{s, c}
	case 5:
		return struct {
			*timedSource
			timedContext
			timedCode
		}{s, x, c}
	case 6:
		return struct {
			*timedSource
			timedBatch
			timedCode
		}{s, b, c}
	case 7:
		return struct {
			*timedSource
			timedContext
			timedBatch
			timedCode
		}{s, x, b, c}
	case 8:
		return struct {
			*timedSource
			timedStorage
		}{s, g}
	case 9:
		return struct {
			*timedSource
			timedContext
			timedStorage
		}{s, x, g}
	case 10:
		return struct {
			*timedSource
			timedBatch
			timedStorage
		}{s, b, g}
	case 11:
		return struct {
			*timedSource
			timedContext
			timedBatch
			timedStorage
		}{s, x, b, g}
	case 12:
		return struct {
			*timedSource
			timedCode
			timedStorage
		}{s, c, g}
	case 13:
		return struct {
			*timedSource
			timedContext
			timedCode
			timedStorage
		}{s, x, c, g}
	case 14:
		return struct {
			*timedSource
			timedBatch
			timedCode
			timedStorage
		}{s, b, c, g}
	case 15:
		return struct {
			*timedSource
			timedContext
			timedBatch
			timedCode
			timedStorage
		}{s, x, b, c, g}
	}
	return s
}

// timedBlocks times every call into a radar.BlockSource, which has no
// optional extensions.
type timedBlocks struct {
	src radar.BlockSource
	st  *callStats
}

func (b timedBlocks) Head() (uint64, error) {
	defer b.st.done(time.Now())
	return b.src.Head()
}

func (b timedBlocks) BlockRef(n uint64) (radar.BlockRef, error) {
	defer b.st.done(time.Now())
	return b.src.BlockRef(n)
}

// httpStats times HTTP exchanges from the request until the last byte
// of the response, and counts the bytes each way.
type httpStats struct {
	callStats
	reqBytes, respBytes atomic.Int64
}

// workerHeader tags a traced request with the sending worker's index,
// so the server-side timer can hand its reading back to that worker.
const workerHeader = "X-Perfbench-Worker"

// timedTransport is an http.RoundTripper that times each exchange into
// st. A worker index of -1 sends the request unchanged.
type timedTransport struct {
	next   http.RoundTripper
	st     *httpStats
	worker int
	// last is the duration of the latest finished exchange, for a
	// caller that issues one request at a time.
	last atomic.Int64

	// When tr is set, each exchange is also recorded as a span named
	// name under span parent of op op.
	tr         *tracer
	name       string
	parent, op int
}

func newTimedTransport(next http.RoundTripper, st *httpStats, worker int) *timedTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	return &timedTransport{next: next, st: st, worker: worker}
}

// RoundTrip sends the request and reads the whole response body before
// returning it from memory, so the exchange's time ends with its last
// byte and not when the caller has finished decoding it.
func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.worker >= 0 {
		req = req.Clone(req.Context())
		req.Header.Set(workerHeader, strconv.Itoa(t.worker))
	}
	if req.ContentLength > 0 {
		t.st.reqBytes.Add(req.ContentLength)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		t.st.respBytes.Add(int64(len(body)))
	}
	d := time.Since(start)
	t.st.calls.Add(1)
	t.st.busy.Add(int64(d))
	t.last.Store(int64(d))
	t.tr.add(t.parent, t.op, t.name, "", start, d)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// CloseIdleConnections forwards to the wrapped transport, which
// http.Client.CloseIdleConnections would otherwise not reach.
func (t *timedTransport) CloseIdleConnections() {
	if c, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// timedHandler is an http.Handler that times each request the wrapped
// handler serves tagged by a timedTransport, and leaves the duration in
// that worker's slot.
type timedHandler struct {
	next  http.Handler
	slots []atomic.Int64 // nanoseconds; -1 while empty
}

func newTimedHandler(next http.Handler, workers int) *timedHandler {
	h := &timedHandler{next: next, slots: make([]atomic.Int64, workers)}
	for i := range h.slots {
		h.slots[i].Store(-1)
	}
	return h
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	if i, err := strconv.Atoi(r.Header.Get(workerHeader)); err == nil && i >= 0 && i < len(h.slots) {
		h.slots[i].Store(int64(d))
	}
}

// take returns and clears worker i's latest server time. The handler
// stores it just before the server flushes the response's last bytes,
// so a worker that has read the whole response waits at most briefly.
func (h *timedHandler) take(i int) (time.Duration, bool) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for {
		if d := h.slots[i].Swap(-1); d >= 0 {
			return time.Duration(d), true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(20 * time.Microsecond)
	}
}
