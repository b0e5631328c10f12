package faults

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"time"
)

// Hostile drives server-side client misbehavior against a listening
// HTTP server: the attack repertoire the serving layer's hardening is
// contracted to survive. Each method speaks raw TCP so the server sees
// exactly the malformed wire traffic, not what a well-behaved HTTP
// client would sanitize. All methods return nil when the server
// handled the abuse the way a hardened server should (cut the
// connection, answered an error, or simply survived); they are
// diagnostics, not assertions.
type Hostile struct {
	// Addr is the server's host:port.
	Addr string
}

// dialTimeout bounds each connection attempt.
const dialTimeout = 2 * time.Second

func (h Hostile) dial() (net.Conn, error) {
	return net.DialTimeout("tcp", h.Addr, dialTimeout)
}

// Slowloris opens a request that claims a large body and trickles one
// byte per interval, never finishing. A hardened server must evict the
// connection at its request deadline instead of letting it camp on an
// admission slot; the call returns once the server hangs up or ctx
// expires (the latter meaning the server never let go — callers treat
// a ctx expiry as the failure signal via ErrHeldOpen).
func (h Hostile) Slowloris(ctx context.Context, interval time.Duration) error {
	conn, err := h.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: 1000000\r\n\r\n"); err != nil {
		return nil // server already slammed the door: fine
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	// A read in the background notices the server hanging up or
	// answering early.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = io.Copy(io.Discard, conn)
	}()
	for {
		select {
		case <-ctx.Done():
			return ErrHeldOpen
		case <-done:
			return nil
		case <-tick.C:
			if _, err := conn.Write([]byte(`{`)); err != nil {
				return nil
			}
		}
	}
}

// ErrHeldOpen reports that the server kept a hostile connection alive
// for the whole attack window instead of evicting it.
var ErrHeldOpen = fmt.Errorf("faults: server held hostile connection open: %w", ErrInjected)

// MidRequestDisconnect sends the first half of a valid request and
// slams the connection shut. The server must drop the partial request
// on the floor (counted, not crashed).
func (h Hostile) MidRequestDisconnect() error {
	conn, err := h.dial()
	if err != nil {
		return err
	}
	body := `{"jsonrpc":"2.0","id":1,"method":"daas_screen","params":["0x0101010101010101010101010101010101010101"]}`
	req := fmt.Sprintf("POST / HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:len(body)/2])
	_, _ = conn.Write([]byte(req))
	return conn.Close()
}

// HungKeepAlive completes one well-formed request, then holds the idle
// keep-alive connection open silently until the server times it out or
// ctx expires. Bounded server-side idle timeouts make this a no-op;
// unbounded ones leak a socket per attacker.
func (h Hostile) HungKeepAlive(ctx context.Context) error {
	conn, err := h.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	body := `{"jsonrpc":"2.0","id":1,"method":"daas_radarStatus","params":[]}`
	if _, err := fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		return nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = io.Copy(io.Discard, conn)
	}()
	select {
	case <-ctx.Done():
		return nil // idle camping is bounded by the server's IdleTimeout, not ours
	case <-done:
		return nil
	}
}

// PostMalformed sends one complete request with the given (typically
// garbage) body and waits briefly for the server's answer. The server
// must respond — an error envelope, a 4xx, anything well-formed — and
// must not hang: a read timeout is reported as ErrHeldOpen.
func (h Hostile) PostMalformed(body []byte) error {
	conn, err := h.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", len(body)); err != nil {
		return nil
	}
	if _, err := conn.Write(body); err != nil {
		return nil
	}
	_ = conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return ErrHeldOpen
		}
		return nil // reset/EOF: the server cut the cord, acceptable
	}
	return nil
}

// MalformedCorpus is the shared set of hostile request bodies:
// truncated envelopes, wrong-typed fields, huge ids, deep nesting,
// oversized batches, and binary garbage. FuzzServeHTTP seeds from the
// same shapes; RunChaos replays them against a live server.
func MalformedCorpus() [][]byte {
	return [][]byte{
		[]byte(``),
		[]byte(`{`),
		[]byte(`null`),
		[]byte(`[]`),
		[]byte(`[{}]`),
		[]byte(`{"jsonrpc":"2.0","id":1,"meth`),
		[]byte(`{"id":"string-id","method":5,"params":"?"}`),
		[]byte(`{"jsonrpc":"2.0","id":99999999999999999999999999999,"method":"eth_blockNumber"}`),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"daas_screenBatch","params":[["not","strings",1]]}`),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"daas_screen","params":["0xzz"]}`),
		[]byte(strings.Repeat(`[`, 2000)),
		[]byte(`[{"jsonrpc":"2.0","id":1,"method":"nope"},{"jsonrpc":"2.0","id":2}]`),
		[]byte("\x00\x01\x02\xff\xfe binary garbage"),
	}
}
