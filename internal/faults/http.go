package faults

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"syscall"
)

// timeoutError satisfies net.Error with Timeout() == true, matching
// how a real transport deadline surfaces to the classifier.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faults: injected timeout (deadline exceeded)" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// Unwrap lets errors.Is(err, ErrInjected) see through.
func (timeoutError) Unwrap() error { return ErrInjected }

// RoundTripper decorates http.DefaultTransport with the injector: a
// rolled fault either replaces the exchange entirely (timeout, reset,
// synthetic 5xx/429) or corrupts it (truncated body). Plug it into the
// Transport of an *http.Client, such as the JSON-RPC client's.
type RoundTripper struct {
	// Inj supplies the fault schedule.
	Inj *Injector
}

// RoundTrip implements http.RoundTripper.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, fatal, ok := rt.Inj.roll()
	if !ok {
		return http.DefaultTransport.RoundTrip(req)
	}
	if fatal {
		// HTTP clients have no fatal-fault consumer; surface the
		// planted fault as a reset (still ErrInjected-rooted).
		kind = KindReset
	}
	switch kind {
	case KindTimeout:
		return nil, timeoutError{}
	case KindStatus5xx:
		return syntheticResponse(req, http.StatusServiceUnavailable), nil
	case KindRateLimit:
		return syntheticResponse(req, http.StatusTooManyRequests), nil
	case KindTruncate:
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatingBody{rc: resp.Body, remain: truncateAt(resp.ContentLength)}
		return resp, nil
	default: // KindReset
		return nil, fmt.Errorf("faults: %w: %w", syscall.ECONNRESET, ErrInjected)
	}
}

// syntheticResponse fabricates a minimal error response for req.
func syntheticResponse(req *http.Request, status int) *http.Response {
	body := "injected " + strconv.Itoa(status)
	return &http.Response{
		Status:        strconv.Itoa(status) + " " + http.StatusText(status),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateAt picks how many body bytes to let through: half the
// declared length, or a small fixed prefix when the length is unknown.
func truncateAt(contentLength int64) int64 {
	if contentLength > 1 {
		return contentLength / 2
	}
	return 64
}

// truncatingBody cuts the stream short and reports the truncation the
// way a dropped connection does: io.ErrUnexpectedEOF.
type truncatingBody struct {
	rc     io.ReadCloser
	remain int64
}

func (t *truncatingBody) Read(p []byte) (int, error) {
	if t.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > t.remain {
		p = p[:t.remain]
	}
	n, err := t.rc.Read(p)
	t.remain -= int64(n)
	if err == io.EOF {
		// The upstream body genuinely ended before the cut: pass EOF.
		return n, err
	}
	if t.remain <= 0 && err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *truncatingBody) Close() error { return t.rc.Close() }
