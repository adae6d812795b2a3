package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// client is the benchmark's side of the wire: devices posting keyed report
// frames and analysts posting queries, all to the router. Its transport
// holds at most maxConns connections, one per client goroutine.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	url   string
	rec   *recorder
	reqNo atomic.Int64
}

func newClient(url string, maxConns int, rec *recorder) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = maxConns
	tr.MaxIdleConnsPerHost = maxConns
	return &client{hc: &http.Client{Transport: tr}, tr: tr, url: url, rec: rec}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// Client retry policy: a transient failure (transport error, 5xx) is
// retried under the same idempotency key, so a retry can never absorb twice.
const (
	maxAttempts  = 4
	retryBackoff = 5 * time.Millisecond
)

// newRequest builds a POST to path; with tracing on it carries a
// benchmark-minted request id so the spans of every tier can be joined.
func (c *client) newRequest(ctx context.Context, path string, body []byte) (*http.Request, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var id string
	if c.rec.on.Load() {
		id = "pb-" + strconv.FormatInt(c.reqNo.Add(1), 10)
		req.Header.Set(requestIDHeader, id)
	}
	return req, id, nil
}

// postReports delivers one keyed frame, retrying transient failures. It
// returns nil once the router acknowledged the frame.
func (c *client) postReports(ctx context.Context, body []byte, key string) error {
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retryBackoff << (attempt - 1))
		}
		var retry bool
		if retry, err = c.postReportsOnce(ctx, body, key); err == nil || !retry {
			return err
		}
	}
	return err
}

func (c *client) postReportsOnce(ctx context.Context, body []byte, key string) (retry bool, err error) {
	req, id, err := c.newRequest(ctx, "/reports", body)
	if err != nil {
		return false, err
	}
	req.Header.Set(transport.IdempotencyKeyHeader, key)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.rec.record("client.reports", id, "", start, time.Now())
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode >= 500, fmt.Errorf("POST /reports: %s", resp.Status)
	}
	return cerr != nil, cerr
}

// query posts one pre-encoded query frame and passes every decoded result
// row to fn. It returns the result header.
func (c *client) query(ctx context.Context, body []byte, fn func(transport.QueryRow) bool) (transport.QueryResultInfo, error) {
	var info transport.QueryResultInfo
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retryBackoff << (attempt - 1))
		}
		var retry bool
		if info, retry, err = c.queryOnce(ctx, body, fn); err == nil || !retry {
			return info, err
		}
	}
	return info, err
}

func (c *client) queryOnce(ctx context.Context, body []byte, fn func(transport.QueryRow) bool) (transport.QueryResultInfo, bool, error) {
	req, id, err := c.newRequest(ctx, "/query", body)
	if err != nil {
		return transport.QueryResultInfo{}, false, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return transport.QueryResultInfo{}, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status is the error
		return transport.QueryResultInfo{}, resp.StatusCode >= 500, fmt.Errorf("POST /query: %s", resp.Status)
	}
	info, err := transport.DecodeQueryResult(resp.Body, fn)
	c.rec.record("client.query", id, "", start, time.Now())
	return info, false, err
}

// get fetches url and returns the body and headers, failing on a non-200.
func get(ctx context.Context, hc *http.Client, url string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, resp.Header, nil
}
