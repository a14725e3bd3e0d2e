// Package client is the typed HTTP client for the serving layer
// (internal/serve), on the wire types serve declares for both servers;
// an artifact travels as its own schema-v1 envelope bytes, and a
// predict as its request body's bytes. Every call is exactly one
// counted attempt under one timeout: the client never retries and
// keeps no verdict on whether a host is up. The cluster router
// (internal/serve/cluster) fails over to another replica instead, the
// only retry in the serving stack, and reads each outcome through
// StatusCode to keep its own record of replica health.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Client metrics: attempts and failed attempts.
var (
	attemptsTotal = obs.GetCounter("client.attempts")
	failuresTotal = obs.GetCounter("client.failures")
)

// Config tunes the client. The zero value gets sane defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// Timeout bounds each attempt, reading the reply included. Default 5s.
	Timeout time.Duration
}

// Client is a caller of one serving host. Safe for concurrent use.
type Client struct {
	cfg Config
}

// New builds a client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	return &Client{cfg: cfg}
}

// httpStatusError is a reply the caller cannot use: a non-2xx status,
// or a 2xx whose body did not decode.
type httpStatusError struct {
	status int
	msg    string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.status, e.msg)
}

// once is a single HTTP attempt under a context deadline of Timeout,
// its only timeout. priority, when non-empty, is sent as the
// X-Priority header (the router forwards each request's own tier).
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any, priority string) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if priority != "" {
		req.Header.Set("X-Priority", priority)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb serve.ErrorBody
		_ = json.Unmarshal(data, &eb)
		return &httpStatusError{status: resp.StatusCode, msg: eb.Error}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			// The server answered; only its body is unusable.
			return &httpStatusError{status: resp.StatusCode, msg: "decode response: " + err.Error()}
		}
	}
	return nil
}

// Try performs exactly one counted attempt: no retry, no backoff.
// StatusCode reads its outcome.
func (c *Client) Try(ctx context.Context, method, path string, body []byte, out any, priority string) error {
	attemptsTotal.Inc()
	err := c.once(ctx, method, path, body, out, priority)
	if err != nil {
		failuresTotal.Inc()
	}
	return err
}

// TryPredict is a single-attempt POST /predict/{modelName} whose body is
// exactly the bytes the caller passed (a serve.PredictRequest, as JSON),
// with a per-call priority (the tier the router forwards from the
// original request; empty sends no X-Priority header).
func (c *Client) TryPredict(ctx context.Context, modelName string, body []byte, priority string) (*serve.PredictResponse, error) {
	var out serve.PredictResponse
	if err := c.Try(ctx, http.MethodPost, namePath("/predict/", modelName), body, &out, priority); err != nil {
		return nil, err
	}
	return &out, nil
}

// TryReadyz is a single-attempt readiness probe.
func (c *Client) TryReadyz(ctx context.Context) error {
	return c.Try(ctx, http.MethodGet, "/readyz", nil, nil, "")
}

// TryLoad is a single-attempt PUT /models/{name}: hot-load the artifact
// whose schema-v1 envelope bytes are data (model.Artifact.Marshal)
// under name.
func (c *Client) TryLoad(ctx context.Context, name string, data []byte) (*serve.ModelInfo, error) {
	var out serve.ModelInfo
	if err := c.Try(ctx, http.MethodPut, namePath("/models/", name), data, &out, ""); err != nil {
		return nil, err
	}
	return &out, nil
}

// TryModels is a single-attempt GET /models.
func (c *Client) TryModels(ctx context.Context) ([]serve.ModelInfo, error) {
	var out []serve.ModelInfo
	if err := c.Try(ctx, http.MethodGet, "/models", nil, &out, ""); err != nil {
		return nil, err
	}
	return out, nil
}

// StatusCode extracts the HTTP status of the reply an error from this
// package carries: a non-2xx reply, or a 2xx reply whose body did not
// decode. It returns 0 for failures where the server never answered
// (refused connections, timeouts, a request that could not be sent, a
// reply cut off before its end) and a different replica may. Works
// through %w wrapping.
func StatusCode(err error) int {
	var se *httpStatusError
	if errors.As(err, &se) {
		return se.status
	}
	return 0
}

// namePath is route followed by name as one escaped path segment, so
// the server sees exactly the name the caller gave, even one holding
// '%', '?', '#' or '/'.
func namePath(route, name string) string { return route + url.PathEscape(name) }
