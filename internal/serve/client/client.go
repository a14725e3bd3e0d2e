// Package client is the resilient, typed HTTP client for the serving
// layer (internal/serve). Its types come from serve, which declares the
// wire format once for both servers (serve.PredictRequest,
// serve.PredictResponse, serve.ModelInfo, serve.ErrorBody); an artifact
// travels as its own schema-v1 envelope bytes. It adds per-attempt
// timeouts, capped exponential backoff with deterministic jitter, and a
// retry budget. It is the caller-side half of the resilience story —
// the server sheds, times out, and isolates; the client retries what is
// safe to retry and backs off instead of hammering. Deciding that a
// host is down is not the client's job: the cluster router keeps that
// record per replica (internal/serve/cluster), fed by the Try calls.
//
// Retry policy: 5xx and 429 responses and transport errors are
// retryable (predict is idempotent — same instances, same model, same
// answer, the repo-wide determinism contract). 4xx responses other
// than 429 are the caller's bug and are never retried. Every retry
// spends one token from a shared budget that successes refill, so a
// fleet-wide outage degrades to "one try each" instead of a retry
// storm.
//
// Determinism: all jitter comes from a seeded math/rand source owned by
// the client, and no decision to attempt reads a clock, so chaos tests
// replay identical retry schedules from a seed (see chaos_e2e_test).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Client metrics: attempts, retries, and failures.
var (
	attemptsTotal = obs.GetCounter("client.attempts")
	retriesTotal  = obs.GetCounter("client.retries")
	failuresTotal = obs.GetCounter("client.failures")
	budgetExhaust = obs.GetCounter("client.retry_budget_exhausted")
)

// Sentinel errors; match with errors.Is.
var (
	// ErrBudgetExhausted is returned when a retryable failure could not
	// be retried because the retry budget is empty.
	ErrBudgetExhausted = errors.New("client: retry budget exhausted")
	// ErrPermanent wraps non-retryable HTTP failures (4xx except 429).
	ErrPermanent = errors.New("client: permanent failure")
)

// Config tunes the client. The zero value gets sane defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// Timeout bounds each attempt (connection + response). Default 5s.
	Timeout time.Duration
	// MaxAttempts caps tries per call (first + retries). Default 4.
	MaxAttempts int
	// BackoffBase is the first retry's nominal delay. Default 10ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential growth. Default 1s.
	BackoffMax time.Duration
	// RetryBudget is the token pool shared by all retries; each retry
	// spends one, each success refunds one (up to the cap). Default 32.
	RetryBudget int
	// Seed drives the backoff jitter. Same seed, same jitter sequence.
	Seed int64
	// Priority, when set, is sent as the X-Priority header (low | high)
	// so the server's shedder can triage this client's traffic.
	Priority string
	// HTTPClient overrides the transport; by default a plain
	// http.Client with the per-attempt timeout.
	HTTPClient *http.Client
	// sleep overrides backoff sleeping in tests.
	sleep func(ctx context.Context, d time.Duration) error
}

func (c *Config) defaults() {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 32
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Client is a resilient caller of one serving host. Safe for
// concurrent use; the jitter stream and retry budget are locked.
type Client struct {
	cfg  Config
	http *http.Client

	mu     sync.Mutex
	rng    *rand.Rand
	budget int
}

// New builds a client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	cfg.defaults()
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: cfg.Timeout}
	}
	return &Client{
		cfg:    cfg,
		http:   hc,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		budget: cfg.RetryBudget,
	}
}

// httpStatusError is a non-2xx reply.
type httpStatusError struct {
	status int
	msg    string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.status, e.msg)
}

// retryable reports whether err is worth another attempt: transport
// errors, 5xx, and 429 are; other 4xx are permanent.
func retryable(err error) bool {
	var se *httpStatusError
	if errors.As(err, &se) {
		return se.status >= 500 || se.status == http.StatusTooManyRequests
	}
	// Transport-level failure (refused connection, per-attempt timeout).
	return !errors.Is(err, ErrPermanent)
}

// Predict scores instances against the named model, retrying through
// the backoff schedule and the retry budget.
func (c *Client) Predict(ctx context.Context, modelName string, instances [][]float64) (*serve.PredictResponse, error) {
	body, err := json.Marshal(serve.PredictRequest{Instances: instances})
	if err != nil {
		return nil, fmt.Errorf("client: marshal request: %w", err)
	}
	var out serve.PredictResponse
	err = c.call(ctx, http.MethodPost, namePath("/predict/", modelName), body, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz reports whether the server answers its liveness probe.
func (c *Client) Healthz(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Readyz reports whether the server is ready for traffic.
func (c *Client) Readyz(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Metrics fetches the server's observability snapshot.
func (c *Client) Metrics(ctx context.Context) ([]obs.Metric, error) {
	var snap []obs.Metric
	if err := c.call(ctx, http.MethodGet, "/metrics", nil, &snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// call drives one logical request through attempts, backoff and the
// retry budget.
func (c *Client) call(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !c.spendRetryToken() {
				budgetExhaust.Inc()
				return fmt.Errorf("%w after %d attempts: %v", ErrBudgetExhausted, attempt, lastErr)
			}
			retriesTotal.Inc()
			if err := c.cfg.sleep(ctx, c.backoff(attempt-1)); err != nil {
				return err
			}
		}
		attemptsTotal.Inc()
		err := c.once(ctx, method, path, body, out, "")
		if err == nil {
			c.refundRetryToken()
			return nil
		}
		lastErr = err
		if !retryable(err) {
			// The caller's bug: no retry.
			failuresTotal.Inc()
			return err
		}
	}
	failuresTotal.Inc()
	return fmt.Errorf("client: %d attempts failed: %w", c.cfg.MaxAttempts, lastErr)
}

// once is a single HTTP attempt with the per-attempt timeout. priority,
// when non-empty, overrides the configured X-Priority for this attempt
// (the cluster router forwards each request's own tier).
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
	if priority == "" {
		priority = c.cfg.Priority
	}
	if priority != "" {
		req.Header.Set("X-Priority", priority)
	}
	resp, err := c.http.Do(req)
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
		se := &httpStatusError{status: resp.StatusCode, msg: eb.Error}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			// Double-wrap so errors.Is sees ErrPermanent AND errors.As
			// still reaches the status (StatusCode needs it to route).
			return fmt.Errorf("%w: %w", ErrPermanent, se)
		}
		return se
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decode response: %w", err)
		}
	}
	return nil
}

// backoff returns the sleep before retry number retry (0-based): the
// capped exponential raw = min(base<<retry, max), jittered uniformly
// into [raw/2, raw] from the client's seeded stream. Deterministic per
// seed; never more than BackoffMax; never less than half the nominal.
func (c *Client) backoff(retry int) time.Duration {
	raw := c.cfg.BackoffBase
	for i := 0; i < retry && raw < c.cfg.BackoffMax; i++ {
		raw *= 2
	}
	if raw > c.cfg.BackoffMax {
		raw = c.cfg.BackoffMax
	}
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	half := raw / 2
	return half + time.Duration(f*float64(raw-half))
}

func (c *Client) spendRetryToken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		return false
	}
	c.budget--
	return true
}

func (c *Client) refundRetryToken() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget < c.cfg.RetryBudget {
		c.budget++
	}
}

// Try performs exactly one counted attempt: no retries, no backoff.
// The cluster router (internal/serve/cluster) is the intended caller:
// it owns one Client per replica and replaces in-place retry with
// failover to a different replica, so a second attempt against the
// same host is never the right move. The router reads the outcome
// through StatusCode to keep its own record of the replica's health.
func (c *Client) Try(ctx context.Context, method, path string, body []byte, out any, priority string) error {
	attemptsTotal.Inc()
	err := c.once(ctx, method, path, body, out, priority)
	if err != nil {
		failuresTotal.Inc()
	}
	return err
}

// TryPredict is a single-attempt Predict with a per-call priority (the
// tier the router forwards from the original request; empty uses the
// configured default).
func (c *Client) TryPredict(ctx context.Context, modelName string, instances [][]float64, priority string) (*serve.PredictResponse, error) {
	body, err := json.Marshal(serve.PredictRequest{Instances: instances})
	if err != nil {
		return nil, fmt.Errorf("client: marshal request: %w", err)
	}
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

// StatusCode extracts the HTTP status carried by an error from this
// package, or 0 for failures where the server never answered (refused
// connections, timeouts, a request that could not be sent) and a
// different replica may. Works through %w wrapping.
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
