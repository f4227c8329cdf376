// Worker-side HTTP client: every call to the coordinator goes through one
// post() path with a per-request timeout, bounded retries, and exponential
// backoff with deterministic jitter — the robustness half of the worker
// role, kept separate from the lease/execute loop in worker.go.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"hetarch/internal/obs/runlog"
	"hetarch/internal/splitmix"
)

// Client talks the fabric protocol to one coordinator.
type Client struct {
	base string // http://host:port
	hc   *http.Client

	// Retry policy (zero values mean the Default* constants).
	Retries     int
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// jitterSeed drives the deterministic backoff jitter; seq counts
	// requests so each retry sequence jitters differently but reproducibly.
	jitterSeed uint64
	seq        atomic.Uint64
	retries    atomic.Int64
}

// NewClient builds a client for the coordinator at addr (host:port). The
// jitter seed keeps backoff deterministic per worker: derive it from the
// job seed and the worker index so chaos suites replay identically.
// transport may be nil (http.DefaultTransport); chaos tests pass a
// chaos.NetInjector.
func NewClient(addr string, jitterSeed uint64, transport http.RoundTripper) *Client {
	if transport == nil {
		transport = http.DefaultTransport
	}
	return &Client{
		base:        "http://" + addr,
		hc:          &http.Client{Timeout: DefaultTimeout, Transport: transport},
		Retries:     DefaultRetries,
		BackoffBase: DefaultBackoffBase,
		BackoffCap:  DefaultBackoffCap,
		jitterSeed:  jitterSeed,
	}
}

// backoff returns the pause before retry attempt (1-based): exponential
// from BackoffBase, capped at BackoffCap, with a deterministic jitter in
// [0.5, 1.0) of the raw delay derived from the client's seed and the
// request sequence number.
func (c *Client) backoff(attempt int, seq uint64) time.Duration {
	d := c.BackoffBase << (attempt - 1)
	if d > c.BackoffCap || d <= 0 {
		d = c.BackoffCap
	}
	frac := float64(splitmix.Mix(c.jitterSeed+seq*0x9e3779b97f4a7c15+uint64(attempt))>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + frac/2))
}

// post sends one JSON request with retries. Network errors and 5xx
// responses are retried with backoff; 4xx responses are protocol errors
// and fail immediately. A dead context stops the retry loop.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("fabric: marshal %s: %w", path, err)
	}
	seq := c.seq.Add(1)
	var last error
	for attempt := 1; attempt <= 1+c.Retries; attempt++ {
		if attempt > 1 {
			clientRetries.Inc()
			c.retries.Add(1)
			runlog.L().Info(evRetry, "path", path, "attempt", attempt, "err", fmt.Sprint(last))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.backoff(attempt-1, seq)):
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		last = c.once(ctx, path, body, out)
		if last == nil {
			return nil
		}
		var pe *protocolError
		if errors.As(last, &pe) {
			return last // 4xx: retrying cannot help
		}
	}
	return fmt.Errorf("fabric: %s failed after %d attempts: %w", path, 1+c.Retries, last)
}

// protocolError marks a non-retryable coordinator response (4xx).
type protocolError struct{ msg string }

func (e *protocolError) Error() string { return e.msg }

func (c *Client) once(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server error: %s", resp.Status)
	}
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &protocolError{msg: fmt.Sprintf("fabric: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode %s response: %w", path, err)
	}
	return nil
}

// Job fetches the coordinator's job state, identifying this worker for
// liveness tracking.
func (c *Client) Job(ctx context.Context, worker string) (JobResponse, error) {
	// The job endpoint also accepts GET-style polling, but POST keeps every
	// call on the same retry path.
	var out JobResponse
	err := c.post(ctx, PathJob+"?worker="+worker, struct{}{}, &out)
	return out, err
}

// WaitJob polls until the coordinator serves a running job, the context
// dies, or the coordinator reports the job done.
func (c *Client) WaitJob(ctx context.Context, worker string, poll time.Duration) (JobResponse, error) {
	if poll <= 0 {
		poll = 10 * DefaultPoll
	}
	for {
		resp, err := c.Job(ctx, worker)
		if err == nil {
			return resp, nil
		}
		select {
		case <-ctx.Done():
			return JobResponse{}, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Lease requests a shard-range lease for one run.
func (c *Client) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var out LeaseResponse
	err := c.post(ctx, PathLease, req, &out)
	return out, err
}

// Renew heartbeats a held lease.
func (c *Client) Renew(ctx context.Context, req RenewRequest) (RenewResponse, error) {
	var out RenewResponse
	err := c.post(ctx, PathRenew, req, &out)
	return out, err
}

// Tally submits the completed shards of a leased range.
func (c *Client) Tally(ctx context.Context, req TallyRequest) (TallyResponse, error) {
	var out TallyResponse
	err := c.post(ctx, PathTally, req, &out)
	return out, err
}

// RetriesDone reports how many request retries this client has performed
// (for the worker's ledger envelope).
func (c *Client) RetriesDone() int64 { return c.retries.Load() }
