package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"gpulat/internal/runner"
)

// Client talks to a Server. The zero HTTP client is usable; Base is the
// server root, e.g. "http://127.0.0.1:8091".
type Client struct {
	Base string
	HTTP *http.Client
	// Poll is the floor between two non-terminal status answers (default
	// 25ms, backing off to 8x). RunJobs waits by long-poll, but an answer
	// can still come back at once: from a coordinator for a key it has
	// not forwarded yet (a chunk parked by backend backpressure), so Poll
	// keeps RunJobs from spinning.
	Poll time.Duration
	// Backoff is the starting delay before resubmitting jobs a 503
	// (queue full, no healthy backends) refused (default 50ms, doubling
	// up to 2s).
	Backoff time.Duration
	// MaxAttempts bounds submit attempts per batch, counting the first
	// (default 8). Only 503 refusals are retried; other failures return
	// immediately.
	MaxAttempts int
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string { return c.Base + path }

// call sends one request to path — in, when non-nil, as its JSON body —
// and decodes a 200 answer into out. Any other status is an *APIError
// carrying the server's message, returned with the raw body for a caller
// that reads more of a refusal.
func (c *Client) call(ctx context.Context, method, path string, in, out any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	setTraceHeader(ctx, req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, httpError(path, resp.StatusCode, data)
	}
	return data, json.Unmarshal(data, out)
}

// APIError is a non-2xx service answer decoded into Go: the HTTP status
// plus the server's error message. Callers branch on Code — 503 means
// back off and retry, 404 means the server doesn't know the key, 409
// means the job isn't finished. A transport failure (server gone) is
// NOT an APIError, which is how the coordinator tells "backend refused"
// from "backend dead".
type APIError struct {
	Path    string
	Code    int
	Message string
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service: %s: %s (HTTP %d)", e.Path, e.Message, e.Code)
	}
	return fmt.Sprintf("service: %s: HTTP %d", e.Path, e.Code)
}

func httpError(path string, code int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	msg := ""
	if json.Unmarshal(body, &e) == nil {
		msg = e.Error
	}
	return &APIError{Path: path, Code: code, Message: msg}
}

// Healthz fetches the server's health/version document.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var h Health
	_, err := c.call(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// Statsz fetches the server's counters.
func (c *Client) Statsz(ctx context.Context) (Statsz, error) {
	var s Statsz
	_, err := c.call(ctx, http.MethodGet, "/v1/statsz", nil, &s)
	return s, err
}

// Backendsz fetches a coordinator's per-backend routing/health view.
// Single-node stations answer 404 (an *APIError).
func (c *Client) Backendsz(ctx context.Context) (Backendsz, error) {
	var b Backendsz
	_, err := c.call(ctx, http.MethodGet, "/v1/backendsz", nil, &b)
	return b, err
}

// CacheEntry fetches one cached result from a backend's store — the
// read half of the cache-warm handoff. A 404 *APIError means the
// backend never cached the key.
func (c *Client) CacheEntry(ctx context.Context, key runner.JobKey) (Entry, error) {
	var e Entry
	_, err := c.call(ctx, http.MethodGet, "/v1/cache/"+string(key), nil, &e)
	return e, err
}

// CachePull asks the server to pull the given keys' cached results from
// the backend at from into its own cache — the write half of the
// cache-warm handoff a membership change triggers.
func (c *Client) CachePull(ctx context.Context, from string, keys []runner.JobKey) (CachePullResult, error) {
	var res CachePullResult
	_, err := c.call(ctx, http.MethodPost, "/v1/cache/pull", CachePullRequest{From: from, Keys: keys}, &res)
	return res, err
}

// JoinBackend registers addr as a backend with the coordinator this
// client points at. Idempotent: re-joining reports Changed=false.
func (c *Client) JoinBackend(ctx context.Context, addr string) (MembershipChange, error) {
	var ch MembershipChange
	_, err := c.call(ctx, http.MethodPost, "/v1/backends/join", membershipRequest{Addr: addr}, &ch)
	return ch, err
}

// LeaveBackend removes addr from the coordinator's pool, draining its
// keys to the survivors. 404 means the address is not a member; 409
// means it is the last one.
func (c *Client) LeaveBackend(ctx context.Context, addr string) (MembershipChange, error) {
	var ch MembershipChange
	_, err := c.call(ctx, http.MethodPost, "/v1/backends/leave", membershipRequest{Addr: addr}, &ch)
	return ch, err
}

// CatalogInfo fetches the server's job-spec catalog.
func (c *Client) CatalogInfo(ctx context.Context) (CatalogInfo, error) {
	var info CatalogInfo
	_, err := c.call(ctx, http.MethodGet, "/v1/catalog", nil, &info)
	return info, err
}

// Submit posts jobs and returns their tickets in job order. A 503
// refusal (bounded queue full, or a coordinator briefly without healthy
// backends) is not an error: the server reports how many jobs it
// accepted, and Submit backs off and resubmits the remainder, so a
// sweep larger than the server's queue completes instead of aborting.
// Other failures — and 503s persisting past MaxAttempts — return an
// error.
func (c *Client) Submit(ctx context.Context, jobs []runner.Job) ([]JobTicket, error) {
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	tickets := make([]JobTicket, 0, len(jobs))
	remaining := jobs
	for attempt := 1; ; attempt++ {
		accepted, err := c.submitOnce(ctx, remaining)
		tickets = append(tickets, accepted...)
		remaining = remaining[len(accepted):]
		if err == nil {
			if len(remaining) != 0 {
				return nil, fmt.Errorf("service: submitted %d jobs, got %d tickets", len(jobs), len(tickets))
			}
			return tickets, nil
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != http.StatusServiceUnavailable {
			return nil, err
		}
		if len(accepted) > 0 {
			// Partial progress: the server is draining, so only
			// genuinely stalled rounds count against the attempt budget
			// — a sweep much larger than the server's queue bound must
			// complete, however many rounds it takes.
			attempt = 0
			backoff = c.Backoff
			if backoff <= 0 {
				backoff = 50 * time.Millisecond
			}
		}
		if attempt >= maxAttempts {
			return nil, fmt.Errorf("service: %d of %d jobs still refused after %d submit attempts: %w",
				len(remaining), len(jobs), attempt, err)
		}
		// Jittered ±25%: a fleet of clients refused by the same full
		// queue must not resubmit in lockstep.
		if err := sleepCtx(ctx, jitter(backoff)); err != nil {
			return nil, err
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// submitOnce posts one batch. A 503 answer carries the tickets the
// server accepted before refusing; they are returned alongside the
// *APIError so Submit can resubmit exactly the remainder.
func (c *Client) submitOnce(ctx context.Context, jobs []runner.Job) ([]JobTicket, error) {
	var sr SubmitResponse
	body, err := c.call(ctx, http.MethodPost, "/v1/jobs", SubmitRequest{Jobs: jobs}, &sr)
	var ae *APIError
	if errors.As(err, &ae) && ae.Code == http.StatusServiceUnavailable {
		var refusal struct {
			Accepted []JobTicket `json:"accepted"`
		}
		_ = json.Unmarshal(body, &refusal) // unreadable: nothing accepted
		return refusal.Accepted[:min(len(refusal.Accepted), len(jobs))], err
	}
	if err != nil {
		return nil, err
	}
	if len(sr.Tickets) != len(jobs) {
		return nil, fmt.Errorf("service: submitted %d jobs, got %d tickets", len(jobs), len(sr.Tickets))
	}
	return sr.Tickets, nil
}

// Wait fetches one job's lifecycle position, asking the server to hold
// the answer up to d (it caps d itself; <= 0: not at all) until the job
// is terminal. A terminal answer carries the job's result. A held wait
// can still come back non-terminal (the cap ran out, or a coordinator
// has not forwarded the key yet), so callers must tolerate one.
func (c *Client) Wait(ctx context.Context, key runner.JobKey, d time.Duration) (JobStatus, error) {
	path := "/v1/jobs/" + string(key)
	if d > 0 {
		path += "?wait=" + d.String()
	}
	var js JobStatus
	_, err := c.call(ctx, http.MethodGet, path, nil, &js)
	return js, err
}

// Result fetches one finished job's durable result.
func (c *Client) Result(ctx context.Context, key runner.JobKey) (WireResult, error) {
	var wr WireResult
	_, err := c.call(ctx, http.MethodGet, "/v1/results/"+string(key), nil, &wr)
	return wr, err
}

// WaitHealthy polls /v1/healthz until the server answers or the deadline
// passes — how `gpulat submit` tolerates racing a just-started server.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := c.Healthz(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service: server at %s not healthy after %s: %w", c.Base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// headStart is how long after RunJobs began its first held wait goes
// out, spent once per call, not once per ticket. Jobs that finish inside
// it (a served chase: ~1 ms) are answered, result included, without a
// wait being held, and a closed-loop caller's pace is then this timer's,
// not the host scheduler's. It is the smallest value that keeps
// serve_cold steady on a shared 2-CPU host: over ten 20 s runs each, the
// middle half of throughput spanned 196, 84, 28 and 21 jobs/s at 0, 1, 2
// and 3 ms (median request 2.2, 2.5, 3.0 and 4.0 ms), against a bound of
// 80 jobs/s, a quarter of the ~320 jobs/s measured at 5 ms.
const headStart = 2 * time.Millisecond

// sleepCtx waits d (not at all when d <= 0) or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// RunJobs submits jobs, waits for all of them, and reassembles a
// ResultSet in submission order with client-local indices — the exact
// shape a direct runner.Run would have produced, so CSV/JSON exports
// byte-match a local sweep. Every terminal answer carries its result, so
// a finished job costs one round trip: tickets already done (cache hits,
// dedup onto finished work) need no further call, which makes a warm grid
// re-run one POST; any other ticket costs one held status call that
// returns, result included, the moment the job finishes, the first of
// them no sooner than headStart after the call began. A terminal answer
// without its result is an error naming the key.
func (c *Client) RunJobs(ctx context.Context, jobs []runner.Job) (*runner.ResultSet, error) {
	began := time.Now()
	tickets, err := c.Submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	poll := c.Poll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	if slices.ContainsFunc(tickets, func(t JobTicket) bool { return !t.Status.terminal() }) {
		if err := sleepCtx(ctx, headStart-time.Since(began)); err != nil {
			return nil, err
		}
	}
	set := &runner.ResultSet{Results: make([]runner.Result, len(jobs))}
	for i, t := range tickets {
		status, result := t.Status, t.Result
		// floor is the least time between two non-terminal answers: after
		// an immediate answer the rest of it is slept out (nothing after a
		// held wait), and it backs off to 8x.
		for floor := poll; !status.terminal(); {
			asked := time.Now()
			js, err := c.Wait(ctx, t.Key, maxStatusWait)
			if err != nil {
				return nil, err
			}
			if status, result = js.Status, js.Result; status.terminal() {
				break
			}
			if err := sleepCtx(ctx, floor-time.Since(asked)); err != nil {
				return nil, err
			}
			if floor < 8*poll {
				floor *= 2
			}
		}
		if result == nil {
			return nil, fmt.Errorf("service: job %s answered %s without its result", t.Key, status)
		}
		var wr WireResult
		if err := json.Unmarshal(result, &wr); err != nil {
			return nil, fmt.Errorf("service: job %s: %w", t.Key, err)
		}
		// Reassemble under the job we submitted: keys are content
		// hashes, so the server's job spec is equivalent, but ours
		// carries the label/seed spelling this invocation asked for.
		set.Results[i] = runner.Result{
			Index:   i,
			Job:     jobs[i],
			Metrics: wr.Metrics,
			Err:     wr.Error,
		}
	}
	return set, nil
}
