package service

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"gpulat/internal/runner"
)

// flakyQueueServer refuses the first `refusals` submit batches with the
// 503 + partial-accept shape a full station queue produces, then accepts
// everything; a status call answers done, with the result, for what it
// accepted.
type flakyQueueServer struct {
	mu       sync.Mutex
	refusals int
	posts    int
	accepted map[runner.JobKey]runner.Job
}

func (f *flakyQueueServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		f.posts++
		accept := req.Jobs
		refuse := false
		if f.refusals > 0 {
			f.refusals--
			refuse = true
			// Accept the first half only, like a queue filling mid-batch.
			accept = req.Jobs[:len(req.Jobs)/2]
		}
		tickets := make([]JobTicket, 0, len(accept))
		for _, job := range accept {
			f.accepted[job.Key()] = job
			tickets = append(tickets, JobTicket{Key: job.Key(), Status: StatusQueued})
		}
		if refuse {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":    ErrQueueFull.Error(),
				"accepted": tickets,
			})
			return
		}
		writeJSON(w, http.StatusOK, SubmitResponse{Tickets: tickets})
	})
	mux.HandleFunc("GET /v1/jobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := runner.JobKey(r.PathValue("key"))
		f.mu.Lock()
		job, ok := f.accepted[key]
		f.mu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %s", key)
			return
		}
		writeJSON(w, http.StatusOK, JobStatus{Key: key, Status: StatusDone, Result: wireResult(job)})
	})
	return mux
}

// acceptQueued answers a POST /v1/jobs as a stub backend that queues
// every job it is sent.
func acceptQueued(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	_ = jsonDecode(r, &req)
	tks := make([]JobTicket, len(req.Jobs))
	for i, j := range req.Jobs {
		tks[i] = JobTicket{Key: j.Key(), Status: StatusQueued}
	}
	writeJSON(w, http.StatusOK, SubmitResponse{Tickets: tks})
}

// resultlessServer is a stub backend that queues every job it is sent
// and answers every status call done without the result, a protocol no
// server in this tree speaks. calls counts its requests by method and
// path directory.
func resultlessServer(t *testing.T) (ts *httptest.Server, calls func() map[string]int) {
	var mu sync.Mutex
	seen := map[string]int{}
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+path.Dir(r.URL.Path)]++
		mu.Unlock()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			acceptQueued(w, r)
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			writeJSON(w, http.StatusOK, JobStatus{Key: runner.JobKey(path.Base(r.URL.Path)), Status: StatusDone})
		default:
			writeError(w, http.StatusNotFound, "no such route")
		}
	}))
	t.Cleanup(ts.Close)
	return ts, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(seen)
	}
}

// TestRunJobsRefusesTerminalAnswerWithoutResult: against a server that
// answers done without the result, RunJobs returns an error naming the
// key at once: it neither fetches the result nor waits again.
func TestRunJobsRefusesTerminalAnswerWithoutResult(t *testing.T) {
	ts, calls := resultlessServer(t)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job := testJob(0)
	_, err := NewClient(ts.URL).RunJobs(ctx, []runner.Job{job})
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), string(job.Key())) {
		t.Fatalf("RunJobs = %v (ctx %v), want an error naming %s", err, ctx.Err(), job.Key())
	}
	if got, want := calls(), map[string]int{"POST /v1": 1, "GET /v1/jobs": 1}; !maps.Equal(got, want) {
		t.Fatalf("calls %v, want %v", got, want)
	}
}

// TestClientRetriesQueueFull: a 503 refusal makes RunJobs back off and
// resubmit the remainder instead of erroring out — the queue-overflow
// contract the /v1/jobs "accepted" field exists for.
func TestClientRetriesQueueFull(t *testing.T) {
	f := &flakyQueueServer{refusals: 2, accepted: map[runner.JobKey]runner.Job{}}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	client := NewClient(ts.URL)
	client.Backoff = time.Millisecond
	jobs := []runner.Job{testJob(0), testJob(1), testJob(2), testJob(3)}
	set, err := client.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatalf("RunJobs errored instead of retrying: %v", err)
	}
	if len(set.Results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(set.Results), len(jobs))
	}
	for i, r := range set.Results {
		if r.Failed() || len(r.Metrics) == 0 {
			t.Fatalf("result %d incomplete: %+v", i, r)
		}
		if r.Index != i || r.Job.Key() != jobs[i].Key() {
			t.Fatalf("result %d not in submission order", i)
		}
	}
	f.mu.Lock()
	posts := f.posts
	f.mu.Unlock()
	if posts != 3 {
		t.Fatalf("posts = %d, want 3 (2 refusals + final accept)", posts)
	}
}

// TestClientSubmitGivesUpAfterMaxAttempts: persistent 503s surface as
// an error once the attempt budget is spent, instead of looping forever.
func TestClientSubmitGivesUpAfterMaxAttempts(t *testing.T) {
	var posts int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts++
		mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": ErrQueueFull.Error(), "accepted": []JobTicket{},
		})
	}))
	defer ts.Close()

	client := NewClient(ts.URL)
	client.Backoff = time.Millisecond
	client.MaxAttempts = 3
	_, err := client.Submit(context.Background(), []runner.Job{testJob(0)})
	if err == nil {
		t.Fatal("persistent 503 did not error")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != http.StatusServiceUnavailable {
		t.Fatalf("error does not carry the 503: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if posts != 3 {
		t.Fatalf("posts = %d, want MaxAttempts (3)", posts)
	}
}

// TestClientSubmitDoesNotRetryTerminalErrors: a 400 is not a capacity
// condition; it must fail on the first attempt.
func TestClientSubmitDoesNotRetryTerminalErrors(t *testing.T) {
	var posts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts++
		writeError(w, http.StatusBadRequest, "bad submit body")
	}))
	defer ts.Close()
	client := NewClient(ts.URL)
	client.Backoff = time.Millisecond
	if _, err := client.Submit(context.Background(), []runner.Job{testJob(0)}); err == nil {
		t.Fatal("400 did not error")
	}
	if posts != 1 {
		t.Fatalf("posts = %d, want 1 (no retry on 400)", posts)
	}
}
