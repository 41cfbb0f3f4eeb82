package service

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"time"

	"gpulat/internal/runner"
)

// CoordinatorConfig sizes the sharded service tier.
type CoordinatorConfig struct {
	// Backends are the initial worker endpoints ("host:port" or base
	// URLs), each a stock `gpulat serve` process with its own cache and
	// worker pool. The list may be empty: backends can join at runtime
	// via POST /v1/backends/join (`gpulat serve -join`).
	Backends []string
	// ProbeInterval is the health-probe period (default 250ms). Actual
	// sleeps are jittered ±25% so a large pool doesn't probe in
	// lockstep.
	ProbeInterval time.Duration
	// FailThreshold opens a backend's circuit after that many
	// consecutive failed calls or probes (default 3).
	FailThreshold int
	// CallTimeout bounds one forwarded HTTP call (default 15s).
	CallTimeout time.Duration
	// QueueBound caps live (non-terminal) keys the coordinator will
	// admit — the sharded analogue of StationConfig.QueueBound, so a
	// coordinator still exerts 503 backpressure instead of growing its
	// key table without limit (default 4096 per configured backend).
	QueueBound int
	// JournalPath, when set, enables the write-ahead coordinator
	// journal: accepted jobs and membership changes append to this
	// JSONL file and are replayed on start, so an in-flight grid
	// survives a coordinator crash (see journal.go).
	JournalPath string
}

func (cfg *CoordinatorConfig) fill() {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 15 * time.Second
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 4096 * max(len(cfg.Backends), 1)
	}
}

// MembershipChange reports one Join or Leave: the epoch it produced and
// how much key ownership it moved. It is the POST /v1/backends/join and
// /v1/backends/leave response body.
type MembershipChange struct {
	Addr   string `json:"addr"`
	Action string `json:"action"` // "join" or "leave"
	// Epoch is the membership epoch after the change (unchanged when
	// Changed is false — e.g. an idempotent re-join).
	Epoch   uint64 `json:"epoch"`
	Changed bool   `json:"changed"`
	Members int    `json:"members"`
	// MovedKeys counts known keys whose ring ownership the change moved
	// — the exact delta, never the whole population.
	MovedKeys int `json:"moved_keys"`
	// Reassigned counts live (non-terminal) moved keys re-forwarded to
	// their new owner.
	Reassigned int `json:"reassigned"`
	// Transferred counts cached results warm-copied to the new owner's
	// cache via the /v1/cache transfer endpoints instead of recomputed.
	Transferred int `json:"transferred"`
}

// Coordinator is the sharded JobService: it owns no simulation workers,
// only a pool of backend `gpulat serve` endpoints. Each submitted job is
// routed to a backend by consistent hashing on its runner.JobKey — the
// same content identity the caches use — so a key lands on the same
// backend across coordinator restarts and unrelated pool changes, and
// that backend's persistent cache keeps answering it.
//
// Every decision — admission, where a live key runs, what a backend's
// answer means, circuit state, the ownership delta of a Join or Leave,
// the prober's sweep — is made by the placement core under the key
// table's one lock, with no I/O. The Coordinator is the shell around
// it: it takes the lock, asks the core, drops the lock, and carries out
// the plan the core returned (journal appends, forwards, cache pulls),
// feeding each outcome back in. Membership is elastic (Join, Leave);
// with JournalPath set, an in-flight grid survives a coordinator crash.
// Results are memoized from the backend answers that carry them, which
// keeps the client-observable contract byte-identical to a
// single-process run.
type Coordinator struct {
	// placement is the decision core; its jobs table's mu is the one
	// lock, and its pending count is what QueueBound caps.
	*placement

	cfg     CoordinatorConfig
	journal *Journal

	// ctx ends when Close begins, stopping the prober and hanging up
	// every call still out to a backend. wg counts the prober and every
	// plan being carried out.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	journalErrOnce sync.Once
}

// NewCoordinator builds the pool, replays the journal (when configured),
// and starts the health prober. The backends do not need to be up yet —
// the prober opens circuits for the absent ones and closes them when
// they appear — and the pool may even start empty, filling via
// registration joins.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.fill()
	c := &Coordinator{placement: newPlacement(cfg), cfg: cfg}
	c.ctx, c.stop = context.WithCancel(context.Background())
	if cfg.JournalPath != "" {
		j, records, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		c.journal = j
		c.replay(records)
	}
	c.wg.Add(1)
	go c.prober()
	return c, nil
}

// act carries out a plan the core returned to a caller holding c.mu:
// it drops the lock, appends the journal records, sends the forwards in
// bounded chunks and runs the cache pulls, feeding each outcome back to
// the core. The journal's lock is taken before c.mu is dropped (the one
// lock order, c.mu then the journal's), so the file keeps the order the
// decisions were made in. Close waits for every plan decided before it,
// so none appends to a closed journal. Returns how many cached results
// the pulls transferred.
func (c *Coordinator) act(ctx context.Context, p plan) (transferred int) {
	if p.empty() {
		c.mu.Unlock()
		return 0
	}
	c.wg.Add(1)
	defer c.wg.Done()
	if c.journal == nil || len(p.journal) == 0 {
		c.mu.Unlock()
	} else if err := c.journal.Append(c.mu.Unlock, p.journal...); err != nil {
		c.journalErrOnce.Do(func() {
			fmt.Fprintf(os.Stderr, "gpulat: coordinator journal write failed (crash recovery degraded): %v\n", err)
		})
	}
	for _, f := range p.forwards {
		for chunk := range slices.Chunk(f.group, maxForwardBatch) {
			c.forward(ctx, f.b, chunk)
		}
	}
	for _, pl := range p.pulls {
		for chunk := range slices.Chunk(pl.keys, maxForwardBatch) {
			pctx, cancel := c.callCtx(ctx)
			res, err := pl.to.client.CachePull(pctx, pl.from, chunk)
			cancel()
			if err == nil {
				transferred += res.Transferred
			}
		}
	}
	if p.moved > 0 {
		c.mu.Lock()
		c.handedOff(p.moved, transferred)
		c.mu.Unlock()
	}
	return transferred
}

// maxForwardBatch bounds one forwarded POST, safely under the backend
// server's maxJobsPerRequest so a large failover batch never trips the
// far end's per-request bound.
const maxForwardBatch = maxJobsPerRequest / 2

// callCtx bounds one forward or cache pull: CallTimeout, cut short by
// Close, with ctx's values (the trace ID, so a submission is greppable
// across the tier) but not its cancellation — an admitted job's forward
// must complete even if the submitting request is abandoned.
func (c *Coordinator) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.cfg.CallTimeout)
	stop := context.AfterFunc(c.ctx, cancel)
	return ctx, func() { stop(); cancel() }
}

// forward submits one chunk of a backend's batch and hands the outcome
// to the core.
func (c *Coordinator) forward(ctx context.Context, b *Backend, group []*jobState) {
	jobs := make([]runner.Job, len(group))
	for i, st := range group {
		jobs[i] = st.job
	}
	fctx, cancel := c.callCtx(ctx)
	tks, err := b.client.Submit(fctx, jobs)
	cancel()
	c.mu.Lock()
	c.act(ctx, c.forwarded(b, group, tks, err))
}

// Close stops the prober and fails every non-terminal key so no local
// waiter blocks; Close is idempotent, and Submit, Join and Leave after
// Close return ErrStationClosed. Calls still out to backends are hung
// up, and Close returns once every plan decided before it has been
// carried out. The journal file survives Close — it is the recovery
// state a successor replays.
func (c *Coordinator) Close() {
	c.mu.Lock()
	closing := c.close()
	c.mu.Unlock()
	if !closing {
		return
	}
	c.stop()
	c.wg.Wait()
	c.transport.CloseIdleConnections()
	if c.journal != nil {
		c.journal.Close()
	}
}

// SubmitMany admits jobs (see placement.admit) and forwards the
// admissions as one batched POST per backend — a grid expanded
// server-side becomes a handful of bulk submissions, not one HTTP call
// per job. Every newly-admitted job is write-ahead journaled (when a
// journal is configured) before its ticket is returned. ctx rides along
// on the forwarded POSTs for its values, but forwards detach from its
// cancellation (see callCtx).
func (c *Coordinator) SubmitMany(ctx context.Context, jobs []runner.Job) ([]JobTicket, error) {
	c.mu.Lock()
	tickets, p, err := c.admit(jobs, false)
	c.act(ctx, p)
	// Refresh ticket statuses after forwarding: a backend answering from
	// its cache reports "done" immediately, with the result, which lets
	// clients skip the status call on warm grids.
	c.mu.Lock()
	for i := range tickets {
		tickets[i].Status = c.byKey[tickets[i].Key].status
	}
	c.mu.Unlock()
	return tickets, err
}

// Join adds addr to the pool at a new epoch: live keys whose ownership
// moved re-forward to the joiner, and finished ones warm-hand their
// cached results to the joiner's cache — the joiner pulls them from the
// backend that actually computed each key via GET /v1/cache/{key}, so a
// pool scale-up costs cache transfers, not recomputation. Idempotent:
// re-joining a present member reports Changed=false and bumps nothing.
func (c *Coordinator) Join(ctx context.Context, addr string) (MembershipChange, error) {
	c.mu.Lock()
	ch, p, err := c.join(addr)
	ch.Transferred = c.act(ctx, p)
	return ch, err
}

// Leave removes addr from the pool at a new epoch, draining it: every
// live key placed on the leaver re-forwards to a survivor, and the
// leaver's finished keys warm-hand their cached results to each new
// owner (best effort — the leaver may already be gone). Removing the
// last member is refused with ErrLastBackend; removing a non-member is
// ErrUnknownBackend.
func (c *Coordinator) Leave(ctx context.Context, addr string) (MembershipChange, error) {
	c.mu.Lock()
	ch, p, err := c.leave(addr)
	ch.Transferred = c.act(ctx, p)
	return ch, err
}

// jitter returns d scaled by a uniform factor in [0.75, 1.25), so a
// fleet of coordinators (or a pool of retrying clients) never settles
// into lockstep — the thundering-herd guard on recovery. Below 2 ns
// there is nothing to spread, and d comes back unchanged.
func jitter(d time.Duration) time.Duration {
	if d < 2 {
		return d
	}
	return 3*d/4 + rand.N(d/2)
}

// prober drives the failure detector: every ProbeInterval (jittered
// ±25%) it probes each backend's /v1/healthz (feeding the same circuit
// state the forwarding path uses), then sweeps every live key through
// place. Detection-to-reroute latency is therefore bounded by
// ProbeInterval × FailThreshold even if no client is polling. The first
// round waits out one (jittered) interval — an immediate round would
// race the caller's first SubmitMany on the same connections, where a
// probe's context cancellation can poison a just-pooled keep-alive conn
// under the forward's POST.
func (c *Coordinator) prober() {
	defer c.wg.Done()
	probeTimeout := min(c.cfg.ProbeInterval, time.Second)
	timer := time.NewTimer(jitter(c.cfg.ProbeInterval))
	defer timer.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-timer.C:
		}
		c.mu.Lock()
		members := slices.Clone(c.members)
		c.mu.Unlock()
		for _, b := range members {
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			_, err := b.client.Healthz(ctx)
			cancel()
			c.mu.Lock()
			c.probed(b, err)
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.act(context.Background(), c.sweep())
		timer.Reset(jitter(c.cfg.ProbeInterval))
	}
}

// Wait reports a key's position, answering locally for done and
// unforwarded keys and otherwise forwarding the (long-)poll to the
// owning backend under the caller's trace ID. Backend failures observed
// here feed the circuit state and re-place this key at once, so a
// waiting client drives its own failover the moment the backend dies,
// not at the prober's next round. When ctx ends (the client went away)
// or the coordinator closes, the forward is hung up — no penalty to the
// backend — and the last status known is the answer.
func (c *Coordinator) Wait(ctx context.Context, key runner.JobKey, d time.Duration) (Status, bool) {
	st, s, b := c.remote(key)
	if b == nil {
		return s, st != nil
	}
	wctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	defer context.AfterFunc(c.ctx, cancel)()
	js, err := b.client.Wait(wctx, key, d)
	c.mu.Lock()
	var p plan
	if err == nil || (ctx.Err() == nil && c.ctx.Err() == nil) { // not a hang-up of ours
		p = c.waited(st, b, js, err)
	}
	s = st.status
	c.act(ctx, p)
	return s, true
}

// remote returns key's state and status and, when only its backend can
// say more — the key is forwarded and not final — that backend.
func (c *Coordinator) remote(key runner.JobKey) (*jobState, Status, *Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.byKey[key]
	if st == nil {
		return nil, "", nil
	}
	if st.final() || !st.forwarded {
		return st, st.status, nil
	}
	return st, st.status, st.backend
}

// Result returns a terminal result (see finished).
func (c *Coordinator) Result(ctx context.Context, key runner.JobKey) (runner.Result, bool) {
	if st := c.finished(ctx, key); st != nil {
		return st.result, true
	}
	return runner.Result{}, false
}

// finished returns key's state once its result is final, else nil. The
// result is memoized from the backend answer that carried it (see
// learn); one the coordinator has not heard yet it asks for with a
// status call proxied with no wait. Later calls (and the coordinator's
// own failure handling) never depend on the backend staying alive after
// completion.
func (c *Coordinator) finished(ctx context.Context, key runner.JobKey) *jobState {
	c.Wait(ctx, key, 0)
	if st := c.lookup(key); st != nil && st.final() {
		return st
	}
	return nil
}

// RingEpoch returns the pool's monotonic membership epoch.
func (c *Coordinator) RingEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Backends reports the pool with per-backend live-key assignment counts
// and ring shares — the /v1/backendsz document.
func (c *Coordinator) Backends() []BackendStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backends()
}
