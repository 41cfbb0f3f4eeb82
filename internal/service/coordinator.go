package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
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
// Where a live key runs is decided in one place: place. Admission, the
// prober's sweep, Join, Leave, a failed forward and a failed status or
// result proxy all hand it their keys, and it alone forwards them. A
// health prober plus per-backend circuit state detect failures; live
// keys on a failed backend re-route to survivors within a bounded
// budget.
//
// Membership is elastic: Join and Leave rebuild the ring under lock,
// bump a monotonic epoch, and touch only the keys whose ownership the
// change moved — live moved keys re-forward to the new owner (backends
// dedupe by key, so duplicate forwards are harmless), and finished
// moved keys warm-hand their cached results to the new owner via the
// backend cache-transfer endpoints instead of recomputing. With
// JournalPath set, every accepted job and membership change is
// write-ahead journaled so an in-flight grid survives coordinator
// crash, not just backend death. Results are memoized from the backend
// answers that carry them (fetched once from a backend whose answers do
// not), which keeps the client-observable contract byte-identical to a
// single-process run.
type Coordinator struct {
	// jobs is the key-state table: admission, statuses, counters. Its
	// pending count is what QueueBound caps.
	jobs

	cfg     CoordinatorConfig
	pool    *BackendPool
	journal *Journal

	// ctx ends when Close begins, stopping the prober and hanging up
	// every long-poll held open on a backend.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	// memberMu serializes membership changes (Join/Leave/replay) so two
	// concurrent Leaves cannot race the pool down to zero and ownership
	// deltas are computed against a quiescent ring.
	memberMu sync.Mutex

	journalErrOnce sync.Once
}

// NewCoordinator builds the pool, replays the journal (when configured),
// and starts the health prober. The backends do not need to be up yet —
// the prober opens circuits for the absent ones and closes them when
// they appear — and the pool may even start empty, filling via
// registration joins.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.fill()
	c := &Coordinator{
		jobs: jobs{byKey: map[runner.JobKey]*jobState{}},
		cfg:  cfg,
		pool: NewBackendPool(cfg.Backends, cfg.FailThreshold),
	}
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

// replay applies journal records from a previous incarnation: joins and
// leaves re-shape the pool in the order they happened (reconstructing
// the epoch), and job records re-admit their keys through the same add
// as SubmitMany, minus the journal write and the forward — the prober's
// first sweep re-forwards them, and the backends' dedup + caches answer
// already-finished ones without recomputing. Runs before the prober
// starts, so no locks are contended.
func (c *Coordinator) replay(records []JournalRecord) {
	for _, rec := range records {
		switch rec.T {
		case journalJoin:
			c.pool.Join(rec.Addr)
		case journalLeave:
			c.pool.Leave(rec.Addr)
		case journalJob:
			if rec.Job == nil {
				continue
			}
			key := rec.Job.Key()
			if c.byKey[key] != nil {
				continue
			}
			// Route may return nil on an empty or all-down pool; the
			// sweep places the key once a backend is routable.
			c.add(key, *rec.Job).backend = c.pool.Route(key, nil)
			c.stats.Replayed++
		}
	}
}

func (c *Coordinator) journalAppend(rec JournalRecord) {
	if c.journal == nil {
		return
	}
	if err := c.journal.Append(rec); err != nil {
		c.journalErrOnce.Do(func() {
			fmt.Fprintf(os.Stderr, "gpulat: coordinator journal write failed (crash recovery degraded): %v\n", err)
		})
	}
}

// Close stops the prober and fails every non-terminal key so no local
// waiter blocks; Close is idempotent, and Submit after Close returns
// ErrStationClosed in bounded time. The journal file survives Close —
// it is the recovery state a successor replays.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.failLive("service: coordinator closed before the job finished")
	c.mu.Unlock()
	c.stop()
	c.wg.Wait()
	c.pool.Close()
	if c.journal != nil {
		c.journal.Close()
	}
}

// Submit admits one job; see SubmitMany.
func (c *Coordinator) Submit(ctx context.Context, job runner.Job) (runner.JobKey, Status, error) {
	key := job.Key()
	tickets, err := c.SubmitMany(ctx, []runner.Job{job})
	if err != nil {
		return key, "", err
	}
	return tickets[0].Key, tickets[0].Status, nil
}

// SubmitMany places each job on its ring backend and forwards the
// admissions as one batched POST per backend — a grid expanded
// server-side becomes a handful of bulk submissions, not one HTTP call
// per job. Duplicate keys (in the batch or already known) dedup onto the
// existing state exactly like Station.Submit; previously-failed keys are
// replaced and re-run. Every newly-admitted job is write-ahead journaled
// (when a journal is configured) before its ticket is returned. Returns
// ErrStationClosed after Close and ErrNoBackends (with the tickets
// accepted so far) when a job cannot be placed.
//
// ctx rides along on the forwarded POSTs for its values (the trace ID,
// so a submission is greppable across the tier), but forwards detach
// from its cancellation: an admitted job's forward must complete even if
// the submitting request is abandoned mid-flight.
func (c *Coordinator) SubmitMany(ctx context.Context, jobs []runner.Job) ([]JobTicket, error) {
	c.mu.Lock()
	tickets := make([]JobTicket, 0, len(jobs))
	var admitted []*jobState // newly-created states, in order, for the journal
	var refused error
	for _, job := range jobs {
		key := job.Key()
		status, ok, err := c.attach(key)
		if err != nil {
			// Closed: the lock is held, so only the first job sees it.
			c.mu.Unlock()
			return nil, err
		}
		c.stats.Submitted++
		if ok {
			tickets = append(tickets, JobTicket{Key: key, Status: status})
			continue
		}
		var b *Backend
		if c.pending >= c.cfg.QueueBound {
			refused = ErrQueueFull
		} else if b = c.pool.Route(key, nil); b == nil {
			refused = ErrNoBackends
		}
		if refused != nil {
			// The accepted prefix is real: it is journaled and forwarded
			// below before the rest is refused — an accepted ticket must
			// correspond to a journaled and forwarded (or explicitly
			// failing) job, never to one silently stranded in the table.
			c.stats.Rejected++
			break
		}
		st := c.add(key, job)
		st.backend = b
		admitted = append(admitted, st)
		tickets = append(tickets, JobTicket{Key: key, Status: StatusQueued})
	}
	c.mu.Unlock()

	// Write-ahead: accepted jobs hit the journal before their tickets
	// are returned (and before forwarding, whose acknowledgement the
	// journal does not need).
	for _, st := range admitted {
		job := st.job
		c.journalAppend(JournalRecord{T: journalJob, Key: st.key, Job: &job})
	}
	c.place(ctx, admitted, nil)

	// Refresh ticket statuses after forwarding: a backend answering from
	// its cache reports "done" immediately, with the result, which lets
	// clients skip the status poll and the result fetch on warm grids.
	c.mu.Lock()
	for i := range tickets {
		tickets[i].Status = c.byKey[tickets[i].Key].status
	}
	c.mu.Unlock()
	return tickets, refused
}

// Join adds addr to the pool at a new epoch and reacts to the exact
// ownership delta the ring change produced: live moved keys re-forward
// to the joiner, and finished moved keys warm-hand their cached results
// to the joiner's cache — the joiner pulls them from the backend that
// actually computed each key via GET /v1/cache/{key}, so a pool scale-up
// costs cache transfers, not recomputation. Idempotent: re-joining a
// present member reports Changed=false and bumps nothing.
func (c *Coordinator) Join(ctx context.Context, addr string) (MembershipChange, error) {
	addr = normalizeBackendAddr(addr)
	if addr == "" {
		return MembershipChange{}, errors.New("service: join needs a backend address")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return MembershipChange{}, ErrStationClosed
	}
	c.mu.Unlock()

	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	b, epoch, before, after, joined := c.pool.Join(addr)
	ch := MembershipChange{Addr: addr, Action: "join", Epoch: epoch, Changed: joined, Members: c.pool.Len()}
	if !joined {
		return ch, nil
	}
	c.journalAppend(JournalRecord{T: journalJoin, Addr: addr, Epoch: epoch})

	moves := c.ownershipMoves(before, after)
	ch.MovedKeys = len(moves)

	// Live moved keys re-forward to the joiner; finished ones are handed
	// off.
	var liveMoved []*jobState
	c.mu.Lock()
	for _, mv := range moves {
		if st := c.byKey[mv.Key]; st != nil && !st.final() {
			st.backend = b
			st.forwarded = false
			c.set(st, StatusQueued)
			liveMoved = append(liveMoved, st)
		}
	}
	c.mu.Unlock()
	ch.Reassigned = len(liveMoved)
	ch.Transferred = c.handOff(ctx, moves)
	c.place(ctx, liveMoved, nil)
	return ch, nil
}

// Leave removes addr from the pool at a new epoch, draining it: every
// live key placed on the leaver re-forwards to its new ring owner, and
// the leaver's finished keys warm-hand their cached results to each new
// owner (best effort — the leaver may already be gone). Removing the
// last member is refused with ErrLastBackend; removing a non-member is
// ErrUnknownBackend.
func (c *Coordinator) Leave(ctx context.Context, addr string) (MembershipChange, error) {
	addr = normalizeBackendAddr(addr)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return MembershipChange{}, ErrStationClosed
	}
	c.mu.Unlock()

	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.pool.ByAddr(addr) == nil {
		return MembershipChange{}, fmt.Errorf("%w: %s", ErrUnknownBackend, addr)
	}
	if c.pool.Len() == 1 {
		return MembershipChange{}, ErrLastBackend
	}
	b, epoch, before, after, removed := c.pool.Leave(addr)
	ch := MembershipChange{Addr: addr, Action: "leave", Epoch: epoch, Changed: removed, Members: c.pool.Len()}
	if !removed {
		return MembershipChange{}, fmt.Errorf("%w: %s", ErrUnknownBackend, addr)
	}
	c.journalAppend(JournalRecord{T: journalLeave, Addr: addr, Epoch: epoch})

	moves := c.ownershipMoves(before, after)
	ch.MovedKeys = len(moves)

	// Every live key placed on the leaver drains to a survivor — not
	// just ring-moved ones: reroutes may have parked keys there that the
	// ring never owned.
	var drain []*jobState
	c.mu.Lock()
	for _, st := range c.byKey {
		if !st.final() && st.backend == b {
			drain = append(drain, st)
		}
	}
	c.mu.Unlock()
	ch.Reassigned = c.place(ctx, drain, b)
	ch.Transferred = c.handOff(ctx, moves)
	return ch, nil
}

// ownershipMoves computes the exact key-ownership delta between two
// ring snapshots over every key the coordinator knows.
func (c *Coordinator) ownershipMoves(before, after *runner.Ring) []runner.KeyMove {
	c.mu.Lock()
	keys := make([]runner.JobKey, 0, len(c.byKey))
	for key := range c.byKey {
		keys = append(keys, key)
	}
	c.mu.Unlock()
	return runner.OwnershipDelta(before, after, keys)
}

// handOff is the cache-warm handoff of a membership change: each finished
// moved key's new owner pulls its cached result from the backend where
// the key actually ran — which a reroute may have made a different
// backend than the old ring owner — via POST /v1/cache/pull (which
// fetches GET /v1/cache/{key} from the source), in bounded chunks. It
// counts the moved keys and returns how many results transferred;
// misses mean the source never cached the key (e.g. it ran cacheless)
// and simply stay cold.
func (c *Coordinator) handOff(ctx context.Context, moves []runner.KeyMove) int {
	pulls := map[*Backend]map[string][]runner.JobKey{} // new owner → source → keys
	c.mu.Lock()
	for _, mv := range moves {
		st, to := c.byKey[mv.Key], c.pool.ByAddr(mv.To)
		if st == nil || to == nil || !st.final() || st.status != StatusDone {
			continue
		}
		from := mv.From
		if st.backend != nil {
			from = st.backend.Addr()
		}
		if from == "" || from == mv.To {
			continue
		}
		if pulls[to] == nil {
			pulls[to] = map[string][]runner.JobKey{}
		}
		pulls[to][from] = append(pulls[to][from], mv.Key)
	}
	c.stats.HandoffKeys += int64(len(moves))
	c.mu.Unlock()

	transferred := 0
	for to, bySource := range pulls {
		for from, keys := range bySource {
			for chunk := range slices.Chunk(keys, maxForwardBatch) {
				pctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.cfg.CallTimeout)
				res, err := to.client.CachePull(pctx, from, chunk)
				cancel()
				if err == nil {
					transferred += res.Transferred
				}
			}
		}
	}
	c.mu.Lock()
	c.stats.HandoffTransferred += int64(transferred)
	c.mu.Unlock()
	return transferred
}

// maxForwardBatch bounds one forwarded POST, safely under the backend
// server's maxJobsPerRequest so a large failover batch never trips the
// far end's per-request bound.
const maxForwardBatch = maxJobsPerRequest / 2

// forward submits one chunk of a backend's batch, handing the jobs back
// to place when the backend turns out to be dead. ctx contributes only
// values (the trace ID); each chunk gets its own timeout detached from
// the caller's cancellation.
func (c *Coordinator) forward(ctx context.Context, b *Backend, group []*jobState) {
	jobs := make([]runner.Job, len(group))
	for i, st := range group {
		jobs[i] = st.job
	}
	fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.cfg.CallTimeout)
	tks, err := b.client.Submit(fctx, jobs)
	cancel()
	if err == nil {
		b.reportSuccess(false)
		b.noteSubmitted(len(jobs))
		c.mu.Lock()
		for i, st := range group {
			if st.backend == b {
				st.forwarded = true
				c.learn(st, tks[i].Status, tks[i].Result)
			}
		}
		c.mu.Unlock()
		return
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.Code == http.StatusServiceUnavailable {
		// The backend ANSWERED: it is alive but refusing — its queue is
		// full past the forwarding client's own retries. That is
		// backpressure, not death: no circuit penalty, and no reroute,
		// which would dump the load on an equally-busy survivor and
		// forfeit cache affinity. The chunk stays assigned and
		// unforwarded; the prober's sweep re-forwards it as capacity
		// frees, and whatever prefix the backend did admit simply dedupes
		// there.
		return
	}
	b.reportFailure(c.cfg.FailThreshold, err, false)
	c.place(ctx, group, b)
}

// rerouteBudget bounds how many times one key is re-placed after backend
// failures before it fails outright.
const rerouteBudget = 8

// place is the one function that gives a live key a backend, and the
// only caller of forward. A key keeps a backend that is a routable pool
// member other than avoid, and is forwarded there only if the backend
// has not acknowledged it yet (an admission, a Join's reassignment, a
// chunk parked by backpressure or by a forward that raced Close on the
// far end). Any other key walks the ring, and why it lost its backend
// decides what that costs:
//
//   - never placed (journal replay into an empty or all-down pool): it
//     takes the first routable backend, or waits for the next sweep;
//   - its backend left the pool: it drains to a survivor without
//     touching the reroute budget or the rerouted counters;
//   - its backend failed — its circuit is open, or it is avoid, the
//     backend a caller just watched fail, which may not have tripped its
//     circuit yet: the move spends one unit of the key's reroute budget
//     and counts in rerouted / rerouted_away.
//
// A key that left or failed and that no routable backend will take, or
// whose budget has run out, fails terminally so its waiters unblock.
// With avoid set only keys still on avoid move, so concurrent reporters
// of one failure re-place a key once: the first to move st.backend wins.
// Placements are grouped by backend and forwarded as BATCHES, in bounded
// chunks (a failed 500-job batch becomes one bulk POST per survivor, not
// 500 sequential calls); a chunk whose new owner also fails comes back
// here through forward — bounded, because every such hop spends budget.
// Duplicate forwards are harmless: backends dedupe by key. ctx
// contributes only the trace ID. Returns how many keys moved.
func (c *Coordinator) place(ctx context.Context, group []*jobState, avoid *Backend) (moved int) {
	targets := map[*Backend][]*jobState{}
	c.mu.Lock()
	for _, st := range group {
		if st.final() || (avoid != nil && st.backend != avoid) {
			continue
		}
		from := st.backend
		member := from != nil && c.pool.has(from)
		if member && from != avoid && from.routable() {
			if !st.forwarded {
				targets[from] = append(targets[from], st)
			}
			continue
		}
		// A member that gets here failed (it is avoid, or its circuit is
		// open); a nil or departed from costs the key nothing.
		if member && st.reroutes >= rerouteBudget {
			c.fail(st, fmt.Sprintf(
				"service: job %s still unplaced after %d reroutes: %v", st.key, st.reroutes, ErrNoBackends))
			continue
		}
		// Route skips from, but hands it back when it is the only
		// routable member left: retrying the sole survivor beats failing.
		b := c.pool.Route(st.key, from)
		if b == nil {
			if from != nil {
				c.fail(st, ErrNoBackends.Error())
			}
			continue
		}
		if member {
			st.reroutes++
			c.stats.Rerouted++
			if b != from {
				from.noteRerouted()
			}
		}
		st.backend = b
		st.forwarded = false
		c.set(st, StatusQueued)
		targets[b] = append(targets[b], st)
		moved++
	}
	c.mu.Unlock()
	for b, sub := range targets {
		for chunk := range slices.Chunk(sub, maxForwardBatch) {
			c.forward(ctx, b, chunk)
		}
	}
	return moved
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
		for _, b := range c.pool.All() {
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			_, err := b.client.Healthz(ctx)
			cancel()
			b.noteProbe()
			if err != nil {
				b.reportFailure(c.cfg.FailThreshold, err, true)
			} else {
				b.reportSuccess(true)
			}
		}
		c.sweepStranded()
		timer.Reset(jitter(c.cfg.ProbeInterval))
	}
}

// sweepStranded is the prober's safety net: every live key goes through
// place, which moves the ones stranded on an unroutable backend,
// forwards the ones accepted but never acknowledged, gives the unplaced
// ones a backend once one is routable, and leaves the rest alone.
func (c *Coordinator) sweepStranded() {
	var live []*jobState
	c.mu.Lock()
	for _, st := range c.byKey {
		if !st.final() {
			live = append(live, st)
		}
	}
	c.mu.Unlock()
	c.place(context.Background(), live, nil)
}

// Status reports a key's position without waiting; see Wait.
func (c *Coordinator) Status(key runner.JobKey) (Status, bool) {
	return c.Wait(context.Background(), key, 0)
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
	c.mu.Lock()
	st := c.byKey[key]
	if st == nil {
		c.mu.Unlock()
		return "", false
	}
	if st.final() || !st.forwarded {
		s := st.status
		c.mu.Unlock()
		return s, true
	}
	b := st.backend
	c.mu.Unlock()

	wctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	defer context.AfterFunc(c.ctx, cancel)()
	js, err := b.client.Wait(wctx, key, d)
	switch {
	case err == nil:
		b.reportSuccess(false)
		c.mu.Lock()
		if st.backend == b {
			c.learn(st, js.Status, js.Result)
		}
		c.mu.Unlock()
	case ctx.Err() != nil || c.ctx.Err() != nil:
		// We hung up, not the backend.
	case c.proxyFailed(ctx, st, b, err):
		return StatusQueued, true
	}
	// The backend is alive; report the last status we believed.
	c.mu.Lock()
	defer c.mu.Unlock()
	return st.status, true
}

// Result returns a terminal result (see finished).
func (c *Coordinator) Result(ctx context.Context, key runner.JobKey) (runner.Result, bool) {
	if st := c.finished(ctx, key); st != nil {
		return st.result, true
	}
	return runner.Result{}, false
}

// learn records a backend's answer for st, under c.mu: a terminal one
// that carried its result finishes st, memoizing the result with no
// fetch; otherwise st takes the answer's status.
func (c *Coordinator) learn(st *jobState, status Status, result json.RawMessage) {
	var wr WireResult
	if status.terminal() && json.Unmarshal(result, &wr) == nil {
		c.finish(st, runner.Result{Job: st.job, Metrics: wr.Metrics, Err: wr.Error})
	} else {
		c.set(st, status)
	}
}

// finished returns key's state once its result is final, else nil. The
// result is memoized from the backend answer that carried it (see learn)
// or else from one proxied fetch, so later calls (and the coordinator's
// own failure handling) never depend on the backend staying alive after
// completion. ctx contributes only its trace ID: an abandoned fetch must
// not read as a backend failure.
func (c *Coordinator) finished(ctx context.Context, key runner.JobKey) *jobState {
	c.mu.Lock()
	st := c.byKey[key]
	if st == nil || st.final() || !st.forwarded {
		c.mu.Unlock()
		if st == nil || !st.final() {
			return nil
		}
		return st
	}
	b := st.backend
	c.mu.Unlock()

	ctx = context.WithoutCancel(ctx)
	rctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	wr, err := b.client.Result(rctx, key)
	cancel()
	if err == nil {
		b.reportSuccess(false)
		c.mu.Lock()
		c.finish(st, runner.Result{Job: st.job, Metrics: wr.Metrics, Err: wr.Error})
		c.mu.Unlock()
		return st
	}
	// Not fetched: the key is known but unfinished (409), or it was just
	// re-placed.
	c.proxyFailed(ctx, st, b, err)
	return nil
}

// proxyFailed classifies the error of a status or result call proxied to
// b for st, and reports whether it re-placed the key. A transport
// failure counts against b's circuit and re-places now; a 404 means b
// answered but has never heard of the key — it restarted and lost its
// in-memory states — so the key is re-placed with no circuit penalty;
// any other API answer means b is alive and the key stays.
func (c *Coordinator) proxyFailed(ctx context.Context, st *jobState, b *Backend, err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		b.reportFailure(c.cfg.FailThreshold, err, false)
	} else if ae.Code != http.StatusNotFound {
		return false
	}
	c.place(ctx, []*jobState{st}, b)
	return true
}

// RingEpoch returns the pool's monotonic membership epoch.
func (c *Coordinator) RingEpoch() uint64 { return c.pool.Epoch() }

// Backends reports the pool with per-backend live-key assignment counts
// and ring shares — the /v1/backendsz document.
func (c *Coordinator) Backends() []BackendStatus {
	assigned := map[string]int{}
	c.mu.Lock()
	for _, st := range c.byKey {
		if !st.final() && st.backend != nil {
			assigned[st.backend.addr]++
		}
	}
	c.mu.Unlock()
	statuses := c.pool.Statuses()
	for i := range statuses {
		statuses[i].Assigned = assigned[statuses[i].Addr]
	}
	return statuses
}
