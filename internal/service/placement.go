package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"gpulat/internal/runner"
)

// ErrNoBackends is returned when a job cannot be placed because every
// backend's circuit is open (or the pool is empty). HTTP maps it to 503
// so clients back off and retry — the prober may close a circuit again,
// or a backend may join.
var ErrNoBackends = errors.New("service: no healthy backends")

// ErrUnknownBackend is returned by Leave for an address that is not a
// pool member. HTTP maps it to 404.
var ErrUnknownBackend = errors.New("service: unknown backend")

// ErrLastBackend is returned by Coordinator.Leave when removing the
// address would leave the pool empty — an elastic tier scales to one,
// not to zero, while a coordinator is serving. HTTP maps it to 409.
var ErrLastBackend = errors.New("service: cannot remove the last backend")

// BackendStatus is one backend's routing and health view, reported by
// GET /v1/backendsz on a coordinator.
type BackendStatus struct {
	Addr    string `json:"addr" metric:"backend"`
	Healthy bool   `json:"healthy" metric:"gpulat_backend_up,gauge,1 while the backend's circuit is closed (routable), else 0."`
	// Circuit is "closed" while the backend is routable and "open" after
	// FailThreshold consecutive failures; the health prober closes it
	// again on the first successful probe.
	Circuit             string `json:"circuit"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty" metric:"gpulat_backend_consecutive_failures,gauge,Worse of the backend's consecutive probe/call failure streaks."`
	LastError           string `json:"last_error,omitempty"`
	Probes              int64  `json:"probes" metric:"gpulat_backend_probes_total,counter,Health probes sent to the backend."`
	// Submitted counts jobs forwarded to this backend (including
	// re-forwards after reroutes elsewhere failed).
	Submitted int64 `json:"submitted" metric:"gpulat_backend_submitted_total,counter,Jobs forwarded to the backend (including re-forwards)."`
	// Assigned is the number of live (non-terminal) keys currently
	// placed on this backend.
	Assigned int `json:"assigned" metric:"gpulat_backend_assigned,gauge,Live (non-terminal) keys currently placed on the backend."`
	// ReroutedAway counts keys moved off this backend after it failed.
	ReroutedAway int64 `json:"rerouted_away,omitempty" metric:"gpulat_backend_rerouted_away_total,counter,Keys moved off the backend after it failed."`
	// Share is the fraction of the consistent-hash ring this backend's
	// vnodes own — the expected share of a uniform key population it
	// serves at the current membership epoch.
	Share float64 `json:"ring_share" metric:"gpulat_backend_ring_share,gauge,Fraction of the consistent-hash ring the backend's vnodes own at the current epoch."`
}

// Backend is one routable `gpulat serve` endpoint plus its circuit
// state, guarded by the coordinator's lock. All circuit mutation goes
// through report* so the failure counts and the circuit flag stay
// consistent. Probe failures and forwarded-call failures are counted
// SEPARATELY: either kind of consecutive-failure streak opens the
// circuit, and — crucially — a succeeding health probe does not reset
// the call-failure streak, so a backend whose /v1/healthz answers
// happily while its job handling is broken still fails out.
type Backend struct {
	addr   string // normalized base URL, e.g. "http://127.0.0.1:8092"
	client *Client

	open             bool
	consecCallFails  int
	consecProbeFails int
	lastErr          string
	probes           int64
	submitted        int64
	rerouted         int64
}

// reportFailure records one failed probe or forwarded call, opening the
// circuit when either streak reaches threshold.
func (b *Backend) reportFailure(threshold int, err error, probe bool) {
	if probe {
		b.consecProbeFails++
	} else {
		b.consecCallFails++
	}
	if err != nil {
		b.lastErr = err.Error()
	}
	b.open = b.open || b.consecProbeFails >= threshold || b.consecCallFails >= threshold
}

// reportSuccess records one successful probe or forwarded call. A
// successful call is the strongest health signal: it clears both streaks
// and closes the circuit. A successful probe clears only the probe
// streak while the circuit is closed — it must not mask an accumulating
// call-failure streak — but while the circuit is OPEN it closes it and
// resets both (the recovery path: a restarted backend answers probes
// before anyone routes calls to it again).
func (b *Backend) reportSuccess(probe bool) {
	if probe && !b.open {
		b.consecProbeFails = 0
		return
	}
	b.open, b.consecCallFails, b.consecProbeFails, b.lastErr = false, 0, 0, ""
}

// normalizeBackendAddr turns "host:port" into a base URL and strips
// trailing slashes; full URLs pass through.
func normalizeBackendAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr != "" && !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// backendIdleConns sizes the per-backend keep-alive pool: a forwarded
// long-poll holds its connection for the whole wait, so the default
// transport's two per host would re-dial for every further waiter.
const backendIdleConns = 64

// placement is the coordinator's decision core: the key table, the pool
// of backends with the consistent-hash ring that places JobKeys on them,
// and every rule that gives a key a backend, all under the table's one
// lock (jobs.mu), which its methods expect held. None makes a call,
// reads a clock or starts a goroutine. A decision (admit, join, leave,
// sweep, close) returns a plan, which the Coordinator carries out once
// it has dropped the lock, and each outcome comes back as the next
// event (forwarded, waited, handedOff, probed), which may plan
// again.
//
// Each backend contributes runner.RingVnodes virtual points, so load
// spreads evenly even with two backends. A join or leave swaps in a new
// immutable ring and bumps a monotonic epoch; comparing the ring before
// with the one after gives the exact ownership delta, which only remaps
// the keys whose arc the change touched and so preserves backend-local
// cache affinity. An empty pool is valid: it routes nothing (callers see
// ErrNoBackends) until the first join — the shape of a coordinator
// started with no static -backends list, waiting for `gpulat serve
// -join` registrations.
type placement struct {
	jobs
	queueBound int
	threshold  int // consecutive failures that open a circuit
	// transport is the connection pool the backend clients share.
	transport *http.Transport

	epoch   uint64
	members []*Backend // configuration-then-join order
	byAddr  map[string]*Backend
	ring    *runner.Ring
	// positions holds every key the table has held, with its ring
	// position, so an ownership delta walks a flat list and touches a
	// key's state only when the key moved.
	positions []position
}

type position struct {
	hash uint64 // runner.JobKey.Hash64
	key  runner.JobKey
}

// newPlacement builds the pool over cfg.Backends ("host:port" or base
// URLs) at epoch 1; blanks and duplicates are dropped.
func newPlacement(cfg CoordinatorConfig) *placement {
	c := &placement{
		jobs:       jobs{byKey: map[runner.JobKey]*jobState{}},
		queueBound: cfg.QueueBound,
		threshold:  cfg.FailThreshold,
		transport:  http.DefaultTransport.(*http.Transport).Clone(),
		epoch:      1,
		byAddr:     map[string]*Backend{},
	}
	c.transport.MaxIdleConns = 0 // the per-host bound governs
	c.transport.MaxIdleConnsPerHost = backendIdleConns
	var addrs []string
	for _, addr := range cfg.Backends {
		if addr = normalizeBackendAddr(addr); addr != "" && c.byAddr[addr] == nil {
			c.addMember(addr)
			addrs = append(addrs, addr)
		}
	}
	c.ring = runner.NewRing(addrs, runner.RingVnodes)
	return c
}

// addMember makes addr a member with its own client; the ring is the
// caller's to update.
func (c *placement) addMember(addr string) *Backend {
	// The coordinator handles rerouting itself; keep the forwarding
	// client's own 503 retries short so a wedged backend fails over
	// quickly instead of being politely waited on.
	b := &Backend{addr: addr, client: &Client{Base: addr, HTTP: &http.Client{Transport: c.transport}, MaxAttempts: 3}}
	c.members = append(c.members, b)
	c.byAddr[addr] = b
	return b
}

// route returns the backend owning key: the key's ring owner, or the
// next member clockwise when the owner's circuit is open. avoid (the
// backend a caller just watched fail, which may not have tripped its
// circuit yet) is skipped too — unless it is the only routable backend
// left, in which case it is returned anyway: retrying the sole survivor
// beats failing the job. Returns nil when nothing is routable.
func (c *placement) route(key runner.JobKey, avoid *Backend) *Backend {
	var chosen *Backend
	c.ring.Walk(key, func(member string) bool {
		b := c.byAddr[member]
		if b == nil || b == avoid || b.open {
			return true
		}
		chosen = b
		return false
	})
	if chosen == nil && avoid != nil && !avoid.open && c.has(avoid) {
		return avoid
	}
	return chosen
}

func (c *placement) has(b *Backend) bool { return c.byAddr[b.addr] == b }

// plan is what one decision leaves to do outside the lock, in order:
// journal records to append, forwards to send (one batch per backend)
// and the cache pulls of a membership change that moved `moved` keys.
// The zero plan does nothing.
type plan struct {
	journal  []JournalRecord
	forwards []forward
	pulls    []pull
	moved    int
}

type forward struct {
	b     *Backend
	group []*jobState
}

// pull asks to fetch keys' cached results from the backend at from.
type pull struct {
	to   *Backend
	from string
	keys []runner.JobKey
}

func (p *plan) empty() bool {
	return len(p.journal) == 0 && len(p.forwards) == 0 && len(p.pulls) == 0 && p.moved == 0
}

// send adds st to b's batch.
func (p *plan) send(b *Backend, st *jobState) {
	for i := range p.forwards {
		if p.forwards[i].b == b {
			p.forwards[i].group = append(p.forwards[i].group, st)
			return
		}
	}
	p.forwards = append(p.forwards, forward{b, []*jobState{st}})
}

// admit applies the admission rule to jobs in order and places each new
// key on its ring backend. Known keys dedup as on a station. A full
// table refuses with ErrQueueFull and an unroutable key with
// ErrNoBackends, keeping the accepted prefix: an accepted ticket is a
// journaled and forwarded (or explicitly failing) job, never one
// stranded in the table. After close the whole call is refused.
//
// A replayed job was accepted by an earlier incarnation and is in the
// journal already: it is re-admitted whatever the bound or the pool (an
// unroutable one waits for the sweep), counts as replayed, and is not
// journaled again.
func (c *placement) admit(jobs []runner.Job, replayed bool) ([]JobTicket, plan, error) {
	var p plan
	var admitted []*jobState
	var refused error
	tickets := make([]JobTicket, 0, len(jobs))
	for _, job := range jobs {
		key := job.Key()
		if !replayed {
			status, known, err := c.attach(key)
			if err != nil {
				return nil, plan{}, err
			}
			c.stats.Submitted++
			if known {
				tickets = append(tickets, JobTicket{Key: key, Status: status})
				continue
			}
		} else if c.byKey[key] != nil {
			continue
		}
		b := c.route(key, nil)
		switch {
		case replayed:
			c.stats.Replayed++
		case c.pending >= c.queueBound:
			refused = ErrQueueFull
		case b == nil:
			refused = ErrNoBackends
		}
		if refused != nil {
			c.stats.Rejected++
			break
		}
		if c.byKey[key] == nil {
			c.positions = append(c.positions, position{key.Hash64(), key})
		}
		st := c.add(key, job)
		st.backend = b
		if !replayed {
			p.journal = append(p.journal, JournalRecord{T: journalJob, Key: key, Job: &st.job})
		}
		admitted = append(admitted, st)
		tickets = append(tickets, JobTicket{Key: key, Status: StatusQueued})
	}
	c.place(&p, admitted, nil)
	return tickets, p, refused
}

// rerouteBudget bounds how many times one key is re-placed after backend
// failures before it fails outright.
const rerouteBudget = 8

// place is the one rule that gives a live key a backend, and the only
// source of forwards. A key keeps a backend that is a routable pool
// member other than avoid, and is forwarded there only if the backend
// has not acknowledged it yet (an admission, a Join's reassignment, a
// chunk parked by backpressure or by a forward cut short). Any other key
// walks the ring, and why it lost its backend decides what that costs:
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
// With avoid set only keys still on avoid move, so several reporters of
// one failure re-place a key once. A batch whose new owner also fails
// comes back here through forwarded — bounded, because every such hop
// spends budget. Duplicate forwards are harmless: backends dedupe by
// key. Returns how many keys moved.
func (c *placement) place(p *plan, group []*jobState, avoid *Backend) (moved int) {
	for _, st := range group {
		if st.final() || (avoid != nil && st.backend != avoid) {
			continue
		}
		from := st.backend
		member := from != nil && c.has(from)
		if member && from != avoid && !from.open {
			if !st.forwarded {
				p.send(from, st)
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
		b := c.route(st.key, from)
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
				from.rerouted++
			}
		}
		st.backend = b
		st.forwarded = false
		c.set(st, StatusQueued)
		p.send(b, st)
		moved++
	}
	return moved
}

// forwarded takes the outcome of forwarding group to b. An answer
// acknowledges the keys still placed on b and records what it said for
// each (see learn). A 503 means b ANSWERED: it is alive but its queue is
// full past the forwarding client's own retries. That is backpressure,
// not death: no circuit penalty, and no reroute, which would dump the
// load on an equally-busy survivor and forfeit cache affinity. The
// batch stays assigned and unforwarded; the next sweep re-forwards it as
// capacity frees, and whatever prefix b did admit simply dedupes there.
// Any other error is b failing, and the batch is re-placed.
func (c *placement) forwarded(b *Backend, group []*jobState, tks []JobTicket, err error) (p plan) {
	var ae *APIError
	switch {
	case err == nil:
		b.reportSuccess(false)
		b.submitted += int64(len(group))
		for i, st := range group {
			if st.backend == b {
				st.forwarded = true
				c.learn(st, tks[i].Status, tks[i].Result)
			}
		}
	case errors.As(err, &ae) && ae.Code == http.StatusServiceUnavailable:
	default:
		b.reportFailure(c.threshold, err, false)
		c.place(&p, group, b)
	}
	return p
}

// learn records a backend's answer for st: a terminal one finishes st,
// memoizing the result it carries; otherwise st takes the answer's
// status. A terminal answer without a readable result fails st, naming
// the backend, so no key is left terminal with no final result.
func (c *placement) learn(st *jobState, status Status, result json.RawMessage) {
	if !status.terminal() {
		c.set(st, status)
		return
	}
	var wr WireResult
	if err := json.Unmarshal(result, &wr); err != nil {
		c.fail(st, fmt.Sprintf("service: backend %s answered job %s %s without a readable result: %v",
			st.backend.addr, st.key, status, err))
		return
	}
	c.finish(st, runner.Result{Job: st.job, Metrics: wr.Metrics, Err: wr.Error})
}

// waited takes the outcome of a status call proxied to b for st.
func (c *placement) waited(st *jobState, b *Backend, js JobStatus, err error) plan {
	if err != nil {
		return c.proxyFailed(st, b, err)
	}
	b.reportSuccess(false)
	if st.backend == b {
		c.learn(st, js.Status, js.Result)
	}
	return plan{}
}

// proxyFailed classifies the error of a status call proxied to b for
// st. A transport failure counts against b's circuit and
// re-places the key now; a 404 means b answered but has never heard of
// the key — it restarted and lost its in-memory states — so the key is
// re-placed with no circuit penalty; any other API answer means b is
// alive and the key stays.
func (c *placement) proxyFailed(st *jobState, b *Backend, err error) (p plan) {
	var ae *APIError
	if !errors.As(err, &ae) {
		b.reportFailure(c.threshold, err, false)
	} else if ae.Code != http.StatusNotFound {
		return p
	}
	c.place(&p, []*jobState{st}, b)
	return p
}

// probed takes one health probe's outcome for b.
func (c *placement) probed(b *Backend, err error) {
	b.probes++
	if err != nil {
		b.reportFailure(c.threshold, err, true)
	} else {
		b.reportSuccess(true)
	}
}

// sweep is the safety net after each probe round: every live key goes
// through place, which moves the ones stranded on an unroutable backend,
// forwards the ones accepted but never acknowledged, gives the unplaced
// ones a backend once one is routable, and leaves the rest alone.
func (c *placement) sweep() (p plan) {
	c.place(&p, c.live(), nil)
	return p
}

// live lists every state whose result is not final.
func (c *placement) live() (sts []*jobState) {
	for _, st := range c.byKey {
		if !st.final() {
			sts = append(sts, st)
		}
	}
	return sts
}

// join adds addr to the pool at a new epoch and reacts to the exact
// ownership delta the ring change produced: live moved keys re-forward
// to the joiner, and finished moved keys are handed off (see handOff).
// Re-joining a present member reports Changed=false and bumps nothing.
func (c *placement) join(addr string) (MembershipChange, plan, error) {
	var p plan
	addr = normalizeBackendAddr(addr)
	switch {
	case addr == "":
		return MembershipChange{}, p, errors.New("service: join needs a backend address")
	case c.closed:
		return MembershipChange{}, p, ErrStationClosed
	case c.byAddr[addr] != nil:
		return MembershipChange{Addr: addr, Action: "join", Epoch: c.epoch, Members: len(c.members)}, p, nil
	}
	before := c.ring
	b := c.addMember(addr)
	c.ring = before.WithMember(addr)
	c.epoch++
	ch := MembershipChange{Addr: addr, Action: "join", Epoch: c.epoch, Changed: true, Members: len(c.members)}
	p.journal = append(p.journal, JournalRecord{T: journalJoin, Addr: addr, Epoch: ch.Epoch})
	live := c.handOff(&p, before)
	for _, st := range live {
		st.backend = b
		st.forwarded = false
		c.set(st, StatusQueued)
	}
	ch.MovedKeys, ch.Reassigned = p.moved, len(live)
	c.place(&p, live, nil)
	return ch, p, nil
}

// leave removes addr from the pool at a new epoch, draining it: every
// live key placed on the leaver — not just the ring-moved ones: a
// routing around an open circuit or a reroute may have parked keys there
// that the ring never gave it — re-places on a survivor, and the finished
// moved keys are handed off. Removing the last member is refused with
// ErrLastBackend, and a non-member with ErrUnknownBackend.
func (c *placement) leave(addr string) (MembershipChange, plan, error) {
	var p plan
	addr = normalizeBackendAddr(addr)
	b := c.byAddr[addr]
	switch {
	case c.closed:
		return MembershipChange{}, p, ErrStationClosed
	case b == nil:
		return MembershipChange{}, p, fmt.Errorf("%w: %s", ErrUnknownBackend, addr)
	case len(c.members) == 1:
		return MembershipChange{}, p, ErrLastBackend
	}
	before := c.ring
	delete(c.byAddr, addr)
	c.members = slices.DeleteFunc(c.members, func(have *Backend) bool { return have == b })
	c.ring = before.WithoutMember(addr)
	c.epoch++
	ch := MembershipChange{Addr: addr, Action: "leave", Epoch: c.epoch, Changed: true, Members: len(c.members)}
	p.journal = append(p.journal, JournalRecord{T: journalLeave, Addr: addr, Epoch: ch.Epoch})
	ch.Reassigned = c.place(&p, c.live(), b) // avoid=b: exactly the keys on b move
	c.handOff(&p, before)
	ch.MovedKeys = p.moved
	return ch, p, nil
}

// handOff plans the cache-warm handoff of a membership change from ring
// before to the current one: it counts the exact ownership delta over
// every known key in p.moved and returns the live moved keys. Each
// finished moved key's new owner pulls its cached result from the
// backend where the key actually ran — which a reroute may have made a
// different backend than the old ring owner — via POST /v1/cache/pull
// (which fetches GET /v1/cache/{key} from the source). A miss means the
// source never cached the key (e.g. it ran cacheless), which then simply
// stays cold.
func (c *placement) handOff(p *plan, before *runner.Ring) (live []*jobState) {
next:
	for _, pos := range c.positions {
		from, _ := before.OwnerHash(pos.hash)
		to, _ := c.ring.OwnerHash(pos.hash)
		if from == to {
			continue
		}
		p.moved++
		st := c.byKey[pos.key]
		if !st.final() {
			live = append(live, st)
			continue
		}
		if st.backend != nil {
			from = st.backend.addr
		}
		dst := c.byAddr[to]
		if dst == nil || st.status != StatusDone || from == "" || from == to {
			continue
		}
		for i := range p.pulls {
			if pl := &p.pulls[i]; pl.to == dst && pl.from == from {
				pl.keys = append(pl.keys, st.key)
				continue next
			}
		}
		p.pulls = append(p.pulls, pull{dst, from, []runner.JobKey{st.key}})
	}
	return live
}

// handedOff records a carried-out handoff: the keys it moved and the
// results its pulls transferred.
func (c *placement) handedOff(moved, transferred int) {
	c.stats.HandoffKeys += int64(moved)
	c.stats.HandoffTransferred += int64(transferred)
}

// close refuses every later decision and fails every live key so no
// waiter blocks. It reports false when the table was closed already.
func (c *placement) close() bool {
	if c.closed {
		return false
	}
	c.closed = true
	c.failLive("service: coordinator closed before the job finished")
	return true
}

// replay re-applies a previous incarnation's journal through the
// decisions live traffic takes — admit for a job, join and leave for a
// membership change, in the order they happened, which reconstructs the
// epoch — and drops their plans: the records are on disk already, and
// the prober's first sweep forwards every replayed key (the backends'
// dedup and caches answer finished ones without recomputing).
func (c *placement) replay(records []JournalRecord) {
	for _, rec := range records {
		switch {
		case rec.T == journalJoin:
			c.join(rec.Addr)
		case rec.T == journalLeave:
			c.leave(rec.Addr)
		case rec.T == journalJob && rec.Job != nil:
			c.admit([]runner.Job{*rec.Job}, true)
		}
	}
}

// backends reports every member in configuration-then-join order: its
// circuit and counters, its ring share at the current epoch and its
// live keys. ConsecutiveFailures is the worse of the two streaks.
func (c *placement) backends() []BackendStatus {
	shares := c.ring.Shares()
	out := make([]BackendStatus, len(c.members))
	for i, b := range c.members {
		out[i] = BackendStatus{
			Addr: b.addr, Healthy: !b.open, Circuit: "closed",
			ConsecutiveFailures: max(b.consecCallFails, b.consecProbeFails), LastError: b.lastErr,
			Probes: b.probes, Submitted: b.submitted, ReroutedAway: b.rerouted, Share: shares[b.addr],
		}
		if b.open {
			out[i].Circuit = "open"
		}
	}
	for _, st := range c.live() {
		if i := slices.Index(c.members, st.backend); i >= 0 {
			out[i].Assigned++
		}
	}
	return out
}
