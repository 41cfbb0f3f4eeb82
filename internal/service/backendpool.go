package service

import (
	"errors"
	"net/http"
	"strings"
	"sync"

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
// state. All mutation goes through report* so the failure counts and
// the circuit flag stay consistent. Probe failures and forwarded-call
// failures are counted SEPARATELY: either kind of consecutive-failure
// streak opens the circuit, and — crucially — a succeeding health probe
// does not reset the call-failure streak, so a backend whose /v1/healthz
// answers happily while its job handling is broken still fails out.
type Backend struct {
	addr   string // normalized base URL, e.g. "http://127.0.0.1:8092"
	client *Client

	mu               sync.Mutex
	open             bool
	consecCallFails  int
	consecProbeFails int
	lastErr          string
	probes           int64
	submitted        int64
	rerouted         int64
}

// Addr returns the backend's normalized base URL.
func (b *Backend) Addr() string { return b.addr }

// routable reports whether the circuit is closed.
func (b *Backend) routable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open
}

// reportFailure records one failed probe or forwarded call and returns
// true when exactly this failure opened the circuit (the transition the
// coordinator uses to trigger a proactive reroute sweep).
func (b *Backend) reportFailure(threshold int, err error, probe bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.consecProbeFails++
	} else {
		b.consecCallFails++
	}
	if err != nil {
		b.lastErr = err.Error()
	}
	if !b.open && (b.consecProbeFails >= threshold || b.consecCallFails >= threshold) {
		b.open = true
		return true
	}
	return false
}

// reportSuccess records one successful probe or forwarded call,
// returning true on the open→closed transition. A successful call is
// the strongest health signal: it clears both streaks and closes the
// circuit. A successful probe clears only the probe streak while the
// circuit is closed — it must not mask an accumulating call-failure
// streak — but while the circuit is OPEN it closes it and resets both
// (the recovery path: a restarted backend answers probes before anyone
// routes calls to it again).
func (b *Backend) reportSuccess(probe bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.consecProbeFails = 0
		if !b.open {
			return false
		}
	} else {
		b.consecCallFails = 0
		b.consecProbeFails = 0
	}
	b.lastErr = ""
	if b.open {
		b.open = false
		b.consecCallFails = 0
		b.consecProbeFails = 0
		return true
	}
	return false
}

func (b *Backend) noteProbe() {
	b.mu.Lock()
	b.probes++
	b.mu.Unlock()
}

func (b *Backend) noteSubmitted(n int) {
	b.mu.Lock()
	b.submitted += int64(n)
	b.mu.Unlock()
}

func (b *Backend) noteRerouted() {
	b.mu.Lock()
	b.rerouted++
	b.mu.Unlock()
}

// status snapshots the backend (Assigned and Share are filled by the
// pool/coordinator, which own the ring and the key→backend map).
// ConsecutiveFailures reports the worse of the two streaks.
func (b *Backend) status() BackendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	circuit := "closed"
	if b.open {
		circuit = "open"
	}
	fails := b.consecCallFails
	if b.consecProbeFails > fails {
		fails = b.consecProbeFails
	}
	return BackendStatus{
		Addr:                b.addr,
		Healthy:             !b.open,
		Circuit:             circuit,
		ConsecutiveFailures: fails,
		LastError:           b.lastErr,
		Probes:              b.probes,
		Submitted:           b.submitted,
		ReroutedAway:        b.rerouted,
	}
}

// ringVnodes is the virtual-node count per backend; see
// runner.RingVnodes for the arc-ratio rationale.
const ringVnodes = runner.RingVnodes

// normalizeBackendAddr turns "host:port" into a base URL and strips
// trailing slashes; full URLs pass through.
func normalizeBackendAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr != "" && !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// BackendPool owns the mutable set of backends and the consistent-hash
// ring that places JobKeys on them. Membership is a first-class runtime
// concept: Join and Leave rebuild the ring under the pool lock and bump
// a monotonic epoch, and each membership change hands the caller
// immutable before/after ring snapshots so it can compute the exact
// key-ownership delta (runner.OwnershipDelta) the change moved. Each
// backend contributes ringVnodes virtual points, so (a) load spreads
// evenly even with two backends and (b) one membership change only
// remaps the keys whose arc it touched — every other key keeps its
// placement, which is what preserves backend-local cache affinity
// across pool changes.
//
// An empty pool is valid: it routes nothing (callers see ErrNoBackends)
// until the first Join — the shape of a coordinator started with no
// static -backends list, waiting for `gpulat serve -join` registrations.
type BackendPool struct {
	threshold int
	// transport is the connection pool the backend clients share.
	transport *http.Transport

	mu       sync.RWMutex
	epoch    uint64
	backends []*Backend
	byAddr   map[string]*Backend
	ring     *runner.Ring
}

// NewBackendPool builds the ring over addrs ("host:port" or base URLs);
// blanks and duplicates are dropped, and an empty list is a valid empty
// pool. failThreshold <= 0 selects 3 consecutive failures before a
// circuit opens. The initial membership is epoch 1.
func NewBackendPool(addrs []string, failThreshold int) *BackendPool {
	if failThreshold <= 0 {
		failThreshold = 3
	}
	p := &BackendPool{threshold: failThreshold, byAddr: map[string]*Backend{}, epoch: 1}
	p.transport = http.DefaultTransport.(*http.Transport).Clone()
	p.transport.MaxIdleConns = 0 // the per-host bound governs
	p.transport.MaxIdleConnsPerHost = backendIdleConns
	for _, raw := range addrs {
		addr := normalizeBackendAddr(raw)
		if addr == "" || p.byAddr[addr] != nil {
			continue
		}
		b := p.newBackend(addr)
		p.backends = append(p.backends, b)
		p.byAddr[addr] = b
	}
	p.ring = runner.NewRing(p.addrsLocked(), ringVnodes)
	return p
}

// backendIdleConns sizes the per-backend keep-alive pool: a forwarded
// long-poll holds its connection for the whole wait, so the default
// transport's two per host would re-dial for every further waiter.
const backendIdleConns = 64

func (p *BackendPool) newBackend(addr string) *Backend {
	client := NewClient(addr)
	client.HTTP = &http.Client{Transport: p.transport}
	// The coordinator handles rerouting itself; keep the forwarding
	// client's own 503 retries short so a wedged backend fails over
	// quickly instead of being politely waited on.
	client.MaxAttempts = 3
	return &Backend{addr: addr, client: client}
}

func (p *BackendPool) addrsLocked() []string {
	addrs := make([]string, len(p.backends))
	for i, b := range p.backends {
		addrs[i] = b.addr
	}
	return addrs
}

// Join adds addr to the pool, rebuilding the ring and bumping the
// epoch. It is idempotent: joining a present member changes nothing and
// reports joined=false. The returned before/after rings are immutable
// snapshots for ownership-delta computation.
func (p *BackendPool) Join(addr string) (b *Backend, epoch uint64, before, after *runner.Ring, joined bool) {
	addr = normalizeBackendAddr(addr)
	p.mu.Lock()
	defer p.mu.Unlock()
	if addr == "" {
		return nil, p.epoch, p.ring, p.ring, false
	}
	if have := p.byAddr[addr]; have != nil {
		return have, p.epoch, p.ring, p.ring, false
	}
	b = p.newBackend(addr)
	p.backends = append(p.backends, b)
	p.byAddr[addr] = b
	before = p.ring
	p.ring = before.WithMember(addr)
	p.epoch++
	return b, p.epoch, before, p.ring, true
}

// Leave removes addr from the pool, rebuilding the ring and bumping the
// epoch. Removing a non-member reports removed=false with the Backend
// nil. The removed Backend object stays functional (its HTTP client
// still works) so in-flight drains and cache handoffs can keep talking
// to the departing process.
func (p *BackendPool) Leave(addr string) (b *Backend, epoch uint64, before, after *runner.Ring, removed bool) {
	addr = normalizeBackendAddr(addr)
	p.mu.Lock()
	defer p.mu.Unlock()
	b = p.byAddr[addr]
	if b == nil {
		return nil, p.epoch, p.ring, p.ring, false
	}
	delete(p.byAddr, addr)
	keep := p.backends[:0]
	for _, have := range p.backends {
		if have != b {
			keep = append(keep, have)
		}
	}
	p.backends = keep
	before = p.ring
	p.ring = before.WithoutMember(addr)
	p.epoch++
	return b, p.epoch, before, p.ring, true
}

// Close releases the idle backend connections; a later call re-dials.
func (p *BackendPool) Close() { p.transport.CloseIdleConnections() }

// Epoch returns the monotonic membership epoch: 1 for the initial
// membership, bumped by every successful Join or Leave.
func (p *BackendPool) Epoch() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.epoch
}

// Ring returns the current immutable ring snapshot.
func (p *BackendPool) Ring() *runner.Ring {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ring
}

// Len returns the member count.
func (p *BackendPool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.backends)
}

// All snapshots the member list in configuration-then-join order.
func (p *BackendPool) All() []*Backend {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]*Backend{}, p.backends...)
}

// Route returns the backend owning key: the key's ring owner, or the
// next member clockwise when the owner's circuit is open. avoid (the
// backend a caller just watched fail, which may not have tripped its
// circuit yet) is skipped too — unless it is the only routable backend
// left, in which case it is returned anyway: retrying the sole survivor
// beats failing the job. Returns nil when nothing is routable.
func (p *BackendPool) Route(key runner.JobKey, avoid *Backend) *Backend {
	p.mu.RLock()
	ring := p.ring
	byAddr := p.byAddr
	p.mu.RUnlock()

	var chosen *Backend
	ring.Walk(key, func(member string) bool {
		b := byAddr[member]
		if b == nil || b == avoid || !b.routable() {
			return true
		}
		chosen = b
		return false
	})
	if chosen != nil {
		return chosen
	}
	if avoid != nil && avoid.routable() && p.has(avoid) {
		return avoid
	}
	return nil
}

// Owner returns the key's pure ring owner at the current epoch,
// ignoring circuit state — the placement identity membership deltas and
// cache handoff reason about, as opposed to Route's failure-aware
// answer.
func (p *BackendPool) Owner(key runner.JobKey) *Backend {
	p.mu.RLock()
	defer p.mu.RUnlock()
	addr, ok := p.ring.Owner(key)
	if !ok {
		return nil
	}
	return p.byAddr[addr]
}

// ByAddr returns the member with the given (normalized) address.
func (p *BackendPool) ByAddr(addr string) *Backend {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.byAddr[normalizeBackendAddr(addr)]
}

func (p *BackendPool) has(b *Backend) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.byAddr[b.addr] == b
}

// Healthy counts routable backends.
func (p *BackendPool) Healthy() int {
	n := 0
	for _, b := range p.All() {
		if b.routable() {
			n++
		}
	}
	return n
}

// Statuses snapshots every backend in configuration-then-join order,
// including each member's ring-share fraction at the current epoch.
func (p *BackendPool) Statuses() []BackendStatus {
	p.mu.RLock()
	backends := append([]*Backend{}, p.backends...)
	shares := p.ring.Shares()
	p.mu.RUnlock()
	out := make([]BackendStatus, len(backends))
	for i, b := range backends {
		out[i] = b.status()
		out[i].Share = shares[b.addr]
	}
	return out
}
