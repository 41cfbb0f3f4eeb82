package service

import (
	"sync"
	"sync/atomic"

	"gpulat/internal/runner"
	"gpulat/internal/stats"
)

// Status is a job's position in its lifecycle.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

func (s Status) terminal() bool { return s == StatusDone || s == StatusFailed }

// StationStats are a tier's monotonic counters and live gauges. The
// metric tags are their /metrics families (see metrics.Walk).
type StationStats struct {
	Submitted int64 `json:"submitted" metric:"gpulat_station_submitted_total,counter,Jobs submitted to this service (before dedup)."`
	Executed  int64 `json:"executed" metric:"gpulat_station_executed_total,counter,Jobs actually simulated by this station's workers."`
	// Deduped counts submissions that attached to an already-known key
	// (in-flight or finished) instead of spawning a simulation.
	Deduped int64 `json:"deduped" metric:"gpulat_station_deduped_total,counter,Submissions attached to an already-known key."`
	// CacheHits counts submissions answered straight from the cache.
	CacheHits int64 `json:"cache_hits" metric:"gpulat_station_cache_hits_total,counter,Submissions answered straight from the result cache."`
	// Rejected counts refused calls: a batch refused after Close counts
	// once, as does one refused part-way for capacity.
	Rejected int64 `json:"rejected" metric:"gpulat_station_rejected_total,counter,Submissions refused (queue full or service closed)."`
	// Rerouted counts jobs re-forwarded to a different backend after a
	// failure; always zero for a single-node station (coordinator only).
	Rerouted int64 `json:"rerouted,omitempty" metric:"gpulat_station_rerouted_total,counter,Jobs re-placed on another backend after a failure (coordinator only)."`
	// HandoffKeys counts keys whose ring ownership a membership change
	// (join/leave) moved; HandoffTransferred counts the cached results
	// warm-copied to the new owner instead of recomputed (coordinator
	// only).
	HandoffKeys        int64 `json:"handoff_keys,omitempty" metric:"gpulat_station_handoff_keys_total,counter,Keys whose ring ownership a membership change moved (coordinator only)."`
	HandoffTransferred int64 `json:"handoff_transferred,omitempty" metric:"gpulat_station_handoff_transferred_total,counter,Cached results warm-copied to a key's new owner instead of recomputed (coordinator only)."`
	// Replayed counts jobs re-admitted from the write-ahead journal at
	// startup (coordinator only).
	Replayed int64 `json:"replayed,omitempty" metric:"gpulat_station_replayed_total,counter,Jobs re-admitted from the write-ahead journal at startup (coordinator only)."`
	// Queued, Running, Done and Failed count every known key by state,
	// finished ones included.
	Queued  int `json:"queued" metric:"gpulat_station_jobs{state=queued},gauge,Jobs currently known to this service, by lifecycle state."`
	Running int `json:"running" metric:"gpulat_station_jobs{state=running}"`
	Done    int `json:"done" metric:"gpulat_station_jobs{state=done}"`
	Failed  int `json:"failed" metric:"gpulat_station_jobs{state=failed}"`
	Workers int `json:"workers" metric:"gpulat_station_workers,gauge,Size of the simulation worker pool (0 for a coordinator)."`
}

// jobState tracks one key through queued → running → done/failed. Only
// the jobs table that holds it writes status and result, and result is
// immutable once ready is closed, as are its wire bytes once set.
// backend, forwarded and reroutes are a coordinator's placement of the
// key; a station leaves them zero.
type jobState struct {
	key    runner.JobKey
	job    runner.Job
	status Status
	result runner.Result
	ready  chan struct{}
	wire   atomic.Pointer[[]byte]

	backend *Backend // nil: replayed from the journal into an empty pool
	// forwarded flips once the backend has acknowledged the submission;
	// until then status proxies answer "queued" locally instead of
	// asking a backend that has never heard of the key.
	forwarded bool
	reroutes  int
}

// final reports whether st's result is final.
func (st *jobState) final() bool {
	select {
	case <-st.ready:
		return true
	default:
		return false
	}
}

// encoded returns st's final result in the comparable encoding, the
// wire format. Only a first call encodes (two racing ones may both).
func (st *jobState) encoded() ([]byte, error) {
	if data := st.wire.Load(); data != nil {
		return *data, nil
	}
	r := st.result
	data, err := stats.ComparableJSON(WireResult{Key: st.key, Job: r.Job, Metrics: r.Metrics, Error: r.Err})
	if err == nil {
		st.wire.Store(&data)
	}
	return data, err
}

// jobs is the key-state table Station and Coordinator share: it owns the
// admission rule, every write of a state's status and result, and the
// counters. Every method but Stats and lookup expects mu held. Every
// state whose result is not final is in byKey, so the gauges count
// byKey's states by status.
type jobs struct {
	mu     sync.Mutex
	closed bool
	byKey  map[runner.JobKey]*jobState
	stats  StationStats
	// pending counts states whose result is not final yet; a
	// coordinator's admission bound reads it.
	pending int
}

// lookup returns key's state, or nil.
func (t *jobs) lookup(key runner.JobKey) *jobState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[key]
}

// attach applies the admission rule to key. After close it refuses with
// ErrStationClosed, counting a rejection. A known key whose state has not
// failed dedups onto it: ok is true and status is that state's. A key
// that is unknown, or failed — failures are never cached (they may be
// environmental), so a resubmission runs the job again — is the
// caller's to add.
func (t *jobs) attach(key runner.JobKey) (status Status, ok bool, err error) {
	if t.closed {
		t.stats.Rejected++
		return "", false, ErrStationClosed
	}
	if st := t.byKey[key]; st != nil && st.status != StatusFailed {
		t.stats.Deduped++
		return st.status, true, nil
	}
	return "", false, nil
}

// add registers a fresh queued state for job under key, replacing the
// state key had. attach hands add only unknown or failed keys, and only
// finish writes a failed status, so a replaced state is final: earlier
// holders of it keep its failed result.
func (t *jobs) add(key runner.JobKey, job runner.Job) *jobState {
	if old := t.byKey[key]; old != nil {
		*t.gauge(old.status)--
	}
	st := &jobState{key: key, job: job, status: StatusQueued, ready: make(chan struct{})}
	t.byKey[key] = st
	t.stats.Queued++
	t.pending++
	return st
}

// set moves st to status s. It is the one write of a status, and a
// state whose result is final keeps its status.
func (t *jobs) set(st *jobState, s Status) {
	if st.final() {
		return
	}
	*t.gauge(st.status)--
	st.status = s
	*t.gauge(s)++
}

// finish stores st's final result — done, or failed when res failed —
// and closes ready. A state finishes once; later calls change nothing.
// The result keeps what goes on the wire: its Payload (for a dynamic
// job, the device and tracker it ran on) is dropped, so a served key
// does not pin its simulator for the life of the table.
func (t *jobs) finish(st *jobState, res runner.Result) {
	if st.final() {
		return
	}
	if res.Failed() {
		t.set(st, StatusFailed)
	} else {
		t.set(st, StatusDone)
	}
	res.Payload = nil
	st.result = res
	t.pending--
	close(st.ready)
}

// fail finishes st as failed with msg.
func (t *jobs) fail(st *jobState, msg string) {
	t.finish(st, runner.Result{Job: st.job, Err: msg})
}

// failLive fails every state whose result is not final, so no waiter
// blocks on a tier that is closing.
func (t *jobs) failLive(msg string) {
	for _, st := range t.byKey {
		t.fail(st, msg)
	}
}

// gauge is the counter of states in status s.
func (t *jobs) gauge(s Status) *int {
	switch s {
	case StatusRunning:
		return &t.stats.Running
	case StatusDone:
		return &t.stats.Done
	case StatusFailed:
		return &t.stats.Failed
	}
	return &t.stats.Queued
}

// Stats snapshots the counters. A coordinator's Executed, CacheHits and
// Workers stay zero: those are per-backend facts, in each backend's own
// /v1/statsz.
func (t *jobs) Stats() StationStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}
