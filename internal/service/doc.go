// Package service is the simulation-as-a-service layer: it turns the
// one-shot experiment runner into a long-lived, memoizing job service.
//
// Three mechanisms stack on top of internal/runner:
//
//   - Cache: a persistent content-addressed result store keyed by
//     runner.Job.Key (SHA-256 of the normalized job spec), disk-backed
//     with atomic writes, LRU size bounding, and hit/miss/evict
//     counters. Entries are versioned by a scheme tag derived from the
//     cache schema version and the build's module version, so results
//     recorded under older simulator semantics can never be served.
//
//   - Station: in-flight deduplication plus a bounded job queue over a
//     worker pool. N clients requesting the same JobKey share one
//     simulation; completed results are written through to the cache.
//     Station and Coordinator share one key-state table (jobs.go): one
//     admission rule (attach to a key's state unless it failed), the
//     only writes of a state's status and result, and the counters
//     /v1/statsz and /metrics report.
//
//   - Server/Client: a small HTTP JSON API (POST /v1/jobs, GET
//     /v1/jobs/{key}, GET /v1/results/{key}, /v1/healthz, /v1/statsz,
//     /v1/backendsz, /v1/catalog) and the matching client used by
//     `gpulat submit`. The client treats 503 as "back off and resubmit
//     the remainder", using the accepted-tickets list the server
//     returns with a refusal. Completion is a long-poll, not a sleep
//     loop: GET /v1/jobs/{key}?wait=<d> (Wait on Station, Coordinator
//     and Client) holds the answer until the key is terminal or d
//     (capped at maxStatusWait) elapses, so Client.RunJobs spends one
//     status call per unfinished ticket and returns when the simulation
//     does (the first call of a RunJobs goes out headStart, 2 ms, after
//     it began: short jobs are then answered without a held wait, and a
//     closed-loop caller's pace is a timer's, not the host scheduler's).
//     Without wait the answer is immediate. Client.Poll is the floor
//     between two non-terminal answers: a coordinator answers at once
//     for a key it has not forwarded yet. The service speaks one
//     protocol: every terminal answer — a ticket already done or
//     failed, a status that is — carries its result (the bytes GET
//     /v1/results/{key} writes), so a finished job costs one round trip
//     and a warm grid re-run is one POST. RunJobs never fetches a
//     result: a terminal answer without one is an error naming the key.
//     A coordinator keeps the results its backends' answers carry; one
//     it has not heard yet (a GET /v1/results/{key} before any wait) it
//     reads with a status call proxied with no wait, and a backend's
//     terminal answer without its result fails the key.
//
//   - Coordinator: the sharded tier behind `gpulat serve
//     -backends`. The coordinator serves the same API but runs nothing
//     locally: each job routes to one backend `gpulat serve` by
//     consistent hashing on its JobKey (64 vnodes per backend), which
//     pins keys to backends — and therefore to their persistent caches
//     — across restarts and pool changes. A health prober plus
//     per-backend circuit state (open after N consecutive failures,
//     closed again on a good probe) detect death; live keys on a dead
//     backend re-route to survivors and re-submit, which is safe
//     because backends dedupe by key.
//
//     Every decision is made under one lock, the key table's (jobs.mu),
//     by a placement core that makes no call, reads no clock and starts
//     no goroutine: admission, where each live key runs, what a
//     backend's answer or error means, circuit state, the ownership
//     delta of a join or leave, and the prober's sweep. The pool's ring,
//     members, epoch and circuits are plain fields under that lock. A
//     decision returns a plan (journal records, forwards grouped by
//     backend, cache pulls) that the Coordinator carries out after
//     dropping the lock, feeding each outcome back in; Close waits for
//     every plan decided before it. A plan's journal records are written
//     under the journal's lock, taken before the table's is dropped, so
//     the journal holds them in the order they were decided.
//
//     Membership is elastic and epoch-versioned: a join or leave reacts
//     to the exact set of keys whose ownership moved — moved live keys
//     re-forward to their new owner (a leave drains every live key off
//     the leaver), and moved finished keys are pulled by the new owner
//     from the backend that computed them (POST /v1/cache/pull driving
//     GET /v1/cache/{key}, entries validated against their content
//     address) instead of recomputed. Joins arrive via POST
//     /v1/backends/join or a backend's own `serve -join`. An optional
//     write-ahead journal (CoordinatorConfig.JournalPath, JSONL,
//     torn-tail tolerant) records accepted jobs and membership changes
//     before tickets return; a restarted coordinator replays it through
//     the same admission and join/leave decisions live traffic takes.
//
// The whole layer preserves the repo's determinism discipline: cached
// results are stored in the comparable encoding (wall-clock fields
// stripped — see internal/stats), and a warm re-run of any grid through
// the service must export byte-identical CSV/JSON to a cold direct run
// — as must a sharded run, including one that loses a backend mid-grid,
// grows or shrinks the pool mid-grid, or loses the coordinator itself
// and replays its journal. TestServiceMatchesDirect and
// TestShardedTierMatchesDirect (cmd/gpulat) enforce all of it.
//
// Lifecycle is bounded: once Station.Close (or Coordinator.Close)
// begins, Submit returns ErrStationClosed instead of admitting a job no
// worker will ever run, so no Do or HTTP waiter can hang until its
// context expires. Held status waits end with their owner too: Close,
// Server.ReleaseWaits (`gpulat serve` runs it when its http.Server begins
// Shutdown) or the requester's disconnect answers each one at once.
package service
