# One entry point for humans and CI: the workflow in
# .github/workflows/ci.yml runs exactly these targets.

GO      ?= go
JOBS    ?= 0   # 0 = GOMAXPROCS

.PHONY: all build test vet fmt bench bench-baseline bench-regress alloc-regress alloc-baseline repro repro-quick determinism engine-determinism corun-determinism export-identity service-determinism shard-determinism bench-harness clean

all: build vet fmt test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Short smoke benchmark (CI); `make bench BENCH=. BENCHTIME=3x` for more.
# The tick-vs-event simulation-kernel throughput report (cycles simulated
# per wall-second, per workload) is `make bench-baseline` in full and
# `make bench-regress` as the checked CI smoke.
BENCH     ?= SimulatorThroughput
BENCHTIME ?= 1x
bench:
	$(GO) test -bench=$(BENCH) -benchtime=$(BENCHTIME) -run='^$$' .

# Refresh the committed BENCH_kernel.json baseline (wall-clock numbers
# are machine-dependent: regenerate deliberately, not from CI). Each
# (workload, engine) pair is timed best-of-3 on a fresh device — the
# minimum wall is the stable estimator under host scheduler noise (see
# cmdBenchKernel); the simulated counters must be identical across reps
# or the run fails. Built, not `go run`, so the report's host block can
# name the build.
bench-baseline:
	$(GO) build -o /tmp/gpulat-ci ./cmd/gpulat
	/tmp/gpulat-ci bench-kernel > BENCH_kernel.json.tmp
	mv BENCH_kernel.json.tmp BENCH_kernel.json

# Event-engine regression smoke (CI): reduced-scale workloads, single
# rep, -check fails the run when the engines' cycle counts diverge, the
# event engine steps more cycles than the tick engine simulates, or it
# skips nothing. -comparable strips wall-clock fields so the artifact in
# /tmp is byte-diffable across runs.
bench-regress:
	$(GO) run ./cmd/gpulat bench-kernel -quick -check -comparable > /tmp/gpulat-bench-regress.json

# Allocation-regression gate (CI): the per-cycle hot path — coalescer,
# cache miss+fill, full-device Step — must stay within the committed
# BENCH_alloc.json budget (allocs/op, zero for every gated benchmark).
# Runs WITHOUT -race: the detector's instrumentation allocates, which
# would drown the measurement (the gate skips itself under -race). Also
# replays the coalescer fuzz seed corpus against the naive reference.
alloc-regress:
	$(GO) test -count=1 -run 'TestAllocRegression' .
	$(GO) test -count=1 -run 'TestCoalesce|FuzzCoalesce' ./internal/mem

# Refresh the committed BENCH_alloc.json allocation budget (after an
# intentional hot-path change; allocs/op is machine-independent).
alloc-baseline:
	GPULAT_ALLOC_BASELINE=write $(GO) test -count=1 -run 'TestAllocRegression' .

# Full paper-reproduction grid on the parallel runner.
repro:
	$(GO) run ./cmd/gpulat bench-suite -j $(JOBS)

# CI-sized reproduction: every suite section at smoke scale.
repro-quick:
	$(GO) run ./cmd/gpulat bench-suite -quick -j $(JOBS)

# Proves the runner's core contract: -j 1 and -j 8 exports are
# byte-identical.
determinism:
	$(GO) build -o /tmp/gpulat-ci ./cmd/gpulat
	/tmp/gpulat-ci bench-suite -quick -quiet -j 1 -csv > /tmp/gpulat-j1.csv
	/tmp/gpulat-ci bench-suite -quick -quiet -j 8 -csv > /tmp/gpulat-j8.csv
	cmp /tmp/gpulat-j1.csv /tmp/gpulat-j8.csv
	@echo "determinism: -j 1 and -j 8 byte-identical"

# Proves the simulation kernel's core contract: the event-driven loop's
# exports are byte-identical to the cycle-driven reference, CSV and JSON.
engine-determinism:
	$(GO) build -o /tmp/gpulat-ci ./cmd/gpulat
	/tmp/gpulat-ci bench-suite -quick -quiet -j 8 -engine=tick  -csv  > /tmp/gpulat-tick.csv
	/tmp/gpulat-ci bench-suite -quick -quiet -j 8 -engine=event -csv  > /tmp/gpulat-event.csv
	cmp /tmp/gpulat-tick.csv /tmp/gpulat-event.csv
	/tmp/gpulat-ci bench-suite -quick -quiet -j 8 -engine=tick  -json > /tmp/gpulat-tick.json
	/tmp/gpulat-ci bench-suite -quick -quiet -j 8 -engine=event -json > /tmp/gpulat-event.json
	cmp /tmp/gpulat-tick.json /tmp/gpulat-event.json
	@echo "engine-determinism: tick and event engines byte-identical"

# Proves the stream dispatcher's contract on a quick co-run sweep: the
# export is byte-identical across worker counts AND across engines (the
# multi-stream horizons of the event kernel must merge exactly).
corun-determinism:
	$(GO) build -o /tmp/gpulat-ci ./cmd/gpulat
	/tmp/gpulat-ci corun -quick -quiet -j 1 -engine=tick  -csv > /tmp/gpulat-corun-t1.csv
	/tmp/gpulat-ci corun -quick -quiet -j 8 -engine=tick  -csv > /tmp/gpulat-corun-t8.csv
	/tmp/gpulat-ci corun -quick -quiet -j 1 -engine=event -csv > /tmp/gpulat-corun-e1.csv
	/tmp/gpulat-ci corun -quick -quiet -j 8 -engine=event -csv > /tmp/gpulat-corun-e8.csv
	cmp /tmp/gpulat-corun-t1.csv /tmp/gpulat-corun-t8.csv
	cmp /tmp/gpulat-corun-e1.csv /tmp/gpulat-corun-e8.csv
	cmp /tmp/gpulat-corun-t1.csv /tmp/gpulat-corun-e1.csv
	@echo "corun-determinism: -j 1/-j 8 and tick/event byte-identical"

# Proves a change simulates the same bytes as another revision — the
# check every performance change owes: `make export-identity BASE=<rev>`
# (default HEAD, the parent of an uncommitted change) unpacks BASE with
# `git archive` into a temp dir, builds it and the working tree, and
# byte-compares, under both engines, the quick bench grid (CSV and JSON),
# the quick co-run sweep, and — what the exports do not show — every
# per-component counter: `simrun -v -trace-sim -` on histogram (atomics:
# the cross-SM commit order) and bfs (per-SM, per-partition and per-wake
# counters), plus bfs's per-load records in Tracker delivery order. No
# network: the module has no dependencies.
BASE ?= HEAD
export-identity:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/gpulat-base" ./cmd/gpulat); \
	$(GO) build -o "$$tmp/gpulat-new" ./cmd/gpulat; \
	for e in tick event; do \
		for x in "bench-suite -quick -quiet -j 8 -engine=$$e -csv" \
				"bench-suite -quick -quiet -j 8 -engine=$$e -json" \
				"corun -quick -quiet -j 8 -engine=$$e -csv" \
				"simrun -arch GF100 -kernel histogram -engine=$$e -v -trace-sim -" \
				"simrun -arch GF100 -kernel bfs -engine=$$e -v -trace-sim -" \
				"export -kernel bfs -engine=$$e"; do \
			"$$tmp/gpulat-base" $$x > "$$tmp/base.out" 2> "$$tmp/base.err" || { cat "$$tmp/base.err"; exit 1; }; \
			"$$tmp/gpulat-new" $$x > "$$tmp/new.out" 2> "$$tmp/new.err" || { cat "$$tmp/new.err"; exit 1; }; \
			cmp "$$tmp/base.out" "$$tmp/new.out" || { echo "export-identity: '$$x' differs from $(BASE)"; exit 1; }; \
			echo "export-identity: same bytes: $$x"; \
		done; \
	done; \
	echo "export-identity: quick grid (CSV + JSON), co-run export, simrun counter dumps and bfs per-load records byte-identical to $(BASE) under both engines"

# Proves the service layer's contract end to end: the quick bench grid
# routed through `gpulat serve`/`gpulat submit` exports byte-identical
# CSV/JSON to a direct bench-suite run, both cold and warm; the warm run
# is answered from the persistent content-addressed cache (the server is
# restarted in between, so in-process dedup can't mask it), /v1/statsz
# reports real cache hits, and the warm submission is >=10x faster.
SVC_ADDR ?= 127.0.0.1:18763
service-determinism:
	$(GO) build -o /tmp/gpulat-ci ./cmd/gpulat
	rm -rf /tmp/gpulat-svc-cache /tmp/gpulat-serve.pid
	/tmp/gpulat-ci bench-suite -quick -quiet -j 8 -csv  > /tmp/gpulat-direct.csv
	/tmp/gpulat-ci bench-suite -quick -quiet -j 8 -json > /tmp/gpulat-direct.json
	set -e; \
	trap 'test -f /tmp/gpulat-serve.pid && kill $$(cat /tmp/gpulat-serve.pid) 2>/dev/null; true' EXIT; \
	/tmp/gpulat-ci serve -addr $(SVC_ADDR) -cache-dir /tmp/gpulat-svc-cache -quiet & echo $$! > /tmp/gpulat-serve.pid; \
	t0=$$(date +%s%N); \
	/tmp/gpulat-ci submit -addr http://$(SVC_ADDR) -quiet -suite -quick -csv > /tmp/gpulat-svc-cold.csv; \
	t1=$$(date +%s%N); \
	kill $$(cat /tmp/gpulat-serve.pid); wait $$(cat /tmp/gpulat-serve.pid) 2>/dev/null || true; \
	/tmp/gpulat-ci serve -addr $(SVC_ADDR) -cache-dir /tmp/gpulat-svc-cache -quiet & echo $$! > /tmp/gpulat-serve.pid; \
	t2=$$(date +%s%N); \
	/tmp/gpulat-ci submit -addr http://$(SVC_ADDR) -quiet -suite -quick -csv > /tmp/gpulat-svc-warm.csv; \
	t3=$$(date +%s%N); \
	/tmp/gpulat-ci submit -addr http://$(SVC_ADDR) -quiet -suite -quick -json > /tmp/gpulat-svc-warm.json; \
	/tmp/gpulat-ci submit -addr http://$(SVC_ADDR) -statsz > /tmp/gpulat-svc-statsz.json; \
	cmp /tmp/gpulat-direct.csv /tmp/gpulat-svc-cold.csv; \
	cmp /tmp/gpulat-direct.csv /tmp/gpulat-svc-warm.csv; \
	cmp /tmp/gpulat-direct.json /tmp/gpulat-svc-warm.json; \
	grep -Eq '"hits": [1-9]' /tmp/gpulat-svc-statsz.json; \
	cold=$$(( (t1 - t0) / 1000000 )); warm=$$(( (t3 - t2) / 1000000 )); \
	echo "service-determinism: cold $${cold}ms, warm $${warm}ms (served from cache)"; \
	test $$(( warm * 10 )) -le $$cold
	@echo "service-determinism: service cold/warm and direct runs byte-identical; warm >=10x faster"

# Proves the sharded tier's contract end to end. Phase 0 pins the
# station/coordinator lifecycle fix under the race detector (Submit
# racing or following Close errors in bounded time instead of hanging).
# Phase 1 fans the quick bench grid from a coordinator over two stock
# backend serves and byte-diffs the export against a direct run. Phase 2
# restarts the coordinator (cold routing state), SIGKILLs one backend
# mid-grid while a submission races, and asserts the grid still
# completes byte-identically via circuit-breaking + re-route (the dead
# backend's keys re-simulate on the survivor). SIGKILL, not SIGTERM: a
# graceful drain would fail queued jobs politely, and the point is
# surviving an impolite death. Phases 3-5 prove the elastic tier: a
# backend joins mid-grid (epoch bump, live keys re-forward) and the
# export stays byte-identical; a cold backend self-registers via
# `serve -join` and is warmed by cache transfer, not recompute (nonzero
# handoff/transfer counters in statsz and /metrics); a backend leaves
# mid-grid and the survivors finish the grid byte-identically; and a
# coordinator SIGKILLed mid-grid replays its write-ahead journal on
# restart and the re-fetched grid is byte-identical.
SHARD_COORD   ?= 127.0.0.1:18764
SHARD_B1      ?= 127.0.0.1:18765
SHARD_B2      ?= 127.0.0.1:18766
SHARD_B3      ?= 127.0.0.1:18770
SHARD_JOURNAL ?= /tmp/gpulat-shard-journal.jsonl
# Every phase runs under SHARD_TRAP: each serve writes its pid file the
# moment it starts (again after every kill-and-restart), and however the
# phase ends the trap SIGKILLs and reaps whatever the four files name.
# /bin/sh may be dash, which runs an EXIT trap on `exit` but not on a
# signal — hence the second trap, so an interrupted or timed-out gate
# cleans up too. The target ends by asserting nothing it started is
# still running.
SHARD_PIDS = /tmp/gpulat-b1.pid /tmp/gpulat-b2.pid /tmp/gpulat-b3.pid /tmp/gpulat-coord.pid
SHARD_TRAP = trap 'for f in $(SHARD_PIDS); do \
		test -f $$f && { kill -9 $$(cat $$f); wait $$(cat $$f); } 2>/dev/null || true; done' EXIT; \
	trap 'exit 1' INT TERM HUP
shard-determinism:
	$(GO) build -o /tmp/gpulat-ci ./cmd/gpulat
	$(GO) test -race -count=1 -run 'TestStationSubmitAfterClose|TestStationSubmitCloseRace|TestStationDoUnblocksOnConcurrentClose|TestCoordinatorSubmitAfterClose|TestCoordinatorFailsOver' ./internal/service
	rm -rf /tmp/gpulat-shard-b1 /tmp/gpulat-shard-b2 $(SHARD_PIDS)
	/tmp/gpulat-ci bench-suite -quick -quiet -j 8 -csv  > /tmp/gpulat-direct.csv
	/tmp/gpulat-ci bench-suite -quick -quiet -j 8 -json > /tmp/gpulat-direct.json
	set -e; \
	$(SHARD_TRAP); \
	/tmp/gpulat-ci serve -addr $(SHARD_B1) -cache-dir /tmp/gpulat-shard-b1 -quiet & echo $$! > /tmp/gpulat-b1.pid; \
	/tmp/gpulat-ci serve -addr $(SHARD_B2) -cache-dir /tmp/gpulat-shard-b2 -quiet & echo $$! > /tmp/gpulat-b2.pid; \
	/tmp/gpulat-ci serve -addr $(SHARD_COORD) -backends $(SHARD_B1),$(SHARD_B2) -quiet & echo $$! > /tmp/gpulat-coord.pid; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > /tmp/gpulat-shard-cold.csv; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -backendsz > /tmp/gpulat-shard-backendsz.json; \
	cmp /tmp/gpulat-direct.csv /tmp/gpulat-shard-cold.csv; \
	grep -q '"circuit": "closed"' /tmp/gpulat-shard-backendsz.json; \
	grep -q '"submitted": ' /tmp/gpulat-shard-backendsz.json; \
	kill $$(cat /tmp/gpulat-coord.pid) && wait $$(cat /tmp/gpulat-coord.pid) 2>/dev/null || true; \
	/tmp/gpulat-ci serve -addr $(SHARD_COORD) -backends $(SHARD_B1),$(SHARD_B2) -quiet & echo $$! > /tmp/gpulat-coord.pid; \
	rm -rf /tmp/gpulat-shard-b1 /tmp/gpulat-shard-b2; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > /tmp/gpulat-shard-kill.csv & SUBMIT=$$!; \
	sleep 0.05; \
	kill -9 $$(cat /tmp/gpulat-b2.pid); rm -f /tmp/gpulat-b2.pid; \
	wait $$SUBMIT; \
	cmp /tmp/gpulat-direct.csv /tmp/gpulat-shard-kill.csv; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -json > /tmp/gpulat-shard-kill.json; \
	cmp /tmp/gpulat-direct.json /tmp/gpulat-shard-kill.json; \
	for i in $$(seq 1 40); do \
		/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -backendsz > /tmp/gpulat-shard-backendsz.json; \
		grep -q '"circuit": "open"' /tmp/gpulat-shard-backendsz.json && break; \
		sleep 0.25; \
	done; \
	grep -q '"circuit": "open"' /tmp/gpulat-shard-backendsz.json
	set -e; \
	$(SHARD_TRAP); \
	rm -rf /tmp/gpulat-shard-b1 /tmp/gpulat-shard-b2 /tmp/gpulat-shard-b3 $(SHARD_PIDS); \
	/tmp/gpulat-ci serve -addr $(SHARD_B1) -cache-dir /tmp/gpulat-shard-b1 -quiet & echo $$! > /tmp/gpulat-b1.pid; \
	/tmp/gpulat-ci serve -addr $(SHARD_B2) -cache-dir /tmp/gpulat-shard-b2 -quiet & echo $$! > /tmp/gpulat-b2.pid; \
	/tmp/gpulat-ci serve -addr $(SHARD_COORD) -backends $(SHARD_B1) -quiet & echo $$! > /tmp/gpulat-coord.pid; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > /tmp/gpulat-shard-join.csv & SUBMIT=$$!; \
	sleep 0.05; \
	/tmp/gpulat-ci backends -addr http://$(SHARD_COORD) join $(SHARD_B2) > /tmp/gpulat-shard-joinchange.json; \
	wait $$SUBMIT; \
	cmp /tmp/gpulat-direct.csv /tmp/gpulat-shard-join.csv; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -json > /tmp/gpulat-shard-join.json; \
	cmp /tmp/gpulat-direct.json /tmp/gpulat-shard-join.json; \
	grep -q '"action": "join"' /tmp/gpulat-shard-joinchange.json; \
	grep -q '"epoch": 2' /tmp/gpulat-shard-joinchange.json; \
	/tmp/gpulat-ci serve -addr $(SHARD_B3) -cache-dir /tmp/gpulat-shard-b3 \
		-join http://$(SHARD_COORD) -advertise $(SHARD_B3) -quiet & echo $$! > /tmp/gpulat-b3.pid; \
	for i in $$(seq 1 40); do \
		/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -backendsz > /tmp/gpulat-shard-backendsz.json 2>/dev/null || true; \
		/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -statsz > /tmp/gpulat-shard-statsz.json 2>/dev/null || true; \
		grep -q '"epoch": 3' /tmp/gpulat-shard-backendsz.json \
			&& grep -q '"handoff_transferred"' /tmp/gpulat-shard-statsz.json \
			&& curl -sf http://$(SHARD_B3)/metrics | grep -Eq 'gpulat_cache_transfer_in_total [1-9]' \
			&& curl -sf http://$(SHARD_COORD)/metrics | grep -Eq 'gpulat_station_handoff_transferred_total [1-9]' \
			&& break; \
		sleep 0.25; \
	done; \
	grep -q '"epoch": 3' /tmp/gpulat-shard-backendsz.json; \
	grep -q '"ring_share"' /tmp/gpulat-shard-backendsz.json; \
	grep -q '"ring_epoch": 3' /tmp/gpulat-shard-statsz.json; \
	grep -q '"handoff_transferred"' /tmp/gpulat-shard-statsz.json; \
	curl -sf http://$(SHARD_B3)/metrics | grep -Eq 'gpulat_cache_transfer_in_total [1-9]'; \
	curl -sf http://$(SHARD_COORD)/metrics | grep -Eq 'gpulat_station_handoff_transferred_total [1-9]'
	set -e; \
	$(SHARD_TRAP); \
	rm -rf /tmp/gpulat-shard-b1 /tmp/gpulat-shard-b2 $(SHARD_PIDS); \
	/tmp/gpulat-ci serve -addr $(SHARD_B1) -cache-dir /tmp/gpulat-shard-b1 -quiet & echo $$! > /tmp/gpulat-b1.pid; \
	/tmp/gpulat-ci serve -addr $(SHARD_B2) -cache-dir /tmp/gpulat-shard-b2 -quiet & echo $$! > /tmp/gpulat-b2.pid; \
	/tmp/gpulat-ci serve -addr $(SHARD_COORD) -backends $(SHARD_B1),$(SHARD_B2) -quiet & echo $$! > /tmp/gpulat-coord.pid; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > /tmp/gpulat-shard-leave.csv & SUBMIT=$$!; \
	sleep 0.05; \
	/tmp/gpulat-ci backends -addr http://$(SHARD_COORD) leave $(SHARD_B2) > /tmp/gpulat-shard-leavechange.json; \
	wait $$SUBMIT; \
	cmp /tmp/gpulat-direct.csv /tmp/gpulat-shard-leave.csv; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -json > /tmp/gpulat-shard-leave.json; \
	cmp /tmp/gpulat-direct.json /tmp/gpulat-shard-leave.json; \
	grep -q '"action": "leave"' /tmp/gpulat-shard-leavechange.json; \
	grep -q '"members": 1' /tmp/gpulat-shard-leavechange.json
	set -e; \
	$(SHARD_TRAP); \
	rm -rf /tmp/gpulat-shard-b1 $(SHARD_JOURNAL) $(SHARD_PIDS); \
	/tmp/gpulat-ci serve -addr $(SHARD_B1) -cache-dir /tmp/gpulat-shard-b1 -quiet & echo $$! > /tmp/gpulat-b1.pid; \
	/tmp/gpulat-ci serve -addr $(SHARD_COORD) -backends $(SHARD_B1) -journal $(SHARD_JOURNAL) -quiet & echo $$! > /tmp/gpulat-coord.pid; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > /tmp/gpulat-shard-crash.csv & SUBMIT=$$!; \
	sleep 0.1; \
	kill -9 $$(cat /tmp/gpulat-coord.pid); rm -f /tmp/gpulat-coord.pid; \
	wait $$SUBMIT || true; \
	/tmp/gpulat-ci serve -addr $(SHARD_COORD) -backends $(SHARD_B1) -journal $(SHARD_JOURNAL) -quiet & echo $$! > /tmp/gpulat-coord.pid; \
	for i in $$(seq 1 40); do \
		/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -statsz > /tmp/gpulat-shard-statsz.json 2>/dev/null || true; \
		grep -q '"replayed"' /tmp/gpulat-shard-statsz.json && break; \
		sleep 0.25; \
	done; \
	grep -q '"replayed"' /tmp/gpulat-shard-statsz.json; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > /tmp/gpulat-shard-recovered.csv; \
	cmp /tmp/gpulat-direct.csv /tmp/gpulat-shard-recovered.csv; \
	/tmp/gpulat-ci submit -addr http://$(SHARD_COORD) -quiet -suite -quick -json > /tmp/gpulat-shard-recovered.json; \
	cmp /tmp/gpulat-direct.json /tmp/gpulat-shard-recovered.json
	@if pgrep -af '^/tmp/gpulat-ci serve -addr ($(SHARD_COORD)|$(SHARD_B1)|$(SHARD_B2)|$(SHARD_B3)) '; then \
		echo "shard-determinism: the serve processes above outlived the gate"; exit 1; fi
	@echo "shard-determinism: coordinator byte-identical to direct across a backend kill, join/leave mid-grid, a warm self-registered joiner, and a journal-replayed coordinator crash"

# The repository benchmark (bench/) is a Go module of its own, outside
# `go test ./...`: build it and run every workload at -smoke scale, so an
# exported-API change in internal/service (or any layer the harness
# drives) cannot break the benchmark silently.
bench-harness:
	cd bench && $(GO) test ./...

clean:
	$(GO) clean
	rm -f /tmp/gpulat-ci /tmp/gpulat-bench-regress.json \
		/tmp/gpulat-j1.csv /tmp/gpulat-j8.csv \
		/tmp/gpulat-tick.csv /tmp/gpulat-event.csv \
		/tmp/gpulat-tick.json /tmp/gpulat-event.json \
		/tmp/gpulat-corun-t1.csv /tmp/gpulat-corun-t8.csv \
		/tmp/gpulat-corun-e1.csv /tmp/gpulat-corun-e8.csv \
		/tmp/gpulat-direct.csv /tmp/gpulat-direct.json \
		/tmp/gpulat-svc-cold.csv /tmp/gpulat-svc-warm.csv \
		/tmp/gpulat-svc-warm.json /tmp/gpulat-svc-statsz.json \
		/tmp/gpulat-serve.pid \
		/tmp/gpulat-shard-cold.csv /tmp/gpulat-shard-kill.csv \
		/tmp/gpulat-shard-kill.json /tmp/gpulat-shard-backendsz.json \
		/tmp/gpulat-b1.pid /tmp/gpulat-b2.pid /tmp/gpulat-coord.pid
	rm -rf /tmp/gpulat-svc-cache /tmp/gpulat-shard-b1 /tmp/gpulat-shard-b2
