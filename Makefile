# One entry point for humans and CI: the workflow in
# .github/workflows/ci.yml runs exactly these targets.

GO      ?= go
JOBS    ?= 0   # 0 = GOMAXPROCS
# Every gate writes its binaries, exports, pid files and caches under TMP
# (`make TMP=<dir> <gate>` moves them); `make clean` removes it. A plain
# `=`, not `?=`: an environment TMP (often /tmp itself) must not become
# the directory clean removes.
TMP      = /tmp/gpulat-make
CLI     := $(TMP)/gpulat-ci
BUILD_CLI = mkdir -p $(TMP) && $(GO) build -o $(CLI) ./cmd/gpulat

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
	$(BUILD_CLI)
	$(CLI) bench-kernel > BENCH_kernel.json.tmp
	mv BENCH_kernel.json.tmp BENCH_kernel.json

# Event-engine regression smoke (CI): reduced-scale workloads, single
# rep, -check fails the run when the engines' cycle counts diverge, the
# event engine steps more cycles than the tick engine simulates, or it
# skips nothing. -comparable strips wall-clock fields so the artifact in
# TMP is byte-diffable across runs.
bench-regress:
	mkdir -p $(TMP)
	$(GO) run ./cmd/gpulat bench-kernel -quick -check -comparable > $(TMP)/bench-regress.json

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
	$(BUILD_CLI)
	$(CLI) bench-suite -quick -quiet -j 1 -csv > $(TMP)/j1.csv
	$(CLI) bench-suite -quick -quiet -j 8 -csv > $(TMP)/j8.csv
	cmp $(TMP)/j1.csv $(TMP)/j8.csv
	@echo "determinism: -j 1 and -j 8 byte-identical"

# Proves the simulation kernel's core contract: the event-driven loop's
# exports are byte-identical to the cycle-driven reference, CSV and JSON.
engine-determinism:
	$(BUILD_CLI)
	$(CLI) bench-suite -quick -quiet -j 8 -engine=tick  -csv  > $(TMP)/tick.csv
	$(CLI) bench-suite -quick -quiet -j 8 -engine=event -csv  > $(TMP)/event.csv
	cmp $(TMP)/tick.csv $(TMP)/event.csv
	$(CLI) bench-suite -quick -quiet -j 8 -engine=tick  -json > $(TMP)/tick.json
	$(CLI) bench-suite -quick -quiet -j 8 -engine=event -json > $(TMP)/event.json
	cmp $(TMP)/tick.json $(TMP)/event.json
	@echo "engine-determinism: tick and event engines byte-identical"

# Proves the stream dispatcher's contract on a quick co-run sweep: the
# export is byte-identical across worker counts AND across engines (the
# multi-stream horizons of the event kernel must merge exactly).
corun-determinism:
	$(BUILD_CLI)
	$(CLI) corun -quick -quiet -j 1 -engine=tick  -csv > $(TMP)/corun-t1.csv
	$(CLI) corun -quick -quiet -j 8 -engine=tick  -csv > $(TMP)/corun-t8.csv
	$(CLI) corun -quick -quiet -j 1 -engine=event -csv > $(TMP)/corun-e1.csv
	$(CLI) corun -quick -quiet -j 8 -engine=event -csv > $(TMP)/corun-e8.csv
	cmp $(TMP)/corun-t1.csv $(TMP)/corun-t8.csv
	cmp $(TMP)/corun-e1.csv $(TMP)/corun-e8.csv
	cmp $(TMP)/corun-t1.csv $(TMP)/corun-e1.csv
	@echo "corun-determinism: -j 1/-j 8 and tick/event byte-identical"

# Proves a change simulates the same bytes as another revision — the
# check every performance change owes: `make export-identity BASE=<rev>`
# (default HEAD, the parent of an uncommitted change) unpacks BASE with
# `git archive` into a temp dir under TMP, builds it and the working tree, and
# byte-compares, under both engines, the quick bench grid (CSV and JSON),
# the quick co-run sweep, and — what the exports do not show — every
# per-component counter: `simrun -v -trace-sim -` on histogram (atomics:
# the cross-SM commit order) and bfs (per-SM, per-partition and per-wake
# counters), plus bfs's per-load records in Tracker delivery order. No
# network: the module has no dependencies.
BASE ?= HEAD
export-identity:
	@set -e; mkdir -p $(TMP); tmp=$$(mktemp -d $(TMP)/export-identity.XXXXXX); trap 'rm -rf "$$tmp"' EXIT; \
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
	$(BUILD_CLI)
	rm -rf $(TMP)/svc-cache $(TMP)/serve.pid
	$(CLI) bench-suite -quick -quiet -j 8 -csv  > $(TMP)/direct.csv
	$(CLI) bench-suite -quick -quiet -j 8 -json > $(TMP)/direct.json
	set -e; \
	trap 'test -f $(TMP)/serve.pid && kill $$(cat $(TMP)/serve.pid) 2>/dev/null; true' EXIT; \
	$(CLI) serve -addr $(SVC_ADDR) -cache-dir $(TMP)/svc-cache -quiet & echo $$! > $(TMP)/serve.pid; \
	t0=$$(date +%s%N); \
	$(CLI) submit -addr http://$(SVC_ADDR) -quiet -suite -quick -csv > $(TMP)/svc-cold.csv; \
	t1=$$(date +%s%N); \
	kill $$(cat $(TMP)/serve.pid); wait $$(cat $(TMP)/serve.pid) 2>/dev/null || true; \
	$(CLI) serve -addr $(SVC_ADDR) -cache-dir $(TMP)/svc-cache -quiet & echo $$! > $(TMP)/serve.pid; \
	t2=$$(date +%s%N); \
	$(CLI) submit -addr http://$(SVC_ADDR) -quiet -suite -quick -csv > $(TMP)/svc-warm.csv; \
	t3=$$(date +%s%N); \
	$(CLI) submit -addr http://$(SVC_ADDR) -quiet -suite -quick -json > $(TMP)/svc-warm.json; \
	$(CLI) submit -addr http://$(SVC_ADDR) -statsz > $(TMP)/svc-statsz.json; \
	cmp $(TMP)/direct.csv $(TMP)/svc-cold.csv; \
	cmp $(TMP)/direct.csv $(TMP)/svc-warm.csv; \
	cmp $(TMP)/direct.json $(TMP)/svc-warm.json; \
	grep -Eq '"hits": [1-9]' $(TMP)/svc-statsz.json; \
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
SHARD_JOURNAL ?= $(TMP)/shard-journal.jsonl
# Every phase runs under SHARD_TRAP: each serve writes its pid file the
# moment it starts (again after every kill-and-restart), and however the
# phase ends the trap SIGKILLs and reaps whatever the four files name.
# /bin/sh may be dash, which runs an EXIT trap on `exit` but not on a
# signal — hence the second trap, so an interrupted or timed-out gate
# cleans up too. The target ends by asserting nothing it started is
# still running.
SHARD_PIDS = $(TMP)/b1.pid $(TMP)/b2.pid $(TMP)/b3.pid $(TMP)/coord.pid
SHARD_TRAP = trap 'for f in $(SHARD_PIDS); do \
		test -f $$f && { kill -9 $$(cat $$f); wait $$(cat $$f); } 2>/dev/null || true; done' EXIT; \
	trap 'exit 1' INT TERM HUP
shard-determinism:
	$(BUILD_CLI)
	$(GO) test -race -count=1 -run 'TestStationSubmitAfterClose|TestStationSubmitCloseRace|TestStationDoUnblocksOnConcurrentClose|TestCoordinatorSubmitAfterClose|TestCoordinatorFailsOver' ./internal/service
	rm -rf $(TMP)/shard-b1 $(TMP)/shard-b2 $(SHARD_PIDS)
	$(CLI) bench-suite -quick -quiet -j 8 -csv  > $(TMP)/direct.csv
	$(CLI) bench-suite -quick -quiet -j 8 -json > $(TMP)/direct.json
	set -e; \
	$(SHARD_TRAP); \
	$(CLI) serve -addr $(SHARD_B1) -cache-dir $(TMP)/shard-b1 -quiet & echo $$! > $(TMP)/b1.pid; \
	$(CLI) serve -addr $(SHARD_B2) -cache-dir $(TMP)/shard-b2 -quiet & echo $$! > $(TMP)/b2.pid; \
	$(CLI) serve -addr $(SHARD_COORD) -backends $(SHARD_B1),$(SHARD_B2) -quiet & echo $$! > $(TMP)/coord.pid; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > $(TMP)/shard-cold.csv; \
	$(CLI) submit -addr http://$(SHARD_COORD) -backendsz > $(TMP)/shard-backendsz.json; \
	cmp $(TMP)/direct.csv $(TMP)/shard-cold.csv; \
	grep -q '"circuit": "closed"' $(TMP)/shard-backendsz.json; \
	grep -q '"submitted": ' $(TMP)/shard-backendsz.json; \
	kill $$(cat $(TMP)/coord.pid) && wait $$(cat $(TMP)/coord.pid) 2>/dev/null || true; \
	$(CLI) serve -addr $(SHARD_COORD) -backends $(SHARD_B1),$(SHARD_B2) -quiet & echo $$! > $(TMP)/coord.pid; \
	rm -rf $(TMP)/shard-b1 $(TMP)/shard-b2; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > $(TMP)/shard-kill.csv & SUBMIT=$$!; \
	sleep 0.05; \
	kill -9 $$(cat $(TMP)/b2.pid); rm -f $(TMP)/b2.pid; \
	wait $$SUBMIT; \
	cmp $(TMP)/direct.csv $(TMP)/shard-kill.csv; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -json > $(TMP)/shard-kill.json; \
	cmp $(TMP)/direct.json $(TMP)/shard-kill.json; \
	for i in $$(seq 1 40); do \
		$(CLI) submit -addr http://$(SHARD_COORD) -backendsz > $(TMP)/shard-backendsz.json; \
		grep -q '"circuit": "open"' $(TMP)/shard-backendsz.json && break; \
		sleep 0.25; \
	done; \
	grep -q '"circuit": "open"' $(TMP)/shard-backendsz.json
	set -e; \
	$(SHARD_TRAP); \
	rm -rf $(TMP)/shard-b1 $(TMP)/shard-b2 $(TMP)/shard-b3 $(SHARD_PIDS); \
	$(CLI) serve -addr $(SHARD_B1) -cache-dir $(TMP)/shard-b1 -quiet & echo $$! > $(TMP)/b1.pid; \
	$(CLI) serve -addr $(SHARD_B2) -cache-dir $(TMP)/shard-b2 -quiet & echo $$! > $(TMP)/b2.pid; \
	$(CLI) serve -addr $(SHARD_COORD) -backends $(SHARD_B1) -quiet & echo $$! > $(TMP)/coord.pid; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > $(TMP)/shard-join.csv & SUBMIT=$$!; \
	sleep 0.05; \
	$(CLI) backends -addr http://$(SHARD_COORD) join $(SHARD_B2) > $(TMP)/shard-joinchange.json; \
	wait $$SUBMIT; \
	cmp $(TMP)/direct.csv $(TMP)/shard-join.csv; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -json > $(TMP)/shard-join.json; \
	cmp $(TMP)/direct.json $(TMP)/shard-join.json; \
	grep -q '"action": "join"' $(TMP)/shard-joinchange.json; \
	grep -q '"epoch": 2' $(TMP)/shard-joinchange.json; \
	$(CLI) serve -addr $(SHARD_B3) -cache-dir $(TMP)/shard-b3 \
		-join http://$(SHARD_COORD) -advertise $(SHARD_B3) -quiet & echo $$! > $(TMP)/b3.pid; \
	for i in $$(seq 1 40); do \
		$(CLI) submit -addr http://$(SHARD_COORD) -backendsz > $(TMP)/shard-backendsz.json 2>/dev/null || true; \
		$(CLI) submit -addr http://$(SHARD_COORD) -statsz > $(TMP)/shard-statsz.json 2>/dev/null || true; \
		grep -q '"epoch": 3' $(TMP)/shard-backendsz.json \
			&& grep -q '"handoff_transferred"' $(TMP)/shard-statsz.json \
			&& curl -sf http://$(SHARD_B3)/metrics | grep -Eq 'gpulat_cache_transfer_in_total [1-9]' \
			&& curl -sf http://$(SHARD_COORD)/metrics | grep -Eq 'gpulat_station_handoff_transferred_total [1-9]' \
			&& break; \
		sleep 0.25; \
	done; \
	grep -q '"epoch": 3' $(TMP)/shard-backendsz.json; \
	grep -q '"ring_share"' $(TMP)/shard-backendsz.json; \
	grep -q '"ring_epoch": 3' $(TMP)/shard-statsz.json; \
	grep -q '"handoff_transferred"' $(TMP)/shard-statsz.json; \
	curl -sf http://$(SHARD_B3)/metrics | grep -Eq 'gpulat_cache_transfer_in_total [1-9]'; \
	curl -sf http://$(SHARD_COORD)/metrics | grep -Eq 'gpulat_station_handoff_transferred_total [1-9]'
	set -e; \
	$(SHARD_TRAP); \
	rm -rf $(TMP)/shard-b1 $(TMP)/shard-b2 $(SHARD_PIDS); \
	$(CLI) serve -addr $(SHARD_B1) -cache-dir $(TMP)/shard-b1 -quiet & echo $$! > $(TMP)/b1.pid; \
	$(CLI) serve -addr $(SHARD_B2) -cache-dir $(TMP)/shard-b2 -quiet & echo $$! > $(TMP)/b2.pid; \
	$(CLI) serve -addr $(SHARD_COORD) -backends $(SHARD_B1),$(SHARD_B2) -quiet & echo $$! > $(TMP)/coord.pid; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > $(TMP)/shard-leave.csv & SUBMIT=$$!; \
	sleep 0.05; \
	$(CLI) backends -addr http://$(SHARD_COORD) leave $(SHARD_B2) > $(TMP)/shard-leavechange.json; \
	wait $$SUBMIT; \
	cmp $(TMP)/direct.csv $(TMP)/shard-leave.csv; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -json > $(TMP)/shard-leave.json; \
	cmp $(TMP)/direct.json $(TMP)/shard-leave.json; \
	grep -q '"action": "leave"' $(TMP)/shard-leavechange.json; \
	grep -q '"members": 1' $(TMP)/shard-leavechange.json
	set -e; \
	$(SHARD_TRAP); \
	rm -rf $(TMP)/shard-b1 $(SHARD_JOURNAL) $(SHARD_PIDS); \
	$(CLI) serve -addr $(SHARD_B1) -cache-dir $(TMP)/shard-b1 -quiet & echo $$! > $(TMP)/b1.pid; \
	$(CLI) serve -addr $(SHARD_COORD) -backends $(SHARD_B1) -journal $(SHARD_JOURNAL) -quiet & echo $$! > $(TMP)/coord.pid; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > $(TMP)/shard-crash.csv & SUBMIT=$$!; \
	sleep 0.1; \
	kill -9 $$(cat $(TMP)/coord.pid); rm -f $(TMP)/coord.pid; \
	wait $$SUBMIT || true; \
	$(CLI) serve -addr $(SHARD_COORD) -backends $(SHARD_B1) -journal $(SHARD_JOURNAL) -quiet & echo $$! > $(TMP)/coord.pid; \
	for i in $$(seq 1 40); do \
		$(CLI) submit -addr http://$(SHARD_COORD) -statsz > $(TMP)/shard-statsz.json 2>/dev/null || true; \
		grep -q '"replayed"' $(TMP)/shard-statsz.json && break; \
		sleep 0.25; \
	done; \
	grep -q '"replayed"' $(TMP)/shard-statsz.json; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -csv > $(TMP)/shard-recovered.csv; \
	cmp $(TMP)/direct.csv $(TMP)/shard-recovered.csv; \
	$(CLI) submit -addr http://$(SHARD_COORD) -quiet -suite -quick -json > $(TMP)/shard-recovered.json; \
	cmp $(TMP)/direct.json $(TMP)/shard-recovered.json
	@if pgrep -af '^$(CLI) serve -addr ($(SHARD_COORD)|$(SHARD_B1)|$(SHARD_B2)|$(SHARD_B3)) '; then \
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
	rm -rf $(TMP)
