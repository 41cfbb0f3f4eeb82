# One entry point for humans and CI: the workflow in
# .github/workflows/ci.yml runs exactly these targets.

GO      ?= go
JOBS    ?= 0   # 0 = GOMAXPROCS
# Every gate writes its binaries, exports and caches under TMP
# (`make TMP=<dir> <gate>` moves them); `make clean` removes it. A plain
# `=`, not `?=`: an environment TMP (often /tmp itself) must not become
# the directory clean removes.
TMP      = /tmp/gpulat-make
CLI     := $(TMP)/gpulat-ci
BUILD_CLI = mkdir -p $(TMP) && $(GO) build -o $(CLI) ./cmd/gpulat

.PHONY: all build test vet fmt cover alloc-regress alloc-baseline repro repro-quick export-identity lines serve-smoke bench-harness clean

all: build vet fmt test

build:
	$(GO) build ./...

# Every package's tests under the race detector, the byte-identity gates
# among them: cmd/gpulat/determinism_test.go proves tick == event, -j 1
# == -j N, served == cached == direct and the sharded tier's survival.
test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Fails when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Coverage report, not a gate: every package's tests measured against
# every package's statements. Prints each package's share of covered
# statements, every non-test function at 0% and the total.
cover:
	mkdir -p $(TMP)
	$(GO) test -count=1 -coverpkg=./... -coverprofile=$(TMP)/cover.out ./... > $(TMP)/cover.log || { cat $(TMP)/cover.log; exit 1; }
	@awk 'NR > 1 { file = $$1; sub(/:.*/, "", file); sub(/\/[^\/]*$$/, "", file); \
		stmts[$$1] = $$2; pkg[$$1] = file; if ($$3 > 0) hit[$$1] = 1 } \
		END { for (b in stmts) { total[pkg[b]] += stmts[b]; if (b in hit) covered[pkg[b]] += stmts[b] } \
		for (p in total) printf "%-36s %5.1f%% of %5d statements\n", p, 100 * covered[p] / total[p], total[p] }' \
		$(TMP)/cover.out | sort
	@$(GO) tool cover -func=$(TMP)/cover.out | awk '$$NF == "0.0%" { n++; print } END { print n " functions at 0%" }'
	@$(GO) tool cover -func=$(TMP)/cover.out | tail -1

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

# Proves a change simulates the same bytes as another revision — the
# check every performance change owes: `make export-identity BASE=<rev>`
# (default HEAD, the parent of an uncommitted change) unpacks BASE with
# `git archive` into a temp dir under TMP, builds it and the working tree, and
# byte-compares, under both engines, the quick and full bench grids, the
# quick co-run sweep, every experiment command at its default flags (plus
# the fig1/fig2 CSV and chart views and sweep -detect), and — what the
# exports do not show — every per-component counter: `simrun -v
# -trace-sim -` on histogram (atomics: the cross-SM commit order) and bfs
# (per-SM, per-partition and per-wake counters), plus bfs's per-load
# records in Tracker delivery order. It then byte-compares the stderr of
# `gpulat help` and of every command's -h, which pins the flag surface.
# No network: the module has no dependencies.
BASE ?= HEAD
EXPERIMENTS = table1 sweep fig1 fig2 ablate-dram ablate-sched ablate-mshr ablate-occupancy load-curve
export-identity:
	@set -e; mkdir -p $(TMP); tmp=$$(mktemp -d $(TMP)/export-identity.XXXXXX); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/gpulat-base" ./cmd/gpulat); \
	$(GO) build -o "$$tmp/gpulat-new" ./cmd/gpulat; \
	for e in tick event; do \
		for x in "bench-suite -quick -quiet -j 8 -engine=$$e -csv" \
				"bench-suite -quick -quiet -j 8 -engine=$$e -json" \
				"bench-suite -quiet -engine=$$e -csv" \
				"corun -quick -quiet -j 8 -engine=$$e -csv" \
				"simrun -arch GF100 -kernel histogram -engine=$$e -v -trace-sim -" \
				"simrun -arch GF100 -kernel bfs -engine=$$e -v -trace-sim -" \
				"export -kernel bfs -engine=$$e" \
				$(foreach c,$(EXPERIMENTS),"$(c) -engine=$$e") \
				"fig1 -engine=$$e -csv" "fig1 -engine=$$e -chart" \
				"fig2 -engine=$$e -csv" "fig2 -engine=$$e -chart" \
				"sweep -engine=$$e -detect"; do \
			"$$tmp/gpulat-base" $$x > "$$tmp/base.out" 2> "$$tmp/base.err" || { cat "$$tmp/base.err"; exit 1; }; \
			"$$tmp/gpulat-new" $$x > "$$tmp/new.out" 2> "$$tmp/new.err" || { cat "$$tmp/new.err"; exit 1; }; \
			cmp "$$tmp/base.out" "$$tmp/new.out" || { echo "export-identity: '$$x' differs from $(BASE)"; exit 1; }; \
			echo "export-identity: same bytes: $$x"; \
		done; \
	done; \
	for c in help $$("$$tmp/gpulat-base" help 2>&1 | sed -n 's/^  \([a-z][a-z0-9-]*\)  .*/\1/p'); do \
		x="$$c -h"; test $$c != help || x=help; \
		"$$tmp/gpulat-base" $$x 2> "$$tmp/base.err" || { cat "$$tmp/base.err"; exit 1; }; \
		"$$tmp/gpulat-new" $$x 2> "$$tmp/new.err" || { cat "$$tmp/new.err"; exit 1; }; \
		cmp "$$tmp/base.err" "$$tmp/new.err" || { echo "export-identity: stderr of '$$x' differs from $(BASE)"; exit 1; }; \
		echo "export-identity: same help: $$x"; \
	done; \
	echo "export-identity: bench grids, co-run export, experiment commands, simrun counter dumps, bfs per-load records and help byte-identical to $(BASE) under both engines"

# The one process-level check of `serve` and `submit` (the real
# listener, flag parsing, SIGTERM): a cold `submit -suite -quick -csv`
# must be the bytes of `bench-suite -quick -csv`, served by one station
# and then by a `serve -backends` coordinator over two more stations
# (SMOKE_SHARDS: the two stations' addresses, then the coordinator's).
SMOKE_ADDR ?= 127.0.0.1:18763
SMOKE_SHARDS ?= 127.0.0.1:18764 127.0.0.1:18765 127.0.0.1:18766
serve-smoke:
	$(BUILD_CLI)
	rm -rf $(TMP)/smoke-cache $(TMP)/smoke-shard-1 $(TMP)/smoke-shard-2
	$(CLI) bench-suite -quick -quiet -csv > $(TMP)/direct.csv
	$(CLI) serve -addr $(SMOKE_ADDR) -cache-dir $(TMP)/smoke-cache -quiet & pid=$$!; \
	$(CLI) submit -addr http://$(SMOKE_ADDR) -quiet -suite -quick -csv > $(TMP)/served.csv; ok=$$?; \
	kill $$pid && wait $$pid && test $$ok = 0
	cmp $(TMP)/direct.csv $(TMP)/served.csv
	set -- $(SMOKE_SHARDS); \
	$(CLI) serve -addr $$1 -cache-dir $(TMP)/smoke-shard-1 -quiet & b1=$$!; \
	$(CLI) serve -addr $$2 -cache-dir $(TMP)/smoke-shard-2 -quiet & b2=$$!; \
	$(CLI) submit -addr http://$$1 -healthz > /dev/null && $(CLI) submit -addr http://$$2 -healthz > /dev/null && { \
		$(CLI) serve -addr $$3 -backends $$1,$$2 -quiet & c=$$!; \
		$(CLI) submit -addr http://$$3 -quiet -suite -quick -csv > $(TMP)/sharded.csv; ok=$$?; \
		kill $$c && wait $$c && test $$ok = 0; }; ok=$$?; \
	kill $$b1 $$b2 && wait $$b1 && wait $$b2 && test $$ok = 0
	cmp $(TMP)/direct.csv $(TMP)/sharded.csv

# The repository benchmark (bench/) is a Go module of its own, outside
# `go test ./...`: build it and run every workload at -smoke scale, so an
# exported-API change in internal/service (or any layer the harness
# drives) cannot break the benchmark silently.
bench-harness:
	cd bench && $(GO) test ./...

# A change's line budget in one command: `make lines BASE=<rev>` prints
# the non-test Go outside bench/ and the test Go outside bench/ at BASE
# (unpacked with `git archive`, as export-identity does) and in the
# working tree (tracked and untracked, not ignored), then `wc -l` before
# -> after of each .go file that differs.
lines:
	@set -e; mkdir -p $(TMP); tmp=$$(mktemp -d $(TMP)/lines.XXXXXX); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && find . -name '*.go' | sed 's|^\./||' | sort) > "$$tmp/base.list"; \
	git ls-files -co --exclude-standard -- '*.go' | while read -r f; do test -f "$$f" && echo "$$f"; done | sort > "$$tmp/new.list"; \
	total() { grep -v '^bench/' "$$2" | grep $$3 '_test\.go$$' | (cd "$$1" && xargs -r cat) | wc -l; }; \
	printf '%-28s %8s %8s\n' "" "$(BASE)" "tree"; \
	printf '%-28s %8d %8d\n' "non-test Go outside bench/" $$(total "$$tmp/base" "$$tmp/base.list" -v) $$(total . "$$tmp/new.list" -v); \
	printf '%-28s %8d %8d\n' "test Go outside bench/" $$(total "$$tmp/base" "$$tmp/base.list" "") $$(total . "$$tmp/new.list" ""); \
	sort -u "$$tmp/base.list" "$$tmp/new.list" | while read -r f; do \
		a=0; b=0; test -f "$$tmp/base/$$f" && a=$$(wc -l < "$$tmp/base/$$f"); test -f "$$f" && b=$$(wc -l < "$$f"); \
		cmp -s "$$tmp/base/$$f" "$$f" || printf '%6d -> %6d  %s\n' $$a $$b "$$f"; \
	done

clean:
	$(GO) clean
	rm -rf $(TMP)
