# Developer entry points. `make verify` is the gate every change must
# pass: vet, the diverselint invariant suite, and the full test suite
# under the race detector (the netcast Tune-vs-Close shutdown race is
# only visible with -race).

GO ?= go
DIVERSELINT = bin/diverselint

.PHONY: verify build test race vet benchmod lint hot allocgates bench microbench

verify: vet benchmod lint race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# benchmod builds and vets perfbench/, the repo's end-to-end benchmark.
# It is a nested module, so `./...` above never reaches it: without
# this target a core API change could break `bash perfbench/run.sh`
# while every other check passes.
benchmod:
	cd perfbench && $(GO) build ./... && $(GO) vet ./...

# lint runs the repo's own analyzer suite (cmd/diverselint) over every
# package, test files included, then staticcheck when it is installed
# (CI pins it; offline dev containers may not have it, so its absence
# is not an error here).
#
# The diverselint invocations carry a runtime budget: every run builds
# the whole-program call graph, the lock and hot-error summaries that
# lockbalance, lockorder and errdrop read, and the allocation
# summaries behind hotalloc, loopalloc and -hot, and that cost must
# stay inner-loop cheap. Blowing the budget fails the target so an
# interprocedural regression (a fixpoint that stopped converging,
# say) is caught as a perf bug, not absorbed as slow CI. Staticcheck
# runs outside the budget — its runtime is not ours to control.
LINT_BUDGET ?= 60
lint: $(DIVERSELINT)
	@start=$$(date +%s); \
	./$(DIVERSELINT) -tests ./... && ./$(DIVERSELINT) -audit ./...; rc=$$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "diverselint: $${elapsed}s (budget $(LINT_BUDGET)s)"; \
	if [ $$rc -ne 0 ]; then exit $$rc; fi; \
	if [ $$elapsed -gt $(LINT_BUDGET) ]; then \
		echo "diverselint exceeded the $(LINT_BUDGET)s lint budget"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# hot prints the zero-alloc contract report (DESIGN.md §12): every
# //diverselint:hotpath root with its reachable set and
# clean/suppressed/violating status; exits nonzero on a violating
# root. allocgates runs the runtime half — the AllocsPerRun==0 gate
# tests — deliberately without -race (the detector's instrumentation
# allocates, and the gates skip themselves under it).
hot: $(DIVERSELINT)
	./$(DIVERSELINT) -hot ./...

allocgates:
	$(GO) test -run AllocFree -count=1 ./internal/...

$(DIVERSELINT): FORCE
	$(GO) build -o $(DIVERSELINT) ./cmd/diverselint

.PHONY: FORCE
FORCE:

# bench runs the tracked benchmark families through cmd/bcastbench and
# writes the machine-readable report the PR trajectory is recorded in.
# BENCH_OUT names the new artifact and is required, so a plain
# `make bench` cannot overwrite a committed one:
#   make bench BENCH_OUT=BENCH_<pr>.json
# BENCH_FLAGS passes runner flags (e.g. BENCH_FLAGS="-quick").
BENCH_FLAGS ?=
bench:
	@test -n "$(BENCH_OUT)" || { echo 'make bench: set BENCH_OUT=<file>.json (the report path)' >&2; exit 1; }
	$(GO) run ./cmd/bcastbench -out $(BENCH_OUT) $(BENCH_FLAGS)

# microbench is the raw go-test benchmark harness (every family,
# human-readable output, nothing written to disk).
microbench:
	$(GO) test -bench=. -benchmem -run=^$$ .
