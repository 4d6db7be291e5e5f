GO ?= go

.PHONY: all build vet lint test race bench verify metrics-smoke faults-smoke trace-smoke cancel-smoke service-smoke fusion-smoke progress-smoke scale-smoke bench-snap bench-gate bench-smoke

all: verify

build:
	$(GO) build ./...

# vet also checks formatting and vets the pure-Go (non-amd64) build, so
# the portable fallbacks of the assembly kernels keep compiling.
vet:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# Static analysis beyond vet. staticcheck is optional locally — the
# target explains and succeeds when the binary is absent (CI installs
# and runs it unconditionally).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

test: metrics-smoke faults-smoke trace-smoke cancel-smoke service-smoke fusion-smoke progress-smoke scale-smoke bench-smoke
	$(GO) test ./...

# End-to-end observability check: a tiny parallel campaign must leave
# behind well-formed, non-empty JSON and Prometheus snapshots.
metrics-smoke:
	rm -rf .metrics-smoke && mkdir -p .metrics-smoke
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 2 \
		-metrics .metrics-smoke/run.json,.metrics-smoke/run.prom >/dev/null
	$(GO) run ./cmd/metricscheck .metrics-smoke/run.json .metrics-smoke/run.prom
	rm -rf .metrics-smoke

# End-to-end fault-tolerance check: a tiny campaign under an aggressive
# seeded fault plan is killed mid-run by a small read budget (leaving
# per-victim checkpoints), resumed to completion, and compared against
# the same campaign run uninterrupted. The resumed run's counters must
# match the uninterrupted run's exactly — zero re-paid hammer rounds and
# reconciling accounting (timers are wall-clock and excluded).
FAULTS_SPEC = seed=11,transient=0.02,recovery=3,stuck=0.0005,outage=0.001,period=1500
faults-smoke:
	rm -rf .faults-smoke && mkdir -p .faults-smoke
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 2 \
		-cache .faults-smoke/zoo -faults '$(FAULTS_SPEC)' \
		-checkpoint .faults-smoke/ckpt -read-budget 4000 \
		-metrics .faults-smoke/interrupted.json >/dev/null
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 2 \
		-cache .faults-smoke/zoo -faults '$(FAULTS_SPEC)' \
		-checkpoint .faults-smoke/ckpt -resume \
		-metrics .faults-smoke/resumed.json >/dev/null
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 2 \
		-cache .faults-smoke/zoo -faults '$(FAULTS_SPEC)' \
		-metrics .faults-smoke/uninterrupted.json >/dev/null
	$(GO) run ./cmd/metricscheck .faults-smoke/interrupted.json
	$(GO) run ./cmd/metricscheck -equal-counters \
		.faults-smoke/resumed.json .faults-smoke/uninterrupted.json
	rm -rf .faults-smoke

# End-to-end tracing check: the same tiny campaign at 1 and 4 workers
# must emit byte-identical Chrome trace files (trace clocks are
# simulated, never wall time), both validating under metricscheck, and
# the exported snapshot must carry consistent latency histograms. A
# second run under faults with a small read budget must leave a
# validating flight-recorder dump next to its checkpoints. The two
# trace runs deliberately do NOT share a zoo cache: a cache hit skips
# the build spans and would break the byte-identity comparison.
trace-smoke:
	rm -rf .trace-smoke && mkdir -p .trace-smoke
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 1 \
		-trace .trace-smoke/w1.json \
		-metrics .trace-smoke/run.json,.trace-smoke/run.prom >/dev/null
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 4 \
		-trace .trace-smoke/w4.json >/dev/null
	cmp .trace-smoke/w1.json .trace-smoke/w4.json
	$(GO) run ./cmd/metricscheck -trace .trace-smoke/w1.json \
		.trace-smoke/run.json .trace-smoke/run.prom
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 2 \
		-faults '$(FAULTS_SPEC)' -checkpoint .trace-smoke/ckpt \
		-read-budget 4000 -flight .trace-smoke/flight.json >/dev/null
	$(GO) run ./cmd/metricscheck -flight .trace-smoke/flight.json
	set -e; for f in .trace-smoke/ckpt/*.flight.json; do \
		$(GO) run ./cmd/metricscheck -flight $$f; done
	rm -rf .trace-smoke

# End-to-end cancellation check: a tiny checkpointed campaign is hit
# with SIGINT mid-run — the process must drain gracefully, still write
# its -metrics and -flight artifacts, and leave resumable state. A
# -resume run then finishes the remainder, and its counters must equal a
# never-interrupted campaign's exactly (Ctrl-C behaves like a read
# budget: checkpoint, report interrupted, resume byte-identically). The
# zoo cache is pre-built so every campaign run starts from the same
# counters and the signal lands in the attack phase, not the build; the
# checkpoint poll is fine-grained because a tiny campaign's attack phase
# lasts well under a second.
cancel-smoke:
	rm -rf .cancel-smoke && mkdir -p .cancel-smoke
	$(GO) build -o .cancel-smoke/decepticon ./cmd/decepticon
	$(GO) run ./cmd/zoo -scale tiny -cache .cancel-smoke/zoo >/dev/null
	.cancel-smoke/decepticon -scale tiny -all -workers 2 \
		-cache .cancel-smoke/zoo \
		-metrics .cancel-smoke/uninterrupted.json >/dev/null
	( .cancel-smoke/decepticon -scale tiny -all -workers 2 \
		-cache .cancel-smoke/zoo -checkpoint .cancel-smoke/ckpt \
		-metrics .cancel-smoke/interrupted.json \
		-flight .cancel-smoke/flight.json >/dev/null & \
	  pid=$$!; \
	  i=0; until ls .cancel-smoke/ckpt/*.ckpt >/dev/null 2>&1; do \
	    i=$$((i+1)); test $$i -le 6000 || break; sleep 0.01; done; \
	  kill -INT $$pid 2>/dev/null; wait $$pid || true )
	test -s .cancel-smoke/interrupted.json
	test -s .cancel-smoke/flight.json
	$(GO) run ./cmd/metricscheck .cancel-smoke/interrupted.json
	$(GO) run ./cmd/metricscheck -flight .cancel-smoke/flight.json
	.cancel-smoke/decepticon -scale tiny -all -workers 2 \
		-cache .cancel-smoke/zoo -checkpoint .cancel-smoke/ckpt -resume \
		-metrics .cancel-smoke/resumed.json >/dev/null
	$(GO) run ./cmd/metricscheck -equal-counters \
		.cancel-smoke/resumed.json .cancel-smoke/uninterrupted.json
	rm -rf .cancel-smoke

# End-to-end multi-modal check: a tiny campaign measured through all
# three level-1 channels (trace, power, counters) must produce identical
# counters at 1 and 4 workers (the zoo cache is pre-built so both runs
# start from the same build counters), and a run with the power sensor
# jammed must complete gracefully — reporting degraded identification on
# the core.modality_jammed / core.identify_degraded counters rather than
# failing.
fusion-smoke:
	rm -rf .fusion-smoke && mkdir -p .fusion-smoke
	$(GO) run ./cmd/zoo -scale tiny -cache .fusion-smoke/zoo >/dev/null
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 1 \
		-cache .fusion-smoke/zoo -modalities trace,power,counters \
		-metrics .fusion-smoke/w1.json >/dev/null
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 4 \
		-cache .fusion-smoke/zoo -modalities trace,power,counters \
		-metrics .fusion-smoke/w4.json >/dev/null
	$(GO) run ./cmd/metricscheck -equal-counters \
		.fusion-smoke/w1.json .fusion-smoke/w4.json
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 2 \
		-cache .fusion-smoke/zoo -modalities trace,power,counters \
		-jam power -metrics .fusion-smoke/jam.json >/dev/null
	$(GO) run ./cmd/metricscheck \
		-nonzero core.modality_jammed,core.identify_degraded \
		.fusion-smoke/jam.json
	rm -rf .fusion-smoke

# End-to-end zoo-store check: a cold build into a content-addressed
# store trains every model (nonzero train counters); an immediate warm
# reopen trains NOTHING (exact-zero counters — the incremental-build
# contract); deleting one fine-tuned object and reopening retrains
# exactly that one model; and a full campaign runs against the store
# with lazy handles released per victim. TestZooScale pins the rest
# (flat 10x memory, hierarchical accuracy, byte-identical retrains).
scale-smoke:
	rm -rf .scale-smoke && mkdir -p .scale-smoke
	$(GO) run ./cmd/zoo -scale tiny -store .scale-smoke/store \
		-metrics .scale-smoke/cold.json >/dev/null
	$(GO) run ./cmd/metricscheck \
		-nonzero zoo.models_pretrained,zoo.models_finetuned \
		.scale-smoke/cold.json
	$(GO) run ./cmd/zoo -scale tiny -store .scale-smoke/store \
		-metrics .scale-smoke/warm.json >/dev/null
	$(GO) run ./cmd/metricscheck \
		-counter zoo.models_pretrained=0,zoo.models_finetuned=0 \
		.scale-smoke/warm.json
	rm "$$(ls .scale-smoke/store/objects/*__ft-* | head -1)"
	$(GO) run ./cmd/zoo -scale tiny -store .scale-smoke/store \
		-metrics .scale-smoke/repair.json >/dev/null
	$(GO) run ./cmd/metricscheck \
		-counter zoo.models_pretrained=0,zoo.models_finetuned=1 \
		.scale-smoke/repair.json
	$(GO) run ./cmd/decepticon -scale tiny -all -workers 2 \
		-store .scale-smoke/store -release-models \
		-metrics .scale-smoke/campaign.json >/dev/null
	$(GO) run ./cmd/metricscheck .scale-smoke/campaign.json
	$(GO) test -run TestZooScale ./internal/experiments
	rm -rf .scale-smoke

# End-to-end daemon check (scripts/service-smoke.sh): decepticond runs
# two campaigns to completion (control), is killed with SIGTERM
# mid-extraction and restarted on the same state dir — the resumed
# campaigns' results, streams, and summaries must be byte-identical to
# the control's (zero re-paid hammer rounds) — then campaignload drives
# 100 concurrent campaigns through the bounded queue with a
# finite-budget tenant, asserting queue depth, budget enforcement,
# ordered streaming, and a bounded heap.
service-smoke:
	GO='$(GO)' sh scripts/service-smoke.sh

# End-to-end telemetry check (scripts/progress-smoke.sh): one campaign's
# event ledger validates under metricscheck -events (monotonic seq, legal
# transitions, unique terminal) across a SIGTERM kill and resume, the
# deterministic progress document is byte-identical for 1-worker,
# kill/resume, and 4-worker runs, and decepticontop renders the live
# state (campaign row at 100%, tenant budget table).
progress-smoke:
	GO='$(GO)' sh scripts/progress-smoke.sh

# Race-detector tier: the packages that gained goroutines, filtered to
# the concurrency-exercising tests so the 5-20x race overhead stays
# affordable on small machines. GOMAXPROCS is raised explicitly so the
# pool actually schedules in parallel even on a single-core host.
race:
	GOMAXPROCS=4 $(GO) test -race ./internal/parallel
	GOMAXPROCS=4 $(GO) test -race -run 'WorkerCountInvariance|ProgressSerialized' ./internal/zoo
	GOMAXPROCS=4 $(GO) test -race -run 'BitIdentical|ScratchSurvives' ./internal/nn
	GOMAXPROCS=4 $(GO) test -race -run 'WorkerCountInvariance' ./internal/fingerprint ./internal/cnnmodel
	GOMAXPROCS=4 $(GO) test -race -run 'ConcurrentPredict' ./internal/transformer
	GOMAXPROCS=4 $(GO) test -race -run 'ParallelPipelineMatchesSerial|ObsReconcilesWithCampaign|RunAllContextCancel' ./internal/core
	GOMAXPROCS=4 $(GO) test -race -run 'Snapshot|OrderedSink|Serve|Histogram|Tracer|Flight|Progress' ./internal/obs

bench:
	$(GO) test -bench=. -benchmem

# Benchmark trajectory gate (cmd/benchsnap). BENCH_extract.json holds
# deterministic extraction economics — physical reads, hammer rounds,
# clone match for the index-ordered baseline vs the information-ordered
# scheduler — compared for EXACT equality: one regressed hammer round
# fails the gate. BENCH_substrate.json holds hot-path timings normalized
# by an in-process calibration loop, compared within BENCH_TOL relative
# tolerance (default ±20%; CI relaxes it for noisy shared runners).
# Regenerate the committed snapshots with `make bench-snap` whenever a
# change intentionally moves them, and explain the delta in the PR.
BENCH_TOL ?= 0.20
bench-snap:
	$(GO) run ./cmd/benchsnap -write

bench-gate:
	$(GO) run ./cmd/benchsnap -gate -tol $(BENCH_TOL)

# The deterministic half of the gate only (no timing runs): fast enough
# to ride inside `make test` as a smoke check.
bench-smoke:
	$(GO) run ./cmd/benchsnap -gate -quick

# The full pre-commit gate.
verify: build vet lint test race
