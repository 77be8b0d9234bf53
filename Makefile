# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint lint-json test check chaos-smoke streams-smoke topo-smoke topo-soak-diff scenario-smoke fuzz-smoke race-smoke cover determinism-smoke bench bench-smoke bench-ledger bench-full experiments examples loc clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism & safety static analysis (see DESIGN.md "Static analysis"):
# no wall clocks or global rand in the sim zone, no map-order leaks, no
# lock/pool/ack/goroutine lifecycle leaks, no silently dropped
# publish/store errors. The only suppression is a //lint:allow <check>
# <reason> beside the code, and one that suppresses nothing fails the run
# too. `./...` covers the analyzer and its driver, so they are held to
# their own rules in the same call.
lint:
	$(GO) run ./cmd/dlc-lint ./...

# The same run as a machine-readable report (findings, per-check timing):
# it fails exactly when `make lint` does, and CI gates on it and uploads
# lint-report.json as an artifact on every run.
lint-json:
	$(GO) run ./cmd/dlc-lint -json ./... > lint-report.json

test:
	$(GO) test ./...

# Static checks plus the full test suite under the race detector.
check:
	$(GO) vet ./...
	$(GO) run ./cmd/dlc-lint ./...
	$(GO) test -race ./...

# Short seeded chaos soak under the race detector: the durable DSOS
# configuration (WAL + R=2) must survive randomized fault schedules with
# zero invariant violations, and the legacy configuration must demonstrably
# lose acked data (CI runs this too).
chaos-smoke:
	$(GO) test -race -run ChaosSoak ./internal/harness

# CI-sized durable-stream soak: seeded schedules of consumer crashes,
# stream reopens, link outages and lag past retention must audit clean
# (no acked message lost, no duplicate stored, cursors monotone, drops
# exactly accounted), and the legacy best-effort bus must demonstrably
# lose data under the same schedules (CI runs this too). Then the batch
# contract of the durable path under the race detector: the segment's
# batch entry (legacy read-compat, torn batch, hostile counts, trims
# inside a batch), PublishBatch accounting, the batch ack, and the
# blocking Wait raced against AppendBatch, Close and consumer replacement;
# settled history — the model test against a memory-resident stream, a
# failed read-back as an error, a late joiner reading history while the
# live consumer acks, and the live heap per retained message;
# on the uplink side the cursor's one-frame-one-ack round, the crash
# between send and batch ack, the idle wake-up, and the -reconnect spool:
# its memory-only stream's books under every overflow policy (a block
# publisher woken by an ack) and the differential against the spool it
# replaced; the forward every daemon runs (-forward) against the
# best-effort reference it replaced, across an upstream restart, under a
# 200k-event firehose and closed with a publisher blocked on its window,
# and the frozen legacy-frame capture it still reads; at the store hop the
# round commit, its refusal and fail-stop, the dead letter, dedup memory
# behind a gap that never fills, a kill at each point of a round, the
# stored-body ingest against the decode path, the receive store (each
# frame stored as one run from its connection) against the bus handler
# it replaced, two connections racing the same frames into one receive
# store, and rows reused the round after their insert. Last, the
# real binaries:
# ldmsd -forward across a dsosd restart, ldmsd's SIGTERM with a blocked
# publisher, and dlc-run -forward.
streams-smoke:
	$(GO) test -race -short -run 'StreamSoak' ./internal/harness
	$(GO) test -race -count=1 -run 'Batch|Wait|Legacy|Lazy|Retention|MemoryStream|Settled|LateJoiner|V1SegmentReadCompat|V2SegmentReadCompat|Compaction' ./internal/streams
	$(GO) test -race -count=1 -run 'Cursor|CrashBetween|IngestStream|Recover|IdleUplink|ServeKeepsBooks|UplinkWireIdentity|DedupStoreMemory|SeenSeqs|StoredBodyIngestIdentity|ReceiveStore|SpoolStream|ForwarderSpool|UplinkHealth|UplinkLifecycle|ForwardMatchesBestEffort|ForwardSurvivesUpstreamRestart|TCPServerDeath|ForwardFirehose|LegacyFrameReadCompat|TwoJobsOneProducer' ./internal/ldms ./internal/connector
	$(GO) test -race -count=1 -run 'InsertOutlivesRowMemory' ./internal/topo
	$(GO) test -count=1 -run 'TestCLIForwardSurvivesUpstreamRestart|TestCLILdmsdShutdownWithBlockedPublisher|TestCLIRunForward' .

# CI-sized control-plane soak under the race detector: the managed
# topology (aggregation tree with failover + consistent-hash shards with
# live rebalancing) must survive seeded schedules of aggregator crashes,
# link partitions and mid-soak grow/shrink with zero invariant
# violations — no acked record lost, no (producer,seq) stored twice,
# every key exactly its ring owners after each move, ack floors never
# regress — and the static-placement baseline must demonstrably lose
# acked data under the same schedules (CI runs this too, as its own
# matrix leg). Both placement strategies sit behind the one dsos client,
# so its package races here as well; the insert barrier's two tests run
# fifty times over (a grow or shrink waits for an insert parked between
# plan and write, and inserts and queries race a grow, a shrink and a
# grow), and the dsosd CLI test drives the real binary in both modes
# (flag validation, live grow, SIGTERM snapshots).
topo-smoke:
	$(GO) test -race -short -count=1 -run 'RebalanceSoak|SoakHop' ./internal/harness
	$(GO) test -race -count=1 ./internal/topo ./internal/dsos
	$(GO) test -race -count=50 -run 'PlacementSwapUnderLoad|MoveWaitsForParkedInsert' ./internal/topo ./internal/dsos
	$(GO) test -count=1 -run 'TestCLIDsosd' .

# The seeded 20-schedule rebalance soak report is byte-stable, so a change
# that is not meant to move it must reproduce the parent commit's report:
# build the parent from `git archive HEAD^`, run both, diff. CI runs this
# on the topo-smoke leg and uploads $(TOPOOUT)/topo.txt as the artifact.
TOPODIR ?= /tmp/dlc-topo-parent
TOPOOUT ?= results
topo-soak-diff:
	rm -rf $(TOPODIR) && mkdir -p $(TOPODIR)/src
	git archive HEAD^ | tar -x -C $(TOPODIR)/src
	cd $(TOPODIR)/src && $(GO) run ./cmd/dlc-experiments -only topo -out $(TOPODIR)/out
	$(GO) run ./cmd/dlc-experiments -only topo -out $(TOPOOUT)
	diff $(TOPODIR)/out/topo.txt $(TOPOOUT)/topo.txt
	@echo "rebalance soak: seeded report is byte-identical to the parent commit's"

# Scenario-engine determinism gate: unit tests for the spec parser,
# arrival processes and planner, then the curated five-scenario campaign
# run twice with the same seed — the two reports must be byte-identical.
# The binary itself gates the pathology demonstration (the flash-crowd
# metadata storm must overflow the rate-limited uplink). CI runs this as
# its own matrix leg and uploads the report as an artifact.
SCENDIR ?= /tmp/dlc-scenario
scenario-smoke:
	$(GO) test -count=1 ./internal/scenario ./internal/replay
	$(GO) test -count=1 -run 'TestScenario|TestDetectScenario' ./internal/harness
	rm -rf $(SCENDIR)
	$(GO) run ./cmd/dlc-experiments -only scenario -seed 42 -out $(SCENDIR)/a
	$(GO) run ./cmd/dlc-experiments -only scenario -seed 42 -out $(SCENDIR)/b
	diff -r $(SCENDIR)/a $(SCENDIR)/b
	@echo "scenario campaign: seeded reports are byte-identical"

# Every parser-hardening fuzz target as package:Target pairs. fuzz-smoke
# (local and in CI) iterates this list, and each target loads its checked-in
# seed corpus from <package>/testdata/fuzz/<Target>/; the committed seeds are
# the corpus, and plain `go test` replays them too. Adding a pair here is the
# single step to get a new target fuzzed everywhere; TestFuzzTargetsMatch
# fails while this list and the `func Fuzz*` declarations differ.
FUZZ_TARGETS ?= \
	internal/darshanlog:FuzzRead \
	internal/jsonmsg:FuzzParse \
	internal/jsonmsg:FuzzEncodeParse \
	internal/event:FuzzSlabCodec \
	internal/ldms:FuzzReadFrame \
	internal/ldms:FuzzReadBatchFrame \
	internal/sos:FuzzRestore \
	internal/sos:FuzzKeyOrder \
	internal/sos:FuzzReplayWAL \
	internal/sos:FuzzObjectsMatchBoxed \
	internal/sos:FuzzBTreeMatchesReference \
	internal/sos:FuzzDerivedOrderMatchesTree \
	internal/dsos:FuzzCursorMatchesQueryEx \
	internal/dsos:FuzzCSVFloat \
	internal/streams:FuzzStreamCursor \
	internal/streams:FuzzRetention \
	internal/streams:FuzzBatchV2 \
	internal/topo:FuzzRing \
	internal/scenario:FuzzScenarioSpec

# Short fuzz pass over every target in FUZZ_TARGETS (CI runs this too).
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "== fuzz $$target ./$$pkg"; \
		$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime $(FUZZTIME) ./$$pkg; \
	done

# Race-detector sweep over the concurrent planes (durable streams, TCP
# transport + uplink, SOS page seals, DSOS, observability). -count=1 defeats
# the test cache so every run actually races; -short keeps soak
# iterations CI-sized (CI runs this too, as its own matrix leg).
race-smoke:
	$(GO) test -race -count=1 -short ./internal/streams ./internal/ldms ./internal/sos ./internal/dsos ./internal/obs ./internal/topo

# Statement coverage with a ratchet: fail if the total drops more than
# 0.5pt below the checked-in floor (ci/coverage.floor). Raise the floor
# when coverage durably improves; never lower it to make CI pass.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat ci/coverage.floor); \
	echo "total statement coverage: $$total% (floor $$floor%)"; \
	awk -v t=$$total -v f=$$floor 'BEGIN { if (t + 0.5 < f) { \
		printf "coverage ratchet: %.1f%% is more than 0.5pt below the %.1f%% floor\n", t, f; exit 1 } }'

# Telemetry must not perturb results: the same seeded reduced-scale
# campaign, run with telemetry off and then on, must produce byte-identical
# tables and figures (CI diffs the two output trees on every PR).
DETDIR ?= /tmp/dlc-determinism
determinism-smoke:
	rm -rf $(DETDIR)
	$(GO) run ./cmd/dlc-experiments -seed 2022 -reps 1 -scale 0.05 -out $(DETDIR)/off
	$(GO) run ./cmd/dlc-experiments -seed 2022 -reps 1 -scale 0.05 -telemetry -out $(DETDIR)/on
	diff -r $(DETDIR)/off $(DETDIR)/on
	@echo "determinism: telemetry-on outputs are byte-identical"

# Scaled-down `go test` benchmarks: one per table/figure plus package
# microbenches. Test code for measuring while working; gates nothing.
bench:
	$(GO) test -bench . -benchmem ./...

# The perf gate. `go run ./bench -smoke` builds and spawns the real
# ldmsd -> dsosd on both uplink configurations (durable stream + WAL, and
# best-effort batches), verifies exact /count, a reference rank and every
# query's row count, and writes bench/out/bench.json; ci/benchgate then
# holds that run's allocs/event and bytes/event (every layer, and every
# workload's disk bytes with its per-daemon split) to the committed
# ci/bench.ledger in both directions: worse is a
# regression, better is a stale entry, missing on either side is an error.
# Only allocs and bytes are gated because only they repeat from run to run
# and host to host; wall-clock numbers wander 12-37% here, so a speed
# claim is paired `bash bench/run.sh` evidence in a PR (bench/README.md),
# never a CI threshold. Allocations depend on the compiler's escape
# analysis, so the ledger names the Go minor that wrote it and only that
# toolchain enforces it; any other prints the comparison and passes. CI
# pins that minor as its own bench-smoke leg (.github/workflows/ci.yml).
bench-smoke:
	$(GO) run ./bench -smoke
	$(GO) run ./ci/benchgate

# Deliberately regenerate the ledger from this tree (the only way it
# changes); commit the diff with its reason, and
# if the Go minor changed, move ci.yml's pinned bench-smoke leg with it.
bench-ledger:
	$(GO) run ./bench -smoke
	$(GO) run ./ci/benchgate -write

# The paper's full workload sizes (slow: ~20 minutes).
bench-full:
	DLC_BENCH_SCALE=1.0 $(GO) test -bench 'Table|Figure' -benchtime 1x .

# Non-test Go lines per package directory (testdata/ excluded), then the
# total: the figure a PR reports when it grows or shrinks the code.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Regenerate every table and figure at full scale into ./results.
experiments:
	$(GO) run ./cmd/dlc-experiments -reps 5 -scale 1.0 -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/haccio-monitoring
	$(GO) run ./examples/overhead-study
	$(GO) run ./examples/hdf5-tracing
	$(GO) run ./examples/live-dashboard -render-only

clean:
	rm -rf results dashboard
