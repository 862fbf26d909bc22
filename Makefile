# Tier-1 gate: `make check` is what CI (and every PR) must keep green.
GO       ?= go
FUZZTIME ?= 10s

.PHONY: check vet layering static build bench-build test loc race race-stream test-recovery test-diffharness test-diffharness-incremental test-registry trace-smoke alloc-gate bench-gate fuzz-smoke bench bench-json bench-diff

check: vet layering static build bench-build race race-stream test-recovery test-diffharness test-diffharness-incremental test-registry trace-smoke alloc-gate bench-gate fuzz-smoke

vet:
	$(GO) vet ./...

# Fragments flow from a stream client into a registry, and so do the
# imports: Client.AttachRegistry feeds a registry, which internal/stream
# can only import while internal/registry knows nothing of it.
layering:
	@! $(GO) list -f '{{join .Imports "\n"}}' ./internal/registry | grep -x xcql/internal/stream || { echo "internal/registry must not import internal/stream"; exit 1; }

# staticcheck is optional tooling: run it when installed, skip loudly
# (but successfully) when not, so `make check` works on a bare toolchain.
static:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

build:
	$(GO) build ./...

# bench/ is a module of its own, so `go build ./...` from the root never
# compiles it, yet it pins public API: the deprecated QaCPlusPlus constant
# and "QaC++" wire name (both QaC+ now), the deprecated, always-zero
# EvalStats.LabelRangeLookups, Query.WithParallelism and Query.WithCache
# (deprecated no-ops: holes resolve sequentially and uncached),
# Engine.SetTraceSink and SpanRecord, RegistryOptions.Incremental and
# RegisterRequest.Incremental (ignored fields since every standing query
# runs the incremental engine), and registry.DialSubscribe. Folding any of
# them waits on the harness (ROADMAP 1 (a)). Building and self-testing it
# here makes a change that breaks the end-to-end harness fail locally, not
# in the pipeline. (-o /dev/null: the module's one main package would
# otherwise be written over its own directory name.)
bench-build:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test -short -timeout 120s ./...

test:
	$(GO) test -timeout 120s ./...

# Non-test Go lines per directory outside bench/, and their total: the
# size ROADMAP.md and CHANGES.md quote. Not part of check.
loc:
	@files=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*'); \
	awk '{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++ } END { for (d in n) printf "%7d %s\n", n[d], d }' $$files | sort -k2; \
	cat $$files | wc -l | awk '{ printf "%7d total\n", $$1 }'

# (240s: the root package replays every generated query arrival by arrival
# under the detector — 80 s here since the generator spells the pushed and
# unpushed predicate shapes.)
race:
	$(GO) test -race -timeout 240s ./...

# The stream and obs packages hold the timing-sensitive reliability/chaos
# tests and the lock-free histogram, fragment the store's lock, its
# coalescing beside readers and the lazily decoded payloads, and registry the
# standing-query fan-out; a second -count=2 pass under the race detector
# is the deflake gate.
race-stream:
	$(GO) test -race -count=2 -timeout 120s ./internal/stream ./internal/obs ./internal/fragment ./internal/registry

# The crash-point harness: enumerate every filesystem operation in an
# ingest/snapshot/compact run, kill the store at each one, and prove
# recovery yields exactly the committed prefix (never losing an
# acknowledged append), under the race detector.
test-recovery:
	$(GO) test -race -run '^(TestCrashPointHarness|TestCrashPointHarnessReplaysTwice)$$' -timeout 300s ./internal/segstore

# The metamorphic differential harness: >=200 generated store/query
# pairs under every plan, byte-identical results, and every predicate
# the translator pushes below the access path against the same predicate
# left to the evaluator, under the race detector. The grid doubles as the
# immutability guard: every stored payload is fingerprinted before and must be
# untouched after (as it must after snapshot/compaction/coalescing), and
# all three plans run concurrently beside a writer so that a write to a
# shared node is a reported race. A store of the same fragments decoded
# from their wire form, whose re-announced versions share their hole
# nodes, answers every plan byte for byte as the in-memory store does.
test-diffharness:
	$(GO) test -race -run '^(TestDiffHarness|TestPushedFilterMatchesEvaluator|TestPayloadsSurviveMaintenance|TestSharedNodesUnderConcurrentPlans|TestDecodedStoreMatchesInMemory)$$' -timeout 300s .

# The incremental cell: generated pairs REPLAYED one arrival at a time
# (every profile of at least four seeds, re-announced parents, expiring
# windows and pure clock advances included) through a standing query, the
# one registration of a registry, its deltas byte-identical to the
# harness's from-scratch oracle under every plan, plus the arrival-order
# metamorphic suite.
test-diffharness-incremental:
	$(GO) test -race -run '^(TestDiffHarnessIncremental|TestIncrementalArrivalOrder)$$' -timeout 600s .

# The registry-equivalence cell: 200+ generated store/query pairs
# replayed through the multi-tenant registry with 2..32 overlapping
# standing registrations, every delta stream and final standing result
# byte-identical to a from-scratch evaluation diffed step by step (the
# harness's own oracle, which a registry of one registration is held to
# in test-diffharness-incremental), plus the shared-cost monotonicity,
# admission, pending-re-emission and churn/soak suites, under the race
# detector. The churn test dials a stream client, so it lives on the
# stream side.
test-registry:
	$(GO) test -race -run '^(TestRegistryEquivalence|TestRegistrySharedCostMonotonic)$$' -timeout 600s .
	$(GO) test -race -run '^(TestRegistryAdmissionOverload|TestPendingReemissionSurvivesFailedArrival)$$' -timeout 120s ./internal/registry
	$(GO) test -race -run '^TestRegistryChurnUnderFire$$' -timeout 120s ./internal/stream

# End-to-end tracing acceptance: a chaos burst with the flight recorder
# attached at every layer must produce a complete publish → segstore.append
# → segstore.fsync → deliver → registry.eval → fanout span tree under one
# trace id (every standing query is a registration and records
# registry.eval/fanout/inc.recompute), survive a forced reconnect, and
# leak no goroutines — all under the race detector.
trace-smoke:
	$(GO) test -race -run '^TestTraceSmoke$$' -timeout 120s .

# The allocation gate: Q1, Q2, Q5 and QD under QaC+ on XMark sf=0.02 must
# stay under fixed allocs/op ceilings (~15 % above the counts of the
# zero-copy read path with predicates pushed below it, a child step's
# positions served as a read window and hole ids read in place, the
# store's one index read in place, a read's tops built
# in one array, no context kept per FLWOR tuple; Q2, Q5 and QD ~10 % above
# an evaluator that allocates per binding only what the result keeps:
# arguments, intermediate path steps, the context item and constructor
# content in the evaluation's scratch) — the deterministic
# metric that neither a deep copy sneaking back onto the read path, nor a
# top element built for a version the query discards, nor a per-read
# regrouping of what the index holds, nor an id set built per hole crossing
# can hide from; POST /v1/eval around Q2 and QD, through httptest, has
# ceilings of its own. A QaC+ Q1 evaluated right after a Store.Add must
# allocate within 5 of a warm one, and Explain() the same on a store ten
# times the size and after a write: nothing is derived from the store per
# generation, and a census is read off the index. Q2, Q5, QD and the two
# POST /v1/eval rows hold heap bytes as well (~15 % above what they allocate
# with their reads building no top the query cannot observe): a count
# cannot see a read's tops come back, since a read builds them all in a few
# allocations. One charge of the standing fraud query on a re-announced
# credit stream has a ceiling too: losing per-binding decomposition or
# window-expiry scheduling costs many times as much, losing a unit's
# per-version memo or its per-child terms three to four times, and more with
# every charge (a check holds one charge flat from 250 to 1 000 charges in). The wire codec's ceilings hold allocations and bytes alike —
# decoding one transaction frame and one thirty-hole account frame, the
# account's re-announcement as a delta frame (decoded, and decoded and
# read), Publish up to the wire bytes and a segment store's append — since
# what the codec must not bring back
# is a per-frame buffer (one allocation, 32 KiB) or a node built at a time
# (decoding is the frame's string, its hole list and the fragment: the
# payload is built on its first read, for one allocation more than an eager
# decode). The registry's hold what
# one arrival costs 64 standing pass-through queries in one group — a
# transaction, an account re-announcement that dirties nothing (nothing at
# all) and a result frame written into a kept buffer (nothing either): what
# they must not bring back is machinery rebuilt per arrival — a shared-pass
# map, a stats struct, a function table, a second serialization. A
# subscriber reading a result frame pays the one string its strings are
# substrings of and the delta slice: what it must not bring back is a
# decode that allocates per field or item. Thirty decoded re-announcements
# of one account hold their trees' heap under a ceiling, and each version's
# tree holds the one before's hole nodes: what must not come back is a
# hole element built per hole per version. Run without -race: the
# detector's instrumentation allocates on its own.
alloc-gate:
	$(GO) test -run '^(TestAllocationCeiling|TestWireCodecAllocationCeiling|TestRegistryArrivalAllocationCeiling|TestExplainDoesNotWalkTheStore)$$' -count=1 -timeout 120s .
	$(GO) test -run '^TestSubscriberReadAllocationCeiling$$' -count=1 -timeout 120s ./internal/registry
	$(GO) test -run '^TestDecodedVersionsShareHoles$$' -count=1 -timeout 120s ./internal/fragment

# The benchmark gate: a short fixed-iteration run of the grid rows whose
# numbers a re-run reproduces — PlanGrid, Selectivity, ParallelCache's
# one row (QaC+ on a scan store), every IncrementalContinuous row (the
# re-announcing ones and the incremental/events=N floor), RegistryFanout,
# the wire codec, recovery and snapshot-bootstrap rows (allocs/op
# only), every BenchmarkHistory row but the join's large history (one
# evaluation each: a long history's read takes up to a second) and every
# BenchmarkReannounce row (one pass of the stream each) — held to
# the newest snapshot by `benchjson -gate`: fillers/op,
# holes/op, tsid-hits/op, handlers/op, mat-bytes/op and the
# re-announcement's wire, segment and decode counters exactly, allocs/op
# at most 2 % + 2 above. ns/op is printed, never failed on: on a shared
# host it moves by a quarter between two runs of the same code. A PR that
# moves one of these on purpose writes a new snapshot (bench-json).
bench-gate:
	( $(GO) test -run '^$$' -bench '^(BenchmarkPlanGrid|BenchmarkSelectivity|BenchmarkParallelCache)$$' -benchtime 20x -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkIncrementalContinuous$$' -benchtime 300x -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkRegistryFanout$$' -benchtime 300x -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^(BenchmarkWireCodec|BenchmarkRecovery|BenchmarkSnapshotBootstrap)$$' -benchtime 200x -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkHistory$$' -benchtime 1x -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkReannounce$$' -benchtime 1x -benchmem -short . ) \
		| $(GO) run ./cmd/benchjson -gate $(BENCHOUT)

# A short deterministic shake of each fuzz target; longer runs are
# `make fuzz-smoke FUZZTIME=5m`. `-run '^$'` skips the unit tests that
# already ran under `race`.
fuzz-smoke:
	$(GO) test ./internal/fragment -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz '^FuzzFrameRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/segstore -run '^$$' -fuzz '^FuzzSegmentReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xcql -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/registry -run '^$$' -fuzz '^FuzzQueryAPIRequest$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/registry -run '^$$' -fuzz '^FuzzResultFrame$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/registry -run '^$$' -fuzz '^FuzzResultFrameRead$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/registry -run '^$$' -fuzz '^FuzzEvalBody$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test . -run '^$$' -fuzz '^FuzzIncrementalArrival$$' -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench=. -benchmem

# Snapshot the Figure-4 + selectivity + continuous + scan-store QaC+ +
# durability + wire-codec benchmarks (quick scales), the long-history
# reads (one evaluation a row, the join's large history included) and the
# long-history re-announcement rows as JSON — cost counters
# and latency quantiles included — the cross-PR performance trajectory.
# Compare two snapshots with bench-diff. The snapshots name themselves:
# bench-json rewrites the newest BENCH_pr*.json unless told where to write
# (a PR's first snapshot: make bench-json BENCHOUT=BENCH_pr<N>.json), and
# bench-diff compares it with the newest one before it.
SNAPSHOTS := $(shell ls BENCH_pr*.json 2>/dev/null | sort -V)
BENCHOUT  ?= $(lastword $(SNAPSHOTS))
bench-json:
	( $(GO) test -run '^$$' -bench '^(BenchmarkFigure4|BenchmarkPlanGrid|BenchmarkSelectivity|BenchmarkContinuous|BenchmarkParallelCache|BenchmarkRecovery|BenchmarkSnapshotBootstrap|BenchmarkWireCodec)$$' -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkIncrementalContinuous$$' -benchtime 300x -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkRegistryFanout$$' -benchtime 300x -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkTracePropagation$$' -benchmem -short . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkHistory$$' -benchtime 1x -benchmem . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkReannounce$$' -benchtime 1x -benchmem . ) \
		| $(GO) run ./cmd/benchjson > $(BENCHOUT)

# Regression table between two snapshots:
#   make bench-diff                                  newest vs the one before
#   make bench-diff OLD=BENCH_pr18.json NEW=BENCH_pr19.json
OLD ?= $(lastword $(filter-out $(BENCHOUT),$(SNAPSHOTS)))
NEW ?= $(BENCHOUT)
bench-diff:
	$(GO) run ./cmd/benchjson -diff $(OLD) $(NEW)
