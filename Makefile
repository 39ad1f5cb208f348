# Developer targets. The CI tier-1 gate is `make test`; `make race` is the
# concurrency gate: every package but internal/bench and the commands under
# the race detector, then the tests that once flaked or that hold a
# cross-version soundness rule, twenty times each.

GO ?= go

.PHONY: test race heap allocs perf perf-check bench bench-parallel

test:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

# Race gate: runs the stress, coalescing, and chaos tests (and everything
# else in these packages) under the race detector. Must pass before touching
# the cache, store, catalog, or audit concurrency machinery, the fault
# injector, or the retry paths. The packages listed after internal/chaos
# joined in PR 17, all passing already: they are a gate, not a bug hunt. The
# last line repeats the cache's concurrent
# differential test (local and foreign writers racing the version CAS) and
# its sequenced-vs-applied regression test twenty times: that pair was a
# 4-in-10 tier-1 flake until PR 14 and must not come back unnoticed. With
# them go the tag-search test (a 1-in-2 flake until PR 15: the event outran
# the state it described) and the event log's Subscribe/Cancel-vs-Publish
# stress (2 s a run; the fan-out before PR 15 panicked within milliseconds),
# and the two tests that hold authorization snapshots to their soundness rule
# now that they outlive versions (PR 16): the interleaved-write oracle, a
# different commit sequence each repetition, and the advance-vs-stale-reader
# race, where a memo entry crossing versions is a wrong decision. Last, the
# two that hold the one way a node hears of another's commit (PR 17): three
# services on one database against the store's current snapshot, a different
# sequence each repetition, and the foreign burst that must cost a warm node
# exactly one reconcile. And the one that holds entities read through a cache
# view to being shared and immutable (PR 20): seeded writers against readers
# holding views across their commits, every read compared with a private
# decode of the store's bytes at the view's version. And the one that holds an
# unpaged listing to the one view it opened (PR 22): catalog-wide queries
# against a writer whose commits no single version shows half of.
race:
	$(GO) test -race -count=1 \
		./internal/cache/... \
		./internal/obs/... \
		./internal/store/... \
		./internal/catalog/... \
		./internal/privilege/... \
		./internal/audit/... \
		./internal/faults/... \
		./internal/retry/... \
		./internal/jsonenc/... \
		./internal/cloudsim/... \
		./internal/delta/... \
		./internal/txn/... \
		./internal/client/... \
		./internal/server/... \
		./internal/events/... \
		./internal/search/... \
		./internal/lineage/... \
		./internal/chaos/... \
		./internal/sharing/... \
		./internal/iceberg/... \
		./internal/federation/... \
		./internal/mlregistry/... \
		./internal/optimize/... \
		./internal/engine/... \
		./internal/hms/... \
		./internal/erm/... \
		./internal/pathtrie/... \
		./internal/workload/... \
		./internal/clock/... \
		./internal/ids/... \
		./uc/...
	$(GO) test -race -count=20 -run 'TestSelectiveVsFullDifferential|TestUpdateAwaitsSequencedForeignCommit|TestTagSearch|TestSubscribeCancelRacesPublish|TestAuthorizerMatchesReferenceEngine|TestAuthorizerOracleTrimmedChangeLog|TestSnapshotCacheConcurrentAdvance|TestMultiNodeDifferential|TestForeignBurstReconcilesOnce|TestSharedEntityDifferential|TestUnpagedReadsOneVersion' \
		./internal/cache/ ./internal/search/ ./internal/events/ ./internal/catalog/ ./internal/privilege/

# Who holds the resident bytes: builds 2,000 tables through uc.Open with
# every allocation profiled and prints in-use bytes per internal package,
# failing when search, pathtrie, events, the store's commit-built structure
# or the durable values (erm: entity records and index rows) is 10 % over its
# recorded figure, or the audit log over its figure per retained record
# (uc/heap_test.go; DESIGN.md "Resident layout"). A
# WAL-backed stack's writer is held to its largest batch
# (TestWALBufferIsItsLargestBatch). Then what listing leaves behind: every table paged through by
# four principals, the pages dropped, and the bytes still in use under the
# cache, the authorization memos and the decode sites held to their recorded
# figures (TestPageRetention). TestResidentBudget ends with the warm-cache
# row: every table read once by name, and what that leaves in use under the
# cache and the decoder per table read — the resident cost of the decoded
# forms the cache keeps, which the benchmark's heap_bytes_per_asset (read on
# an emptied cache) cannot see. `make race` runs both with ./uc/...
heap:
	$(GO) test -count=1 -run 'TestResidentBudget|TestWALBufferIsItsLargestBatch|TestPageRetention' -v ./uc/

# What the read path allocates: a 100-record batch decode (internal/erm, at
# most 5 whatever the size), a whole 100-table list page and a 100-table
# unpaged listing on a cache-less service (the two shells of the listing
# engine), and a GetAsset by name and a one-table Resolve on a warm cache,
# which must also decode nothing (internal/catalog, recorded figures + 10 %),
# printed. `make test` runs the same gates with the rest of ./...
allocs:
	$(GO) test -count=1 -run 'Allocs' -v ./internal/erm/ ./internal/catalog/

# The repository's benchmark (BENCHMARK.json, perf/README.md): all four
# workloads, traced, with the per-layer table; about 4 minutes. Every
# performance claim is a parent-against-change comparison of this command.
perf:
	$(GO) run ./perf

# The same twice over, every end-to-end gap against its bound; exits 1 on a
# miss. About 5 minutes.
perf-check:
	$(GO) run ./perf -check-repeat

bench:
	$(GO) test -bench=. -benchmem ./...

# Just the contended read-path micro-benchmarks.
bench-parallel:
	$(GO) test -run xxx -bench 'Parallel' -benchmem .
	$(GO) test -run xxx -bench 'Parallel' -benchmem ./internal/cache/
