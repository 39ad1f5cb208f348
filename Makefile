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
# last line repeats the cache's concurrent differential test (local and
# foreign writers racing each other's write-throughs), a write sequenced
# behind an unapplied foreign commit, and two local write-throughs run out of
# order twenty times: the first two were once a 4-in-10 tier-1 flake. With
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
# against a writer whose commits no single version shows half of. And the
# flight recorder's incident freezing the tracer's ring while requests
# finish into it (PR 25: the ring it froze used to be its own).
# And the event ring's packed slots against a plain []Event, delivered to a
# follower that the log laps. And the store's lineage invariant at every
# version, with submits racing deletes and restores on one node and on two.
# And the store's write set against a plain map, each transaction read through
# the pending overlay while a blocked WAL writer holds it unapplied, a new
# seed each repetition. And eight HTTP clients on the hot routes, each response
# holding its own request's trace ID, validator and header values: the
# per-request envelope the response header map points into is never shared.
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
	$(GO) test -race -count=20 -run 'TestSelectiveVsFullDifferential|TestUpdateAwaitsSequencedForeignCommit|TestLocalWritesInstallOutOfOrder|TestTagSearch|TestSubscribeCancelRacesPublish|TestAuthorizerMatchesReferenceEngine|TestAuthorizerOracleTrimmedChangeLog|TestSnapshotCacheConcurrentAdvance|TestMultiNodeDifferential|TestForeignBurstReconcilesOnce|TestSharedEntityDifferential|TestUnpagedReadsOneVersion|TestFlightRecorderConcurrentFinishPoll|TestPackedRingMatchesReference|TestNoEdgeOutlivesItsAssets|TestTxWriteSetMatchesReference|TestEnvelopePerRequest' \
		./internal/cache/ ./internal/search/ ./internal/events/ ./internal/catalog/ ./internal/privilege/ ./internal/obs/ ./internal/lineage/ ./internal/store/ ./internal/server/

# Who holds the resident bytes: builds 2,000 tables through uc.Open with
# every allocation profiled and prints in-use bytes per internal package,
# failing when search, catalog, events, the store's commit-built structure
# or the durable values (erm: entity records and index rows) is 10 % over its
# recorded figure, or the audit log over its figure per retained record
# (uc/heap_test.go; DESIGN.md "Resident layout"). A
# WAL-backed stack's writer is held to its largest batch
# (TestWALBufferIsItsLargestBatch), and one lineage edge per table of 2,000
# to its recorded bytes per edge (TestLineageEdgeBytes). Then what listing leaves behind: every table paged through by
# four principals, the pages dropped, and the bytes still in use under the
# cache, the authorization memos and the decode sites held to their recorded
# figures (TestPageRetention). TestResidentBudget ends with the warm-cache
# row: every table read once by name, and what that leaves in use under the
# cache and the decoder per table read — the resident cost of the decoded
# forms the cache keeps, which the benchmark's heap_bytes_per_asset (read on
# an emptied cache) cannot see. `make race` runs both with ./uc/...
heap:
	$(GO) test -count=1 -run 'TestResidentBudget|TestLineageEdgeBytes|TestWALBufferIsItsLargestBatch|TestPageRetention' -v ./uc/

# What the read path allocates: a 100-record batch decode (internal/erm, at
# most 5 whatever the size) and an in-place read of a catalog's bindings
# (none), a whole 100-table list page and a 100-table
# unpaged listing on a cache-less service (the two shells of the listing
# engine), and a GetAsset by name, a one-table Resolve and a credential by
# object path on a warm cache, which must also decode nothing
# (internal/catalog, recorded figures + 10 %), and the workspace-binding
# check under an unbound and a bound catalog (the chain slice only),
# printed; then a 304 revalidation, a GET of an asset and a resolve, a
# temporary-credentials and an authorize-batch POST through the whole HTTP
# request path, one envelope each (internal/server, recorded figures + 10 %) and a flat request body's decode
# (one allocation per string value kept, one per array), a trace's ID (one)
# and a metric-family child lookup
# (internal/obs, none) and a catalog and a txn event published and delivered
# to a follower (internal/events, none); then the miss path of a full cache: a
# point miss that inserts one object and evicts (recorded figure + 10 %) and a
# cold batch that inserts nothing, the same at 10 keys as at 100, a view's
# prefix scan, which allocates its result and nothing else, and a write
# through a full cache, the store's commit plus one record per write
# (internal/cache); then a bounded range scan that sizes its result once, an
# empty one allocating nothing, and a commit of one and of three writes, WAL
# on and off, at its recorded figure, and a 5,000-write one at most 2.1
# allocations per write (internal/store). `make test` runs the same gates with
# the rest of ./...
allocs:
	$(GO) test -count=1 -run 'Allocs' -v ./internal/erm/ ./internal/catalog/ ./internal/server/ ./internal/obs/ ./internal/events/ ./internal/cache/ ./internal/store/

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
