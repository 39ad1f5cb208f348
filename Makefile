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

# Race gate: every package but internal/bench and the commands, then twenty
# runs each of the tests that once flaked or hold a cross-version rule:
#   cache: local and foreign write-throughs, sequenced and out-of-order installs, one reconcile per foreign burst
#   search: tag search; the index against its map-posting reference
#   events: Subscribe/Cancel racing Publish and draining; the log and its retention against a []Event
#   catalog: authorizer oracles, multi-node and shared-entity differentials, one version per unpaged listing
#   privilege: snapshot cache advancing under stale readers
#   obs, lineage, store, server: flight-recorder freeze; edges vs assets; write set and key table vs a map, the derived child rows vs stored ones; one envelope per request
#   audit: the packed log against a []Record; readers unpacking open chunks while appenders add to their string tables
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
	$(GO) test -race -count=20 -run 'TestSelectiveVsFullDifferential|TestUpdateAwaitsSequencedForeignCommit|TestLocalWritesInstallOutOfOrder|TestTagSearch|TestSubscribeCancelRacesPublish|TestAuthorizerMatchesReferenceEngine|TestAuthorizerOracleTrimmedChangeLog|TestSnapshotCacheConcurrentAdvance|TestMultiNodeDifferential|TestForeignBurstReconcilesOnce|TestSharedEntityDifferential|TestUnpagedReadsOneVersion|TestFlightRecorderConcurrentFinishPoll|TestPackedRingMatchesReference|TestRetentionMatchesReference|TestCancelDrainsWhatItHolds|TestNoEdgeOutlivesItsAssets|TestTxWriteSetMatchesReference|TestKeyTableMatchesMap|TestDerivedChildIndexMatchesRows|TestEnvelopePerRequest|TestIndexMatchesReference|TestPackedLogMatchesReference|TestConcurrentAppendersKeepEveryOrder' \
		./internal/cache/ ./internal/search/ ./internal/events/ ./internal/catalog/ ./internal/privilege/ ./internal/obs/ ./internal/lineage/ ./internal/store/ ./internal/server/ ./internal/audit/

# Who holds the resident bytes (uc/heap_test.go; DESIGN.md "Resident layout"):
# in-use bytes per internal package for 2,000 tables, each holder held to its
# recorded figure + 10 % (the audit log per retained record); the WAL writer
# to its largest batch, a lineage edge to its bytes, what dropped list pages
# leave behind, and a warm cache's bytes per table read. `make race` runs them too.
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
# to a follower, and a chunk of 36 (internal/events, none); then the miss path of a full cache: a
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
