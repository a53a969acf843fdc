#!/bin/sh
# verify.sh — the repo's full verification ladder in one shot.
#
#   tier 0: gofmt -l cleanliness + go vet ./...
#   tier 1: go build ./... && go test ./...          (ROADMAP.md tier-1)
#   bench module: go vet + go test inside bench/ (its own module)
#   fuzz: FuzzRefineMatchesHeap for 10s; Complete(n) bisection against
#         its closed form, the balance and reported cut of bisections of
#         raw-byte graphs, damaged cache entries against the stored value,
#         the streamed edge builder against a sorted edge set, the MSBFS
#         level sweep (per-level rule, all top-down, all bottom-up)
#         against scalar BFS, ball sizes against closed forms, the ball
#         engine's one-ball-per-bucket radius selection against the
#         eligible radii, the engine's profiles and ball subgraphs against
#         the scalar full-component BFS, the policy engine's profiles and
#         ball subgraphs against fresh valley-free path trees,
#         bit-parallel Brandes against the scalar
#         accumulation, plain and policy link values over
#         unordered pairs against brute-force enumeration and the ordered
#         cover, the valley-free path tree against the product BFSes it
#         replaced, and the coarsening, induced-subgraph,
#         vertex-cover/clustering, provider-pick and traceroute-walk
#         references for 5s each
#   tier 2: go test -race -p 1 <concurrent packages> (ROADMAP.md tier-2)
#   endpoint smoke: live /metrics + /debug/progress mid-run
#   serve smoke: topocmpd answers, dedups and observes end to end
#   bench smoke: one iteration of the kernel benchmarks (the committed
#                baselines stay as they are; -update rewrites them)
#   bench sentinel: benchdiff against the committed baselines
#
# Tier 2 runs the packages with real concurrency under the race
# detector: the ball engine's shared profile cache, batched distance path
# and subgraph builds (ball.TestMSBFSRaceShort, ball.TestWideMSBFSRaceShort
# for multi-word strips, ball.TestPolicyEngineRaceShort for policy balls),
# the suite fan-out, the pipeline's DAG scheduler, the result
# store, the observability layer's concurrent span/counter attachment
# and background time-series sampler (obs.TestConcurrentSpansAndCounters,
# obs.TestSamplerRaceShort), the pooled per-worker cut kernels
# (partition.TestResilienceRaceShort), the pooled Brandes/distortion
# workspaces (metrics.TestBrandesRaceShort), the link-value driver's
# per-worker entry streams, BFS workspaces and cover scratches leased
# from the shared pools at P=4 (hierarchy.TestLinkValueRaceShort), and
# the serving layer's singleflight dedup, shared per-network ball
# engines and admission semaphore under mixed concurrent traffic at P=4
# (serve.TestServeRaceShort).
set -eu

echo "== tier 0: gofmt cleanliness =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:"
    echo "$unformatted"
    exit 1
fi

echo "== tier 0: go vet =="
go vet ./...

echo "== tier 1: build + full test suite =="
go build ./...
go test ./...

echo "== bench module: topobench vet + tests =="
# bench/ is its own module, so the root go test never reaches it.
(cd bench && go vet ./... && go test ./...)

echo "== fuzz: gain-bucket FM refinement against the lazy-heap reference =="
# Random small weighted levels through refine and the historical lazy-heap
# refinement kept in internal/partition/heap_test.go; side arrays must match.
go test -run '^$' -fuzz '^FuzzRefineMatchesHeap$' -fuzztime 10s ./internal/partition

echo "== fuzz: Complete(n) bisection against its closed form =="
# Complete(n), n in [2, 300], at fuzzed seeds: the cut must be a·(n−a),
# a = max(floor(0.55·n), ceil(n/2)) the heavier side the balance allows.
go test -run '^$' -fuzz '^FuzzCompleteBisection$' -fuzztime 5s ./internal/partition

echo "== fuzz: bisection stays balanced and reports the cut of its sides =="
# Raw-byte graphs of 2-300 nodes, stars, hubs with many leaves and isolated
# nodes in the seed corpus: each side holds at most max(floor(0.55·n),
# ceil(n/2)) nodes, and the returned cut is the cut of the returned sides.
go test -run '^$' -fuzz '^FuzzBisectBalanced$' -fuzztime 5s ./internal/partition

echo "== fuzz: damaged cache entries never decode to another value =="
# A stored payload truncated or with one bit flipped: Get returns the
# stored value or misses, counts a decode error and evicts the entry.
go test -run '^$' -fuzz '^FuzzStoreGetCorrupt$' -fuzztime 5s ./internal/cache

echo "== fuzz: streamed edge builder against a sorted, deduplicated edge set =="
# Raw-byte edge lists of up to 64 nodes, self-loops, repeats and both
# orientations included, through StreamBuilder and the edge-set reference
# in internal/graph/stream_test.go; edge count, every neighbor slice and
# the fingerprint must match.
go test -run '^$' -fuzz '^FuzzStreamBuilderMatchesEdgeSet$' -fuzztime 5s ./internal/graph

echo "== fuzz: bit-parallel BFS and ball sizes against scalar and closed forms =="
# Raw-byte graphs of up to 64 nodes, two batches of 1-256 sources per
# scratch: RunLevels against Graph.BFS with each level's direction picked
# by the rule, all top-down and all bottom-up. Then width-1 engine ball sizes
# and ball subgraph node counts on Mesh, Tree and Linear at fuzzed sizes
# against their closed forms. Then the radii the engine's ball
# curves evaluate on random small graphs at random size limits: one per
# size bucket the eligible radii reach, nearest the bucket's log midpoint,
# the same at parallelism 1 and 4. Then the engine against the scalar
# full-component BFS kept in internal/ball/ball_test.go, on raw-byte graphs
# of up to 64 nodes: profile sizes of 1-80 centers with repeats, and every
# ball subgraph a curve receives against the subgraph induced by the BFS
# order prefix, at widths 1 and 3. Then the policy engine against fresh
# path trees, on raw-byte annotated graphs of up to 40 nodes: profile
# sizes against the trees' policy distance counts, and every ball subgraph
# a curve receives against the tree's policy ball, at widths 1 and 3.
go test -run '^$' -fuzz '^FuzzMSBFSMatchesBFS$' -fuzztime 5s ./internal/graph
go test -run '^$' -fuzz '^FuzzBallSizesClosedForm$' -fuzztime 5s ./internal/ball
go test -run '^$' -fuzz '^FuzzBallBucketSelection$' -fuzztime 5s ./internal/ball
go test -run '^$' -fuzz '^FuzzProfilesMatchBFS$' -fuzztime 5s ./internal/ball
go test -run '^$' -fuzz '^FuzzPolicyProfilesMatchPathTree$' -fuzztime 5s ./internal/ball

echo "== fuzz: bit-parallel Brandes against the scalar accumulation =="
# Raw-byte graphs of up to 64 nodes, disconnected ones included, 1-64
# sources with repeats: BrandesScratch.Accumulate against the per-source
# scalar loop the distortion election ran before it batched (the reference
# lives in internal/metrics/export_test.go), one scratch on a graph and
# then on a smaller one; betweenness within 1e-9 relative error.
go test -run '^$' -fuzz '^FuzzBrandesMatchesScalar$' -fuzztime 5s ./internal/metrics

echo "== fuzz: link values over unordered pairs against brute force =="
# Raw-byte graphs of up to 48 nodes, full or sampled pair universes: the
# half stream against the brute enumeration's pairs with u < t, LinkValues
# against the ordered cover over the mirrored stream (bit for bit),
# TraversalSetSizes against the brute count, and P = 1 and 3 against
# each other.
go test -run '^$' -fuzz '^FuzzLinkValuesMatchesBrute$' -fuzztime 5s ./internal/hierarchy

echo "== fuzz: policy link values over unordered pairs against brute force =="
# Raw-byte annotated graphs of up to 20 nodes, one relationship byte per
# edge, full or sampled pair universes: every pair's shortest valley-free
# paths, enumerated one by one, cross each edge as often as its mirror's;
# the policy half stream against the enumeration's pairs with u < t,
# PolicyLinkValues against the ordered cover over the mirrored stream (bit
# for bit), and P = 1 and 3 against each other.
go test -run '^$' -fuzz '^FuzzPolicyLinkValuesMatchesBrute$' -fuzztime 5s ./internal/hierarchy

echo "== fuzz: valley-free path tree against the product BFSes it replaced =="
# Raw-byte annotated graphs of up to 20 ASes and router overlays over
# them: the tree's distances, its path counts (bit for bit) and its ball
# at every radius against the distance BFS, the counting BFS and the
# per-ball BFS kept in internal/policy/product_test.go.
go test -run '^$' -fuzz '^FuzzPathTreeMatchesReference$' -fuzztime 5s ./internal/policy

echo "== fuzz: per-ball kernels against their historical references =="
# The transposed coarse contraction against stamp-merge-then-sort, the
# transposed Induced against per-row sorting, and the bucket-queue greedy
# cover and marked clustering coefficient against the lazy heap and the
# HasEdge pair loop (the references live in each package's _test.go).
go test -run '^$' -fuzz '^FuzzCoarsenMatchesSorted$' -fuzztime 5s ./internal/partition
go test -run '^$' -fuzz '^FuzzInducedMatchesSorted$' -fuzztime 5s ./internal/graph
go test -run '^$' -fuzz '^FuzzGreedyCoverMatchesHeap$' -fuzztime 5s ./internal/metrics

echo "== fuzz: measurement pipeline against its historical references =="
# Fenwick-tree provider picks against the linear-scan GenerateAS, and the
# suffix-only traceroute walk against the per-hop full-path Sweep (the
# references live in each package's _test.go).
go test -run '^$' -fuzz '^FuzzGenerateASMatchesScan$' -fuzztime 5s ./internal/internetsim
go test -run '^$' -fuzz '^FuzzSweepMatchesPerHop$' -fuzztime 5s ./internal/traceroute

echo "== tier 2: race detector on concurrent packages =="
# Race instrumentation on a single core pushes the experiments package
# (full metric suites per figure) well past go test's default 10m
# per-package timeout; give the tier an explicit ceiling instead. -p 1
# runs one package at a time: the race runs of internal/core and
# internal/experiments each need several GB and cannot share an 8 GB host.
go test -race -p 1 -timeout 45m ./internal/core ./internal/ball ./internal/experiments \
    ./internal/cache ./internal/obs ./internal/partition ./internal/flow \
    ./internal/metrics ./internal/hierarchy ./internal/serve

echo "== scale smoke: 1M-node streamed build + sampled expansion =="
# Builds a million-node PLRG through the streamed CSR path, checks the
# >= 4x build-overhead advantage over the map-backed reference builder
# (mapbuilder_test.go), and runs a sampled expansion with confidence
# bounds inside an explicit time/heap budget.
TOPOCMP_SCALE_SMOKE=1 go test -run '^TestScaleSmoke$' -timeout 10m .

echo "== endpoint smoke: /metrics + /debug/progress serve mid-run =="
# Builds the real reproduce binary, starts a -quick run with
# -http 127.0.0.1:0, and asserts the live plane answers while the
# pipeline is still executing: Prometheus text with histogram buckets,
# the progress DAG with a running stage, and /debug/pprof/.
TOPOCMP_ENDPOINT_SMOKE=1 go test -run '^TestEndpointSmoke$' -timeout 10m .

echo "== serve smoke: topocmpd answers, dedups and observes mid-run =="
# Builds the real topocmpd daemon, starts it on a kernel-chosen port, and
# asserts the serving layer end to end: a suite query answers, a duplicate
# fired while the first is in flight is served from the same execution
# (serve_dedup_hits_total moves), and /metrics + /debug/progress serve
# mid-run.
TOPOCMP_SERVE_SMOKE=1 go test -run '^TestServeSmoke$' -timeout 10m .

echo "== bench smoke: kernel benchmarks compile and run =="
# The root benchmarks rewrite their BENCH_*.json baselines only under
# -update, so this smoke leaves the committed files as they are and the
# sentinel below compares against them.
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
bench_out="$workdir/bench.out"
go test -run '^$' -bench 'BenchmarkKernel|BenchmarkMSBFS|BenchmarkWideMSBFS|BenchmarkBrandes|BenchmarkLinkValues|BenchmarkServe' \
    -benchtime 1x . > "$bench_out"
# The scale smoke runs the map-vs-streamed build and the size trajectory;
# the full-RL pipeline row is skipped to keep it fast.
go test -run '^$' -bench 'BenchmarkScaleBuild|BenchmarkScaleTrajectory' \
    -benchtime 1x . >> "$bench_out"
cat "$bench_out"

echo "== bench sentinel: compare against committed baselines =="
# One -benchtime 1x iteration is noisy, so the default tolerances are
# loose (4x time, 1.5x + 64 allocs); the sentinel catches accidental
# order-of-magnitude regressions, not drift.
go run ./cmd/benchdiff -baseline 'BENCH_*.json' "$bench_out"

echo "verify.sh: all tiers passed"
