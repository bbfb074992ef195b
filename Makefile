# NFactor build/test entry points.

GO ?= go

# Packages with shared-state concurrency (worker-pool explorer, solver
# cache, pipeline fan-out, sharded data plane) — the race target always
# covers these.
RACE_PKGS := ./internal/symexec ./internal/solver ./internal/core \
             ./internal/perf ./internal/model ./internal/experiments \
             ./internal/trace ./internal/dataplane ./internal/serve \
             ./internal/verify ./internal/obsrv

.PHONY: all check build test race bench bench-quick bench-parallel bench-dataplane bench-sharding bench-chain bench-telemetry bench-trace bench-verify bench-obsrv alloc vet lint fuzz trace serve verify-net

all: check

# Default gate: compile, vet, test, the zero-allocation regressions
# (telemetry must never put an allocation on the packet path; a disabled
# tracer must add none to symexec stepping), NFLint over the corpus
# (sources and synthesized models must be clean), the trace smoke gate
# (every corpus NF yields valid Perfetto-loadable JSON), and the
# benchmark's smoke run (every output check of ./bench on).
check: build vet test alloc lint trace bench-quick

# Trace smoke gate: every corpus NF synthesizes under tracing, exports
# schema-valid Chrome trace-event JSON with all five Algorithm 1 phase
# spans, and every model entry resolves to source provenance (-why).
trace:
	$(GO) test -run 'TestTraceSmoke' -count=1 .

# NFLint over the embedded corpus: source passes, Table 1 cross-check,
# model passes. Non-zero exit on error-severity findings.
lint:
	$(GO) run ./cmd/nflint

# Network verification smoke: the checked-in branching fixtures must
# verify (protected: all invariants hold, exit 0) and refute (breach:
# NFL401 with a concrete witness, exit 1) — the same pair the CI
# verify-smoke job asserts.
verify-net:
	$(GO) run ./cmd/nfverify -topo internal/verify/testdata/protected.json
	! $(GO) run ./cmd/nfverify -topo internal/verify/testdata/breach.json

# Short parser fuzz (the CI smoke variant; crashers land in
# internal/lang/testdata/fuzz and become regression seeds).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/lang

# Live serving smoke: 10k synthetic packets through the firewall with
# one gated hot swap under load. Verdicts go to stdout (discarded);
# the summary line on stderr must report the swap applied with no
# blocked swaps and no per-packet consistency violations.
serve:
	$(GO) run ./cmd/nfreplay -corpus firewall -serve -gen 10000 \
	    -swap-after 5000 -swap-allow-change > /dev/null

# The steady-state allocation regressions in isolation: AllocsPerRun
# must report 0 allocs/packet with telemetry attached.
alloc:
	$(GO) test -run 'ZeroAlloc|AllocFree' ./internal/dataplane ./internal/telemetry ./internal/trace ./internal/symexec ./internal/obsrv

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Data-race check for every concurrent code path. CI-grade variant:
#   go test -race ./...
race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The repo's one benchmark (bench/README.md) at smoke-test sizes, about
# 10 s: both workloads through every family with all output checks on —
# served verdicts against the reference interpreter, every datagram
# answered once and in order, epoch_violations == 0. A gate on
# correctness, not on speed: its timings are too short to compare.
bench-quick:
	$(GO) run ./bench -quick -seconds 4

# The Workers=1 vs Workers=GOMAXPROCS speedup benchmark (unsliced
# snortlite, ~39k paths per run — expect a couple of minutes).
bench-parallel:
	$(GO) test -bench=BenchmarkParallelSpeedup -run=^$$ -benchtime=1x .

# Compiled data plane vs reference interpreter, cross-validated by
# differential fuzzing; refreshes the checked-in BENCH_dataplane.json.
# -workers=1 keeps the per-row timings free of cross-row contention.
bench-dataplane:
	$(GO) run ./cmd/nfbench -exp dataplane -workers 1 -out BENCH_dataplane.json

# Sharded data plane scaling (aggregate pkts/sec per shard count, Zipf
# workload, equivalence-gated); refreshes the checked-in
# BENCH_sharding.json. Speedup above 1x needs a multi-core machine — the
# JSON's machine block records what the run had.
bench-sharding:
	$(GO) run ./cmd/nfbench -exp sharding -workers 1 -out BENCH_sharding.json

# Fused service-chain data plane vs sequential per-NF engines vs
# chained interpreters, equivalence-gated by closed-loop differential
# fuzzing; refreshes the checked-in BENCH_chain.json. The acceptance bar
# is fused < sequential on every corpus chain with 0 mismatches.
bench-chain:
	$(GO) run ./cmd/nfbench -exp chain -workers 1 -out BENCH_chain.json

# Telemetry overhead on the compiled engine (sink on vs off, same warmed
# trace); refreshes the checked-in BENCH_telemetry.json. The acceptance
# bar is <=10% ns/pkt overhead with zero allocations on the packet path.
bench-telemetry:
	$(GO) run ./cmd/nfbench -exp telemetry -workers 1 -out BENCH_telemetry.json

# Synthesis tracing overhead (whole pipeline, tracing on vs off, fresh
# solver cache per run); refreshes the checked-in BENCH_trace.json. The
# acceptance bar is <5% overhead enabled, 0% disabled (nil-tracer fast
# path — see TestDisabledTracerSteppingIsAllocFree).
bench-trace:
	$(GO) run ./cmd/nfbench -exp trace -workers 1 -out BENCH_trace.json

# Symbolic network verification vs topology size (chain / diamond /
# fat-tree-8, workers 1 vs 4, cold solver cache each); refreshes the
# checked-in BENCH_verify.json. The acceptance bar is worker_invariant
# true on every row — byte-identical reports at every worker count.
bench-verify:
	$(GO) run ./cmd/nfbench -exp verify -workers 1 -out BENCH_verify.json

# Serving-loop observability overhead (obsrv collectors off vs on vs on
# with a concurrent HTTP scraper cycling every endpoint); refreshes the
# checked-in BENCH_obsrv.json. The acceptance bar is <=5% overhead with
# the scraper attached and zero allocations on the packet path (see
# TestObserveZeroAlloc).
bench-obsrv:
	$(GO) run ./cmd/nfbench -exp obsrv -workers 1 -out BENCH_obsrv.json
