#!/usr/bin/env bash
# bench.sh — run the engine message-plane and plan-pipeline benchmarks and
# record a benchstat-friendly snapshot in BENCH_<date>.json at the
# repository root.
#
# The "benchstat" field holds the raw `go test -bench` lines, so
#   jq -r '.benchstat[]' BENCH_2026-07-26.json > old.txt
#   jq -r '.benchstat[]' BENCH_2026-08-01.json > new.txt
#   benchstat old.txt new.txt
# compares two snapshots; the "results" field carries the same data
# parsed for scripting. Environment overrides:
#   BENCH      benchmark regexp        (default: engine Execute, engine LCC, plan
#              pipeline, SSSP/CDLP kernels, snapshot map-open vs heap-load,
#              streamed build)
#   BENCHTIME  go test -benchtime      (default 3x)
#   COUNT      go test -count          (default 1; raise for benchstat CIs)
#   OUT        output file             (default BENCH_<date>.json)
#   ARCHIVE_DIR  content-addressed run archive (default .archive)
#
# Every snapshot is first sealed into the archive (`graphalytics
# archive commit-bench`), and BENCH_<date>.json is then *derived from
# the archived chunk* — the archive is the single source of truth; the
# dated file is its export. `graphalytics archive regress` diffs any
# two archived snapshots.
set -euo pipefail
cd "$(dirname "$0")/.."

# The RefKernel sweeps cover the delta-stepping SSSP and frontier CDLP
# worker scaling alongside the engine Execute, engine LCC and plan-pipeline
# suites;
# the Snapshot trio records the mmap-vs-copying open gap and the
# out-of-core streamed build.
BENCH=${BENCH:-'BenchmarkEngineExecute|BenchmarkEngineLCC|BenchmarkPlanSharedUpload|BenchmarkRefKernelSSSP|BenchmarkRefKernelCDLP|BenchmarkSnapshotMapOpen|BenchmarkSnapshotHeapLoad|BenchmarkBuilderStreamed'}
BENCHTIME=${BENCHTIME:-3x}
COUNT=${COUNT:-1}
OUT=${OUT:-BENCH_$(date +%F).json}
ARCHIVE_DIR=${ARCHIVE_DIR:-.archive}

# Preflight: a tree that violates the determinism/zero-alloc/ctx-first
# contracts produces numbers not worth snapshotting.
echo "preflight: graphalint ./..."
go run ./cmd/graphalint ./...

raw=$(go test -run=NONE -bench="$BENCH" -benchtime="$BENCHTIME" -count="$COUNT" -benchmem . |
	grep -E '^(Benchmark|goos:|goarch:|pkg:|cpu:)')

awk -v date="$(date +%F)" -v goversion="$(go env GOVERSION)" \
	-v bench="$BENCH" -v benchtime="$BENCHTIME" -v count="$COUNT" '
function jesc(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); gsub(/\t/, "\\t", s); return s }
BEGIN {
	printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n", date, goversion
	printf "  \"bench\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"count\": %s,\n", jesc(bench), benchtime, count
	nres = 0; nraw = 0
}
{ rawline[nraw++] = $0 }
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /    { cpu = $0; sub(/^cpu: /, "", cpu) }
/^Benchmark/ {
	name = $1; iters = $2; ns = $3; bytes = "null"; allocs = "null"
	for (i = 4; i <= NF; i++) {
		if ($i == "B/op") bytes = $(i - 1)
		if ($i == "allocs/op") allocs = $(i - 1)
	}
	res[nres++] = sprintf("{\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
		jesc(name), iters, ns, bytes, allocs)
}
END {
	printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n", goos, goarch, jesc(cpu)
	printf "  \"results\": [\n"
	for (i = 0; i < nres; i++) printf "    %s%s\n", res[i], (i < nres - 1 ? "," : "")
	printf "  ],\n  \"benchstat\": [\n"
	for (i = 0; i < nraw; i++) printf "    \"%s\"%s\n", jesc(rawline[i]), (i < nraw - 1 ? "," : "")
	printf "  ]\n}\n"
}' <<<"$raw" >"$OUT.tmp"

# Seal the snapshot into the content-addressed archive: the commit
# chains to the previous bench commit under a Merkle root, so history
# is tamper-evident and `archive regress` can diff any two snapshots.
commit=$(go run ./cmd/graphalytics archive commit-bench \
	-dir "$ARCHIVE_DIR" -name "bench/$(date +%F)" -in "$OUT.tmp")
rm "$OUT.tmp"

# Derive BENCH_<date>.json from the archived chunk — not from the raw
# emit — so the dated file is provably the archive's content, and
# write-then-rename so a failure mid-export can never leave a truncated
# snapshot behind under the final name.
go run ./cmd/graphalytics archive show \
	-dir "$ARCHIVE_DIR" -commit "$commit" -chunk bench.json >"$OUT.tmp"
mv "$OUT.tmp" "$OUT"
echo "archived as commit $commit (dir $ARCHIVE_DIR)"
echo "wrote $OUT (exported from the archive)"
