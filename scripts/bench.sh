#!/usr/bin/env bash
# bench.sh — run the headline MALGRAPH benchmarks and emit machine-readable
# perf records, so every PR leaves a comparable perf data point behind.
#
# Usage:
#   scripts/bench.sh [output-dir]           # default output-dir: .
#
# Environment:
#   MALGRAPH_BENCH_SCALE   corpus scale (default 0.05; 1.0 ≈ paper size)
#   BENCH_TIME             -benchtime value (default 3x; use 1x for CI smoke)
#
# Outputs:
#   BENCH_serve.json        BenchmarkServe_ReadsDuringIngest (epoch read
#                           p50/p99 idle vs under sustained ingest+restore
#                           pressure, plus their p99 ratio — the lock-free
#                           read contract; CI gates ratio ≤ 2× with a 2ms
#                           absolute escape hatch) and
#                           BenchmarkIngest_ShardedSpeedup (the same batch
#                           sequence ingested at GOMAXPROCS=1 vs all cores;
#                           CI gates the speedup ≥ 0.8, a floor single-core
#                           runners still clear)
#   BENCH_clustering.json   BenchmarkTable6_ClusteringStage (§III-B hot path)
#   BENCH_pipeline.json     BenchmarkPipeline_EndToEnd (whole-corpus envelope)
#   BENCH_incremental.json  BenchmarkIncremental_{Append,FullRebuild} plus the
#                           append-vs-rebuild speedup (the streaming engine's
#                           headline: a 1% delta must stay ≥10× cheaper),
#                           BenchmarkIncremental_AppendGrowth records (fixed
#                           ≈1% append at 1×/4×/10× corpus) with the LSH
#                           recluster-scope metrics and the 10×/1× growth
#                           ratio — appends must stay flat as the corpus grows
#                           — and BenchmarkIncremental_ReportAppendGrowth
#                           records (fixed wanted-package delta at 1×/4×/10×
#                           REPORT corpus) with the report-join scope metrics
#                           (reports_rejoined, coexisting_edges_replaced,
#                           coexisting_rebuilt) and their own 10×/1× ratio —
#                           a wanted arrival must stay flat as reports accrue —
#                           BenchmarkIncremental_CheckpointGrowth records (the
#                           same ingested delta checkpointed through the
#                           content-addressed store at 1×/4×/10× corpus) with
#                           the checkpoint_growth_ratio (10×/1× ns): segmented
#                           checkpoints must cost O(delta), not O(corpus) —
#                           BenchmarkIncremental_PublishGrowth records (the
#                           same delta's Ingest plus the Engine.View that
#                           publishes it, after an untimed View so the write
#                           pays copy-on-write, at 1×/4×/10× corpus) with the
#                           publish_growth_10x_vs_1x ratio: an epoch publish must
#                           not copy the corpus (CI gates ≤ 3×) —
#                           and BenchmarkIncremental_JournaledAppend (the same
#                           append with a fsync'd WAL record in the measured
#                           op) with the journaled/in-memory overhead ratio:
#                           durability must cost one fsync, not a second
#                           ingest (CI gates ≤ 1.5×, computed from the
#                           minimum per-iteration WAL cost so ambient disk
#                           load cannot flake the gate)
#
# Each record carries ns/op, B/op, allocs/op and the benchmark's shape
# metrics (edge/package counts), keyed by scale, so future sessions can plot
# the perf trajectory without re-parsing go test output.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_DIR="${1:-.}"
mkdir -p "$OUT_DIR"
SCALE="${MALGRAPH_BENCH_SCALE:-0.05}"
TIME="${BENCH_TIME:-3x}"
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# The append/journaled-append pair runs at its own (higher) iteration count:
# the CI gate on their ratio is tight (1.5×) and a single-iteration sample of
# two ~1ms ops is too noisy to gate on. 20 iterations settle the per-append
# fsync latency near its mean.
PAIR_TIME="${BENCH_PAIR_TIME:-20x}"

# The serve benches sample their own latency distributions (hundreds of
# reads per iteration) and the speedup bench times two full ingests per
# iteration, so one iteration is already a settled measurement.
SERVE_TIME="${BENCH_SERVE_TIME:-1x}"

{
  MALGRAPH_BENCH_SCALE="$SCALE" go test -run '^$' \
      -bench 'BenchmarkTable6_ClusteringStage$|BenchmarkPipeline_EndToEnd$|BenchmarkIncremental_FullRebuild$|BenchmarkIncremental_AppendGrowth$|BenchmarkIncremental_ReportAppendGrowth$|BenchmarkIncremental_CheckpointGrowth$|BenchmarkIncremental_PublishGrowth$' \
      -benchmem -benchtime "$TIME" .
  MALGRAPH_BENCH_SCALE="$SCALE" go test -run '^$' \
      -bench 'BenchmarkIncremental_Append$|BenchmarkIncremental_JournaledAppend$' \
      -benchmem -benchtime "$PAIR_TIME" .
  MALGRAPH_BENCH_SCALE="$SCALE" go test -run '^$' \
      -bench 'BenchmarkServe_ReadsDuringIngest$|BenchmarkIngest_ShardedSpeedup$' \
      -benchmem -benchtime "$SERVE_TIME" .
} |
awk -v scale="$SCALE" -v stamp="$STAMP" -v dir="$OUT_DIR" '
  function record(name,    line, metrics, i, val, unit) {
    metrics = ""
    line = sprintf("{\"benchmark\":\"%s\",\"generated_utc\":\"%s\",\"scale\":%s,\"iterations\":%s",
                   name, stamp, scale, $2)
    for (i = 3; i < NF; i += 2) {
      val = $i; unit = $(i + 1)
      if (unit == "ns/op")          line = line sprintf(",\"ns_per_op\":%s", val)
      else if (unit == "B/op")      line = line sprintf(",\"bytes_per_op\":%s", val)
      else if (unit == "allocs/op") line = line sprintf(",\"allocs_per_op\":%s", val)
      else metrics = metrics sprintf("%s\"%s\":%s", (metrics == "" ? "" : ","), unit, val)
    }
    return line sprintf(",\"metrics\":{%s}}", metrics)
  }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    out = ""
    if (name == "BenchmarkTable6_ClusteringStage") out = dir "/BENCH_clustering.json"
    if (name == "BenchmarkPipeline_EndToEnd")      out = dir "/BENCH_pipeline.json"
    for (i = 3; i < NF; i += 2) if ($(i + 1) == "ns/op") ns = $i
    if (name == "BenchmarkIncremental_Append")          { append_ns = ns;  append_rec = record(name) }
    if (name == "BenchmarkIncremental_JournaledAppend") {
      wal_ns = ns; wal_rec = record(name)
      for (i = 3; i < NF; i += 2) {
        if ($(i + 1) == "wal_append_ns") wal_component_ns = $i
        if ($(i + 1) == "wal_min_ns")    wal_min_ns = $i
      }
    }
    if (name == "BenchmarkIncremental_FullRebuild")     { rebuild_ns = ns; rebuild_rec = record(name) }
    if (name == "BenchmarkIncremental_AppendGrowth/size=1x")  { g1_ns = ns;  g1_rec = record(name) }
    if (name == "BenchmarkIncremental_AppendGrowth/size=4x")  { g4_ns = ns;  g4_rec = record(name) }
    if (name == "BenchmarkIncremental_AppendGrowth/size=10x") { g10_ns = ns; g10_rec = record(name) }
    if (name == "BenchmarkIncremental_ReportAppendGrowth/size=1x")  { r1_ns = ns;  r1_rec = record(name) }
    if (name == "BenchmarkIncremental_ReportAppendGrowth/size=4x")  { r4_ns = ns;  r4_rec = record(name) }
    if (name == "BenchmarkIncremental_ReportAppendGrowth/size=10x") { r10_ns = ns; r10_rec = record(name) }
    if (name == "BenchmarkIncremental_CheckpointGrowth/size=1x")  { c1_ns = ns;  c1_rec = record(name) }
    if (name == "BenchmarkIncremental_CheckpointGrowth/size=4x")  { c4_ns = ns;  c4_rec = record(name) }
    if (name == "BenchmarkIncremental_CheckpointGrowth/size=10x") { c10_ns = ns; c10_rec = record(name) }
    if (name == "BenchmarkIncremental_PublishGrowth/size=1x")  { p1_ns = ns;  p1_rec = record(name) }
    if (name == "BenchmarkIncremental_PublishGrowth/size=4x")  { p4_ns = ns;  p4_rec = record(name) }
    if (name == "BenchmarkIncremental_PublishGrowth/size=10x") { p10_ns = ns; p10_rec = record(name) }
    if (name == "BenchmarkServe_ReadsDuringIngest") {
      serve_rec = record(name)
      for (i = 3; i < NF; i += 2) {
        if ($(i + 1) == "read_idle_p99_ns")   read_idle99 = $i
        if ($(i + 1) == "read_ingest_p99_ns") read_busy99 = $i
        if ($(i + 1) == "read_p99_ratio")     read_ratio = $i
      }
    }
    if (name == "BenchmarkIngest_ShardedSpeedup") {
      shard_rec = record(name)
      for (i = 3; i < NF; i += 2) if ($(i + 1) == "sharded_speedup") shard_speedup = $i
    }
    if (out == "") next
    line = record(name)
    print line > out
    close(out)
    print "wrote " out ": " line
  }
  END {
    if (append_ns != "" && rebuild_ns != "") {
      out = dir "/BENCH_incremental.json"
      line = sprintf("{\"generated_utc\":\"%s\",\"scale\":%s,\"append_ns_per_op\":%s,\"full_rebuild_ns_per_op\":%s,\"append_speedup\":%.2f,\"append\":%s,\"full_rebuild\":%s",
                     stamp, scale, append_ns, rebuild_ns, rebuild_ns / append_ns, append_rec, rebuild_rec)
      if (g1_ns != "" && g10_ns != "") {
        line = line sprintf(",\"append_growth_10x_vs_1x\":%.2f,\"append_growth\":{\"x1\":%s,\"x4\":%s,\"x10\":%s}",
                            g10_ns / g1_ns, g1_rec, g4_rec, g10_rec)
      }
      if (r1_ns != "" && r10_ns != "") {
        line = line sprintf(",\"report_append_growth_10x_vs_1x\":%.2f,\"report_append_growth\":{\"x1\":%s,\"x4\":%s,\"x10\":%s}",
                            r10_ns / r1_ns, r1_rec, r4_rec, r10_rec)
      }
      if (c1_ns != "" && c10_ns != "") {
        line = line sprintf(",\"checkpoint_growth_ratio\":%.2f,\"checkpoint_growth\":{\"x1\":%s,\"x4\":%s,\"x10\":%s}",
                            c10_ns / c1_ns, c1_rec, c4_rec, c10_rec)
      }
      if (p1_ns != "" && p10_ns != "") {
        line = line sprintf(",\"publish_growth_10x_vs_1x\":%.2f,\"publish_growth\":{\"x1\":%s,\"x4\":%s,\"x10\":%s}",
                            p10_ns / p1_ns, p1_rec, p4_rec, p10_rec)
      }
      if (wal_ns != "" && wal_component_ns != "" && wal_min_ns != "" && wal_ns > wal_component_ns) {
        # Overhead ratio from one run: the journaled op minus its timed WAL
        # component IS the same iterations in-memory append time, so the
        # ingest noise cancels instead of comparing two separately noisy
        # benchmarks. The WAL side of the gated ratio uses the per-iteration
        # MINIMUM fsync cost: on shared infrastructure the mean swings
        # severalfold with ambient disk load, but the minimum is the code
        # durability tax itself — a structural regression (second fsync,
        # bloated record) raises every iteration including the quietest one.
        compute_ns = wal_ns - wal_component_ns
        line = line sprintf(",\"journaled_append_ns_per_op\":%s,\"wal_append_ns_per_op\":%s,\"wal_min_ns\":%s,\"journaled_append_overhead\":%.2f,\"journaled_append_overhead_mean\":%.2f,\"journaled_append\":%s",
                            wal_ns, wal_component_ns, wal_min_ns,
                            (compute_ns + wal_min_ns) / compute_ns, wal_ns / compute_ns, wal_rec)
      }
      line = line "}"
      print line > out
      close(out)
      print "wrote " out ": " line
    }
    if (serve_rec != "" && shard_rec != "") {
      out = dir "/BENCH_serve.json"
      line = sprintf("{\"generated_utc\":\"%s\",\"scale\":%s,\"read_idle_p99_ns\":%s,\"read_ingest_p99_ns\":%s,\"read_p99_ratio\":%s,\"sharded_speedup\":%s,\"reads_during_ingest\":%s,\"sharded_ingest\":%s}",
                     stamp, scale, read_idle99, read_busy99, read_ratio, shard_speedup, serve_rec, shard_rec)
      print line > out
      close(out)
      print "wrote " out ": " line
    }
  }'
