#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full test suite.
# No network access is required (the workspace has no external deps).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
cargo test --workspace --offline -q

echo "== perfbench build (release) =="
# The benchmark harness is its own Cargo workspace over crates/*, so the
# workspace build above does not compile it. Build it here, so a change
# to a public type it uses fails CI rather than the benchmark run. The
# perf gate at the end runs the benchmark from this target directory.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

GRIDDIR="$(mktemp -d)"
# A failed assertion in the gridd smoke must not leave its daemon running.
trap 'if [ -n "${GRIDD_PID:-}" ]; then kill "$GRIDD_PID" 2>/dev/null || true; fi; rm -rf "$GRIDDIR"' EXIT

cargo build --release --offline -p schematic-bench --bin gridrun
GRIDRUN=target/release/gridrun

echo "== gridrun --report soundcheck --explain (release) =="
# Static WAR-hazard sweep of Schematic + Ratchet over all 8 benchmarks
# with per-region verdicts; exits 1 (failing this script) if any
# inter-checkpoint region classifies as hazardous. The region-class
# histogram it ends with is pinned against
# tests/goldens/region_classes.txt by the grid_cache test.
"$GRIDRUN" --quick --no-cache --report soundcheck --explain > "$GRIDDIR/soundcheck.txt"
grep -q '^hist ' "$GRIDDIR/soundcheck.txt"

echo "== gridrun shard/merge smoke (release) =="
# Two-shard run of the quick experiment grid through the serialized
# cell-artifact pipeline: compute both shards as separate invocations,
# merge the JSONL artifacts, and require the merged render to be
# byte-identical to the single-process render (which the grid_cache
# test pins against tests/goldens/render_quick.txt, together with each
# report's `--report NAME` render against its section).
"$GRIDRUN" --quick --shard 0/2 -o "$GRIDDIR/shard_0.jsonl"
"$GRIDRUN" --quick --shard 1/2 -o "$GRIDDIR/shard_1.jsonl"
"$GRIDRUN" --quick --merge "$GRIDDIR"/shard_*.jsonl > "$GRIDDIR/merged.txt"
"$GRIDRUN" --quick > "$GRIDDIR/direct.txt"
diff -u "$GRIDDIR/direct.txt" "$GRIDDIR/merged.txt"
echo "merged 2-shard render byte-identical to single-process render"

echo "== tracereport smoke (release) =="
# Trace the quick grid, render the observability report, and require a
# non-empty render that parses cleanly. The traced render must stay
# byte-identical to the untraced one (tracing is observation-only).
cargo build --release --offline -p schematic-bench --bin tracereport
TRACEREPORT=target/release/tracereport
"$GRIDRUN" --quick --trace "$GRIDDIR/trace.jsonl" > "$GRIDDIR/traced.txt"
diff -u "$GRIDDIR/direct.txt" "$GRIDDIR/traced.txt"
echo "traced render byte-identical to untraced render"
"$TRACEREPORT" "$GRIDDIR/trace.jsonl" --cell run/Schematic/crc/10000 --top 5 \
  > "$GRIDDIR/tracereport.txt"
test -s "$GRIDDIR/tracereport.txt"
grep -q "Phase times across the grid" "$GRIDDIR/tracereport.txt"
grep -q "Fig. 6 split" "$GRIDDIR/tracereport.txt"
echo "tracereport rendered $(wc -l < "$GRIDDIR/tracereport.txt") lines"
# The artifact's lines are decoded on parallel workers; the render must
# not depend on how many.
SCHEMATIC_JOBS=1 "$TRACEREPORT" "$GRIDDIR/trace.jsonl" --cell run/Schematic/crc/10000 --top 5 \
  > "$GRIDDIR/tracereport_1.txt"
diff -u "$GRIDDIR/tracereport.txt" "$GRIDDIR/tracereport_1.txt"
echo "tracereport render identical with one worker and the default"
# A trace diffed against itself must report zero regressed cells and
# exit 0 (exit 1 is the flagged-regression signal for CI gating).
"$TRACEREPORT" --diff "$GRIDDIR/trace.jsonl" "$GRIDDIR/trace.jsonl" \
  > "$GRIDDIR/tracediff.txt"
grep -q "verdict: OK" "$GRIDDIR/tracediff.txt"
echo "tracereport --diff self-comparison clean"

echo "== gridrun cache + shard-artifact smoke (release) =="
# Cold in-process run populates a fresh content-addressed cell cache
# (shard/worker modes never open it by design); a warm verified rerun
# must serve every cell as a hit (0 computed) and render
# byte-identically. A shard artifact is itself a cache file: a complete
# one must answer every cell, and a half-grid one must compute exactly
# the other half, after which a verified rerun on it computes nothing.
CACHE="$GRIDDIR/cache.jsonl"
"$GRIDRUN" --quick --cache "$CACHE" > "$GRIDDIR/cold.txt" 2> "$GRIDDIR/cold.log"
grep -q "0 hits" "$GRIDDIR/cold.log"
diff -u "$GRIDDIR/direct.txt" "$GRIDDIR/cold.txt"
"$GRIDRUN" --quick --cache "$CACHE" --cache-verify \
  > "$GRIDDIR/warm.txt" 2> "$GRIDDIR/warm.log"
grep -q ", 0 computed (hits verified)" "$GRIDDIR/warm.log"
diff -u "$GRIDDIR/direct.txt" "$GRIDDIR/warm.txt"
echo "warm rerun served every cell from cache (verified), render byte-identical"
CELLS="$("$GRIDRUN" --quick --list | wc -l | tr -d ' ')"
# Records of other code are dead: every record's `schema` is the code
# identity of the build that wrote it. With each one rewritten, the
# cache must answer nothing, recompute every cell, and compact the dead
# records away, leaving one line per cell.
sed -E 's/"schema":[0-9]+/"schema":0/' "$CACHE" > "$CACHE.other"
mv "$CACHE.other" "$CACHE"
"$GRIDRUN" --quick --cache "$CACHE" > "$GRIDDIR/other.txt" 2> "$GRIDDIR/other.log"
grep -q ": 0 hits, $CELLS computed$" "$GRIDDIR/other.log"
diff -u "$GRIDDIR/direct.txt" "$GRIDDIR/other.txt"
test "$(wc -l < "$CACHE" | tr -d ' ')" -eq "$CELLS" \
  || { echo "cache of other code: $(wc -l < "$CACHE") lines after recompute, want $CELLS"; exit 1; }
echo "records of other code missed: $CELLS recomputed, render byte-identical, stale lines compacted"
"$GRIDRUN" --quick --shard 0/1 -o "$GRIDDIR/full.jsonl"
"$GRIDRUN" --quick --cache "$GRIDDIR/full.jsonl" \
  > "$GRIDDIR/full_cache.txt" 2> "$GRIDDIR/full_cache.log"
grep -q ": $CELLS hits, 0 computed$" "$GRIDDIR/full_cache.log"
diff -u "$GRIDDIR/direct.txt" "$GRIDDIR/full_cache.txt"
echo "complete shard artifact as --cache computed 0 cells, render byte-identical"
"$GRIDRUN" --quick --shard 0/2 -o "$GRIDDIR/half.jsonl"
HALF="$(wc -l < "$GRIDDIR/half.jsonl" | tr -d ' ')"
"$GRIDRUN" --quick --cache "$GRIDDIR/half.jsonl" \
  > "$GRIDDIR/half_cache.txt" 2> "$GRIDDIR/half_cache.log"
grep -q ": $HALF hits, $((CELLS - HALF)) computed$" "$GRIDDIR/half_cache.log"
diff -u "$GRIDDIR/direct.txt" "$GRIDDIR/half_cache.txt"
"$GRIDRUN" --quick --cache "$GRIDDIR/half.jsonl" --cache-verify \
  > "$GRIDDIR/half_verified.txt" 2> "$GRIDDIR/half_verified.log"
grep -q ": $CELLS hits, 0 computed (hits verified)$" "$GRIDDIR/half_verified.log"
diff -u "$GRIDDIR/direct.txt" "$GRIDDIR/half_verified.txt"
echo "half shard artifact as --cache computed the other half, then 0 (verified); renders byte-identical"

echo "== robustness report smoke (release) =="
# The multi-seed robustness report over 2 stochastic seeds plus every
# recorded trace in traces/, computed twice through a fresh cache: the
# warm rerun must answer every scenario cell from the cache (verified)
# and render byte-identically, and the stable header line must parse.
RCACHE="$GRIDDIR/robust-cache.jsonl"
"$GRIDRUN" --report robust --seeds 2 --cache "$RCACHE" \
  > "$GRIDDIR/robust.txt" 2> "$GRIDDIR/robust.log"
grep -q "^Robustness report: 2 stochastic seed(s)" "$GRIDDIR/robust.txt"
grep -q "stoch:10000:2000:1" "$GRIDDIR/robust.txt"
grep -q "trace:" "$GRIDDIR/robust.txt" \
  || { echo "no recorded trace on the robustness axis"; exit 1; }
"$GRIDRUN" --report robust --seeds 2 --cache "$RCACHE" --cache-verify \
  > "$GRIDDIR/robust_warm.txt" 2> "$GRIDDIR/robust_warm.log"
grep -q ", 0 computed (hits verified)" "$GRIDDIR/robust_warm.log"
diff -u "$GRIDDIR/robust.txt" "$GRIDDIR/robust_warm.txt"
echo "robustness report deterministic; scenario cells replayed from cache (verified)"

echo "== gridd daemon loopback smoke (release) =="
# Start the evaluation daemon on an ephemeral loopback port with two
# worker processes, drive one submit/stats/fetch/shutdown cycle through
# the gridrun client, and require the fetched cells to render
# byte-identically to the direct in-process run. The stats op must
# report merged worker telemetry whose cache hit/miss totals exactly
# equal the submitted job count — all misses on the cold daemon, all
# hits on a warm restart over the populated cache file. The tallies are
# read from the registry `--stats -o` dumps, the file `tracereport
# --service` renders.
cargo build --release --offline -p schematic-bench --bin gridd
GRIDD=target/release/gridd
JOBS="$("$GRIDRUN" --quick --list | wc -l | tr -d ' ')"

# Boots a daemon over the shared cache file; sets ADDR and GRIDD_PID.
start_gridd() {
  local out=$1
  "$GRIDD" --quick --addr 127.0.0.1:0 \
    --cache "$GRIDDIR/gridd-cache.jsonl" --workers 2 \
    > "$out" 2> "$GRIDDIR/gridd.err" &
  GRIDD_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^gridd: listening on //p' "$out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  test -n "$ADDR" || { echo "gridd never reported its address"; exit 1; }
}

# Prints a counter's value from a registry dump (0 when the counter
# never fired).
reg_counter() {
  local v
  v="$(sed -n "s|^{\"t\":\"counter\",\"name\":\"$2\",\"n\":\([0-9]*\)}\$|\1|p" "$1")"
  echo "${v:-0}"
}

# Prints a span's call count from a registry dump (0 when it never ran).
reg_span_calls() {
  local v
  v="$(sed -n "s|^{\"t\":\"span\",\"name\":\"$2\",\"calls\":\([0-9]*\),.*|\1|p" "$1")"
  echo "${v:-0}"
}

start_gridd "$GRIDDIR/gridd.out"
"$GRIDRUN" --quick --connect "$ADDR" --submit all
"$GRIDRUN" --quick --connect "$ADDR" --stats -o "$GRIDDIR/service_reg.txt" \
  > "$GRIDDIR/stats_cold.txt"
grep -q "^gridd stats:" "$GRIDDIR/stats_cold.txt"
grep -q "service registry:" "$GRIDDIR/stats_cold.txt"
HITS="$(reg_counter "$GRIDDIR/service_reg.txt" "cache/hit")"
MISSES="$(reg_counter "$GRIDDIR/service_reg.txt" "cache/miss")"
test "$((HITS + MISSES))" -eq "$JOBS" \
  || { echo "cold stats: hits($HITS)+misses($MISSES) != $JOBS jobs"; exit 1; }
test "$MISSES" -eq "$JOBS" \
  || { echo "cold daemon should miss every cell, got $MISSES of $JOBS"; exit 1; }
# Worker telemetry crossed the process boundary: one job_wall sample
# per dispatched job, one dispatched job per submitted cell.
WALLS="$(reg_span_calls "$GRIDDIR/service_reg.txt" "service/job_wall")"
test "$WALLS" -eq "$JOBS" \
  || { echo "cold stats: $WALLS service/job_wall samples, want $JOBS"; exit 1; }
# Pull dispatch spread the batch: each of the 2 workers answered at
# least one job, and together they answered every job.
W0="$(reg_counter "$GRIDDIR/service_reg.txt" "worker/0/jobs")"
W1="$(reg_counter "$GRIDDIR/service_reg.txt" "worker/1/jobs")"
test "$W0" -ge 1 && test "$W1" -ge 1 \
  || { echo "cold stats: a worker answered no jobs (worker 0: $W0, worker 1: $W1)"; exit 1; }
test "$((W0 + W1))" -eq "$JOBS" \
  || { echo "cold stats: workers answered $W0+$W1 jobs, want $JOBS"; exit 1; }
# Each worker profiles each distinct program once: the cold batch must
# hit the profile memo, and every compile/profile span is exactly one
# memo hit or one miss.
PHITS="$(reg_counter "$GRIDDIR/service_reg.txt" "compile/profile_hit")"
PMISSES="$(reg_counter "$GRIDDIR/service_reg.txt" "compile/profile_miss")"
PCALLS="$(reg_span_calls "$GRIDDIR/service_reg.txt" "compile/profile")"
test "$PHITS" -gt 0 \
  || { echo "cold stats: the profile memo never hit"; exit 1; }
test "$((PHITS + PMISSES))" -eq "$PCALLS" \
  || { echo "cold stats: profile hits($PHITS)+misses($PMISSES) != $PCALLS spans"; exit 1; }
# The dumped registry renders offline.
"$TRACEREPORT" --service "$GRIDDIR/service_reg.txt" --top 3 \
  > "$GRIDDIR/service_report.txt"
grep -q "slowest jobs" "$GRIDDIR/service_report.txt"
grep -q "cache hit rate by report kind" "$GRIDDIR/service_report.txt"
"$GRIDRUN" --quick --connect "$ADDR" --fetch -o "$GRIDDIR/fetched.jsonl"
"$GRIDRUN" --quick --merge "$GRIDDIR/fetched.jsonl" > "$GRIDDIR/gridd.txt"
diff -u "$GRIDDIR/direct.txt" "$GRIDDIR/gridd.txt"
"$GRIDRUN" --quick --connect "$ADDR" --shutdown
wait "$GRIDD_PID"
echo "cold daemon: $MISSES misses across $JOBS jobs, telemetry merged from 2 workers ($W0 + $W1 jobs), profile memo $PHITS/$PCALLS hits"

# Warm restart: a fresh daemon over the populated cache answers every
# cell from it — stats must show hits == jobs and zero misses.
start_gridd "$GRIDDIR/gridd_warm.out"
"$GRIDRUN" --quick --connect "$ADDR" --submit all
"$GRIDRUN" --quick --connect "$ADDR" --stats -o "$GRIDDIR/service_reg_warm.txt" \
  > "$GRIDDIR/stats_warm.txt"
HITS="$(reg_counter "$GRIDDIR/service_reg_warm.txt" "cache/hit")"
MISSES="$(reg_counter "$GRIDDIR/service_reg_warm.txt" "cache/miss")"
test "$HITS" -eq "$JOBS" \
  || { echo "warm daemon should hit every cell, got $HITS of $JOBS"; exit 1; }
test "$MISSES" -eq 0 \
  || { echo "warm daemon recomputed $MISSES cells"; exit 1; }
"$GRIDRUN" --quick --connect "$ADDR" --shutdown
wait "$GRIDD_PID"
echo "warm daemon: $HITS hits across $JOBS jobs, 0 misses"
echo "daemon submit/stats/fetch/shutdown loopback clean"

echo "== perf gate (release) =="
# scripts/perfgate.sh compares traced perfbench runs with the
# committed perf_ledger.tsv (per key: better direction, median of ten
# recorded runs, band). First a deterministic self-test on synthetic
# result lines built from the ledger's own medians, with a host probe
# of 1 ms and one kernel per emulator tier: the line must pass, and the
# same line with emu.fused halved, or reporting a failed check, must
# fail naming exactly that.
gate_line() { # $1: factor on emu.fused, $2: failed checks
  awk -F '\t' -v scale="$1" -v failed="$2" '
    /^#/ { next }
    $1 == "emu.interp" { $1 = "emu.interp.selftest.minsts_per_s" }
    $1 == "emu.fused" { $1 = "emu.fused.selftest.minsts_per_s"; $3 *= scale }
    { m = m sprintf(", \"%s\": {\"value\": %s, \"unit\": \"x\"}", $1, $3) }
    END {
      printf "{\"correct\": %s, \"attempted\": 1, \"failed\": %d, \"metrics\": ", failed ? "false" : "true", failed
      printf "{\"host.probe_ms\": {\"value\": 1, \"unit\": \"ms\"}%s}}\n", m
    }
  ' perf_ledger.tsv
}
gate_line 1 0 > "$GRIDDIR/gate_ok.json"
scripts/perfgate.sh check "$GRIDDIR/gate_ok.json" > "$GRIDDIR/gate_ok.txt" \
  || { cat "$GRIDDIR/gate_ok.txt"; echo "perfgate rejected the ledger's own medians"; exit 1; }
gate_line 0.5 0 > "$GRIDDIR/gate_slow.json"
if scripts/perfgate.sh check "$GRIDDIR/gate_slow.json" > "$GRIDDIR/gate_slow.txt"; then
  echo "perfgate passed a halved emu.fused"; exit 1
fi
grep -qx "perfgate: FAIL: emu.fused" "$GRIDDIR/gate_slow.txt"
gate_line 1 1 > "$GRIDDIR/gate_failed.json"
if scripts/perfgate.sh check "$GRIDDIR/gate_failed.json" > "$GRIDDIR/gate_failed.txt"; then
  echo "perfgate passed a run with a failed check"; exit 1
fi
grep -qx "perfgate: FAIL: failed" "$GRIDDIR/gate_failed.txt"
echo "perfgate self-test: ledger medians pass; halved emu.fused and failed=1 fail"
# Then two live traced gridd runs (about 40 s each), built into the
# target directory the perfbench build step above already filled; the
# gate takes each key's better value of the two.
for SEED in 1 2; do
  CARGO_TARGET_DIR=perfbench/target bash perfbench/run.sh \
    --workload gridd --seed "$SEED" --seconds 25 --trace 1 > "$GRIDDIR/perf_$SEED.json"
done
scripts/perfgate.sh check "$GRIDDIR/perf_1.json" "$GRIDDIR/perf_2.json"

echo "CI gate passed."
