#!/usr/bin/env bash
# Performance gate over perfbench's per-layer (`--trace 1`) result line.
#
#   scripts/perfgate.sh check RESULT...    # gate results against perf_ledger.tsv
#   scripts/perfgate.sh record RESULT...   # print a ledger recorded from RESULTs
#
# A RESULT is a file whose last line is perfbench's JSON result. Every
# per-layer key is compared with the ledger, except that the emulator
# is folded into one value per tier: `emu.interp` and `emu.fused` are
# the geometric means over kernels of
# `emu.<column>.<kernel>.minsts_per_s × host.probe_ms` (throughput
# normalized by the host-speed probe). The `fused`, `trace` and `aot`
# columns all run the Fused tier, so `emu.fused` averages over all
# three. `host.probe_ms` itself is reported, never gated.
#
# The ledger holds, per key, the better direction, the median of the
# recorded runs and a band: 1.5 times the largest relative distance of
# a recorded run from that median on the worse side. `check` takes each
# key's best value over the results it is given, and the key fails
# when that is worse than its median by more than its band: a single
# run's slow outlier on one small timing is common on a shared host,
# the same outlier in two runs is not. Keys whose band exceeds 50 % are
# printed but not gated. Every result must also report `"failed": 0`.
#
# The JSON is read with awk rather than the repository's integer-only
# JSON reader, because perfbench prints floating-point values.
set -euo pipefail
cd "$(dirname "$0")/.."
LEDGER=perf_ledger.tsv

usage() {
  echo "usage: scripts/perfgate.sh check RESULT... | record RESULT..." >&2
  exit 2
}

# Reads one result line and prints "#failed<TAB>N", then
# "key<TAB>value" for `host.probe_ms` and every gated key.
derive() {
  awk '
    { line = $0 }
    END {
      if (line == "") { print "perfgate: empty result" > "/dev/stderr"; exit 2 }
      failed = -1
      if (match(line, /"failed": [0-9]+/))
        failed = substr(line, RSTART + 10, RLENGTH - 10) + 0
      print "#failed\t" failed
      while (match(line, /"[a-z0-9_.]+": \{"value": [^,}]+/)) {
        m = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        key = m; sub(/^"/, "", key); sub(/".*/, "", key)
        val = m; sub(/.*"value": /, "", val)
        raw[key] = val + 0
      }
      if (!("host.probe_ms" in raw)) {
        print "perfgate: result has no host.probe_ms" > "/dev/stderr"; exit 2
      }
      probe = raw["host.probe_ms"]
      for (key in raw) {
        if (key ~ /^emu\.(interp|fused|trace|aot)\.[^.]+\.minsts_per_s$/) {
          split(key, part, ".")
          tier = part[2] == "interp" ? "interp" : "fused"
          logsum[tier] += log(raw[key] * probe)
          count[tier]++
        } else {
          print key "\t" raw[key]
        }
      }
      for (tier in logsum) printf "emu.%s\t%.6g\n", tier, exp(logsum[tier] / count[tier])
    }
  '
}

cmd_record() {
  [ $# -ge 2 ] || { echo "perfgate: record needs at least two results" >&2; exit 2; }
  local f
  for f in "$@"; do tail -n 1 "$f" | derive; done | awk -v runs=$# '
    function sort(a, n,    i, j, t) {
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    $1 == "#failed" {
      if ($2 != 0) { print "perfgate: a recorded run reports failed = " $2 > "/dev/stderr"; bad = 1 }
      next
    }
    { if (!($1 in cnt)) keys[++nk] = $1; val[$1, ++cnt[$1]] = $2 }
    END {
      if (bad) exit 1
      sort(keys, nk)
      print "# perfgate ledger over " runs " traced gridd runs; see scripts/perfgate.sh."
      print "# band = 1.5 x the largest relative distance of a run from the median on the worse side."
      for (i = 1; i <= nk; i++) {
        k = keys[i]
        if (cnt[k] != runs) { print "perfgate: " k " is missing from some runs" > "/dev/stderr"; exit 1 }
        for (j = 1; j <= runs; j++) a[j] = val[k, j]
        sort(a, runs)
        m = runs % 2 ? a[(runs + 1) / 2] : (a[runs / 2] + a[runs / 2 + 1]) / 2
        if (k == "host.probe_ms") {
          printf "# host.probe_ms: median %.4g, range %.4g-%.4g\n", m, a[1], a[runs]
          continue
        }
        better = k ~ /(_per_s|^emu\.(interp|fused)|^service\.worker_util|^cache\.hits)$/ ? "higher" : "lower"
        dev = better == "higher" ? m - a[1] : a[runs] - m
        band = m != 0 ? 1.5 * dev / (m < 0 ? -m : m) : (dev == 0 ? 0 : 1e9)
        rows = rows sprintf("%s\t%s\t%.6g\t%.4f\n", k, better, m, band)
      }
      printf "#key\tbetter\tmedian\tband\n%s", rows
    }
  '
}

cmd_check() {
  [ $# -ge 1 ] || usage
  local f
  for f in "$@"; do tail -n 1 "$f" | derive; done | awk -F '\t' -v ledger="$LEDGER" -v runs=$# '
    BEGIN {
      while ((getline row < ledger) > 0) {
        if (row ~ /^#/) continue
        split(row, f, "\t")
        n++; key[n] = f[1]; better[f[1]] = f[2]; med[n] = f[3] + 0; band[n] = f[4] + 0
      }
      if (!n) { print "perfgate: no rows in " ledger > "/dev/stderr"; exit 2 }
    }
    $1 == "#failed" { read++; if ($2 != 0) failed = failed " " $2; next }
    $1 == "host.probe_ms" { probes = probes " " $2; next }
    {
      x = $2 + 0
      if (!($1 in got) || (better[$1] == "higher" ? x > got[$1] : x < got[$1])) got[$1] = x
    }
    END {
      print "perfgate: host.probe_ms" probes " (reported, not gated)"
      printf "%-34s %14s %14s %8s %8s  %s\n", "key", "best", "median", "band", "worse", "verdict"
      for (i = 1; i <= n; i++) {
        k = key[i]
        if (!(k in got)) { printf "%-34s %14s\n", k, "MISSING"; fails = fails " " k; continue }
        x = got[k]; m = med[i]; scale = m < 0 ? -m : m
        worse = scale ? (better[k] == "higher" ? (m - x) : (x - m)) / scale : (x == m ? 0 : 1e9)
        if (band[i] > 0.5) verdict = "info (band > 50 %)"
        else if (worse > band[i]) { verdict = "FAIL"; fails = fails " " k }
        else verdict = "ok"
        printf "%-34s %14.6g %14.6g %7.1f%% %7.1f%%  %s\n", k, x, m, 100 * band[i], 100 * worse, verdict
      }
      if (read != runs) { print "perfgate: read " read + 0 " of " runs " results"; fails = fails " unreadable" }
      if (failed != "") { print "perfgate: failed checks reported:" failed; fails = fails " failed" }
      if (fails != "") { print "perfgate: FAIL:" fails; exit 1 }
      print "perfgate: every gated key is within its band"
    }
  '
}

case "${1:-}" in
  check) shift; cmd_check "$@" ;;
  record) shift; cmd_record "$@" ;;
  *) usage ;;
esac
