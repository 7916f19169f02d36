#!/bin/sh
# Alternating parent/change pairs of one repo-benchmark workload, judged
# the way the benchmark driver judges a PR (choosing-metrics §8).
#
#   scripts/bench_pairs.sh [--seconds S] [--seed N] PARENT_REF WORKLOAD [PAIRS=10]
#
# PARENT_REF is exported (git archive) into target/bench_pairs/parent and
# built there from its own sources, into its own target/; the change is
# this checkout's working tree. Pair i runs `benchmark/run.sh --workload
# WORKLOAD --seed N+i-1 --seconds S --trace 0` on both sides, the parent
# first in odd pairs and the change first in even ones. S defaults to
# BENCHMARK.json's run_seconds, N to 601.
#
# Prints, per end-to-end metric of BENCHMARK.json: both medians with their
# quartiles, the pairs the change won (ties count for neither side), and
# change/parent of the medians against the metric's bound.
#
# Exit codes: 0 ok, 4 a metric is worse than the parent by more than its
# bound or a run failed an output check, 1 the harness itself failed.
set -eu

usage() { awk 'NR > 1 { if (!sub(/^# ?/, "")) exit; print }' "$0"; }

cd "$(dirname "$0")/.."
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)
seed=601
while [ $# -gt 0 ]; do
  case "$1" in
    -h|--help) usage; exit 0 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --) shift; break ;;
    -*) echo "bench_pairs: unknown option $1" >&2; usage >&2; exit 1 ;;
    *) break ;;
  esac
done
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  usage >&2
  exit 1
fi
parent_ref=$1
workload=$2
pairs=${3:-10}

work=target/bench_pairs
parent=$work/parent
rm -rf "$parent"
mkdir -p "$parent"
git archive "$parent_ref" | tar -x -C "$parent"
results=$work/results.txt
: > "$results"

# One run: appends "side pair key value" lines for every metric, plus the
# run's `failed` count and whether its output checks held.
run_side() {
  side=$1 dir=$2 pair=$3
  line=$(cd "$dir" && CARGO_TARGET_DIR=target bash benchmark/run.sh --workload "$workload" \
    --seed $((seed + pair - 1)) --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
  printf '%s\n' "$line" | awk -v side="$side" -v pair="$pair" '
    {
      if (!match($0, /"failed": [0-9]+/)) { print "bench_pairs: no result line from " side > "/dev/stderr"; exit 1 }
      print side, pair, "failed", substr($0, RSTART + 10, RLENGTH - 10)
      print side, pair, "correct", ($0 ~ /"correct": true/) ? 1 : 0
      rest = $0
      while (match(rest, /"[a-z0-9_]+": \{"value": [-0-9.e+]+/)) {
        cell = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        name = cell; sub(/^"/, "", name); sub(/".*/, "", name)
        sub(/.*"value": /, "", cell)
        print side, pair, name, cell
      }
    }' >> "$results"
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run_side parent "$parent" "$i"; run_side change . "$i"
  else
    run_side change . "$i"; run_side parent "$parent" "$i"
  fi
  echo "bench_pairs: pair $i/$pairs done" >&2
  i=$((i + 1))
done

echo "$workload: $pairs pairs, parent $parent_ref, --seconds $seconds, seeds $seed..$((seed + pairs - 1))"
awk -v pairs="$pairs" '
  # Pass 1, BENCHMARK.json: the end-to-end metrics in order, with the
  # direction and the bound of each.
  FNR == NR {
    if ($0 ~ /"end_to_end"/) in_e2e = 1
    else if ($0 ~ /"per_layer"/) in_e2e = 0
    if (in_e2e && $0 ~ /"(name|better|bound)"/) {
      key = $1; gsub(/[":]/, "", key)
      val = $2; gsub(/[",]/, "", val)
      if (key == "name") order[++n] = val
      if (key == "better") better[order[n]] = val
      if (key == "bound") bound[order[n]] = val
    }
    next
  }
  { v[$1, $2, $3] = $4 }
  function sorted(side, m, out,    i, j, t) {
    for (i = 1; i <= pairs; i++) out[i] = v[side, i, m] + 0
    for (i = 2; i <= pairs; i++)
      for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
  }
  function quantile(a, q,    h, lo) {
    h = (pairs - 1) * q + 1; lo = int(h)
    return lo >= pairs ? a[pairs] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  END {
    printf "%-14s %-6s %37s %37s %6s %8s %6s\n", "metric", "better",
      "parent median [q1, q3]", "change median [q1, q3]", "wins", "chg/par", "bound"
    for (k = 1; k <= n; k++) {
      m = order[k]
      sorted("parent", m, p); sorted("change", m, c)
      pm = quantile(p, 0.5); cm = quantile(c, 0.5)
      wins = 0
      for (i = 1; i <= pairs; i++) {
        d = v["change", i, m] - v["parent", i, m]
        if (better[m] == "lower") d = -d
        if (d > 0) wins++
      }
      ratio = pm != 0 ? cm / pm : 1
      worse = better[m] == "lower" ? ratio - 1 : 1 - ratio
      past = worse > bound[m]
      if (past) bad = 1
      printf "%-14s %-6s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g] %3d/%-2d %8.3f %6s%s\n",
        m, better[m], pm, quantile(p, 0.25), quantile(p, 0.75),
        cm, quantile(c, 0.25), quantile(c, 0.75), wins, pairs, ratio, bound[m],
        past ? "  PAST BOUND" : ""
    }
    for (i = 1; i <= pairs; i++) {
      pf += v["parent", i, "failed"]; cf += v["change", i, "failed"]
      if (!v["parent", i, "correct"] || !v["change", i, "correct"]) wrong++
    }
    printf "failed: parent %d, change %d; runs with a failed output check: %d\n", pf, cf, wrong
    if (cf > pf || wrong) bad = 1
    exit bad ? 4 : 0
  }' BENCHMARK.json "$results"
