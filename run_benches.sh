#!/bin/sh
# Reproduces the paper's figures and table: console tables into
# bench_output.txt, machine-readable BENCH_<name>.json files into
# bench_artifacts/. It runs the eleven reproduction bins only; the
# service gates and soaks run in scripts/ci.sh and write nothing, and
# benchmark/ measures the engine and the daemon.
#
# Each binary's exit status is recorded individually (a plain pipeline
# would report only grep's status and silently swallow bench failures);
# any failure is listed at the end and makes this script exit nonzero.
set -u
cd "$(dirname "$0")"
out=bench_output.txt
artifacts=bench_artifacts
failures=""
: > "$out"
mkdir -p "$artifacts"

# Wall-clock budget per bench, overridable for quick smoke passes:
#   BENCH_TIMEOUT=60 ./run_benches.sh
bench_timeout=${BENCH_TIMEOUT:-900}

# run_step NAME CMD... — append CMD's filtered output to $out, remember
# NAME if it failed. A bench that exceeds $bench_timeout seconds is
# killed and recorded as a distinct "TIMEOUT NAME" line (timeout(1)
# exits 124), so a hung run is diagnosable from bench_output.txt alone.
run_step() {
  name=$1
  shift
  echo "===== $name =====" >> "$out"
  status_file=$(mktemp)
  { timeout "$bench_timeout" "$@" 2>&1; echo $? > "$status_file"; } \
    | grep -v 'WARNING conda' >> "$out"
  status=$(cat "$status_file")
  rm -f "$status_file"
  if [ "$status" -eq 124 ]; then
    echo "TIMEOUT $name (killed after ${bench_timeout}s)" | tee -a "$out"
    failures="$failures $name"
  elif [ "$status" -ne 0 ]; then
    echo "FAILED $name (status $status)" | tee -a "$out"
    failures="$failures $name"
  fi
  echo >> "$out"
}

for bin in table1 corpus_stats figure6 figure7 figure8 figure9 figure10 zap_results perceptron_overhead defer_cost ablation; do
  run_step "$bin" "./target/release/$bin"
done

for f in BENCH_*.json; do
  [ -f "$f" ] && mv "$f" "$artifacts/$f"
done
echo "artifacts: $(ls "$artifacts" | wc -l) JSON files in $artifacts/" >> "$out"
if [ -n "$failures" ]; then
  echo "BENCHES_FAILED:$failures" | tee -a "$out"
  exit 1
fi
echo BENCHES_DONE >> "$out"
