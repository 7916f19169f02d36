#!/bin/sh
# Regenerates every paper artifact: console tables into bench_output.txt,
# machine-readable BENCH_<name>.json files into bench_artifacts/.
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

# Every BENCH_*.json carries a common header (bench name, mode list, git
# rev, budget) so artifacts from different PRs diff by machine; the bench
# binaries read these two variables when rendering it.
BENCH_GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
BENCH_TIMEOUT=$bench_timeout
export BENCH_GIT_REV BENCH_TIMEOUT

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

for bin in table1 corpus_stats figure6 figure7 figure8 figure9 figure10 zap_results perceptron_overhead defer_cost ablation hotpath trace_overhead; do
  run_step "$bin" "./target/release/$bin"
done

# Server throughput: self-hosted goccd sweep in both modes (S1).
run_step loadgen ./target/release/loadgen --mode both --workers 4

# Overload protection: open-loop saturation at 2x capacity, both modes;
# produces BENCH_overload.json with the gate verdicts and counters.
run_step overload_soak ./target/release/overload_soak --seed 2026

# Durability: engine- and service-level throughput across sync policies,
# both modes; produces BENCH_wal.json and enforces the group-commit
# amortization and sync-off tax gates.
run_step wal_bench ./target/release/wal_bench --window-ms 500 --gate

# Replication: closed-loop read throughput against replica count, both
# modes; produces BENCH_replication.json and enforces the replication
# tax and replica-read-share gates.
run_step repl_bench ./target/release/repl_bench --window-ms 500 --gate

# Failover: SIGKILL the primary, once with an operator promote and once
# with none (the replicas detect, elect and promote on their own), then
# the lease-fencing phase. The self-healing phase produces
# BENCH_failover.json with detection/promotion/unavailability times.
run_step failover_soak ./target/release/failover_soak --seed 2026 --mode both

# Schema gate before the artifacts move: every BENCH_*.json must parse
# and carry the common header, or the sweep fails. The --expect list
# pins the artifacts the steps above must have produced.
run_step bench_schema ./scripts/check_bench_schema.sh \
  --expect BENCH_hotpath.json --expect BENCH_trace.json \
  --expect BENCH_overload.json --expect BENCH_wal.json \
  --expect BENCH_replication.json --expect BENCH_failover.json \
  --expect BENCH_server.json

for f in BENCH_*.json TRACE_overload_*.json; do
  [ -f "$f" ] && mv "$f" "$artifacts/$f"
done
echo "artifacts: $(ls "$artifacts" | wc -l) JSON files in $artifacts/" >> "$out"
if [ -n "$failures" ]; then
  echo "BENCHES_FAILED:$failures" | tee -a "$out"
  exit 1
fi
echo BENCHES_DONE >> "$out"
