#!/bin/sh
# Tier-1 gate: offline build, full test suite, formatting, and a guard
# that keeps the workspace dependency-free (the container has no route
# to crates.io, so any non-path dependency breaks the build for
# everyone — fail fast here instead).
set -eu
cd "$(dirname "$0")/.."

# Runs one harness and tells its ways of failing apart, by the exit-code
# convention loadgen::soak::main gives every binary under
# crates/loadgen/src/bin (and the gate bins hotpath and trace_overhead
# follow): 4 = a guarantee or gate it checks was violated, 2 = its
# liveness watchdog saw no progress, anything else = the harness itself
# broke, a bad command line included.
#   run_soak LABEL VIOLATION_MSG CMD...
run_soak() {
  label=$1
  violated=$2
  shift 2
  if "$@"; then
    echo "ok: $label"
  else
    status=$?
    case "$status" in
      4) echo "FAIL: $violated" >&2 ;;
      2) echo "FAIL: $label: liveness watchdog saw no progress (deadlock or livelock)" >&2 ;;
      *) echo "FAIL: $label harness error (status $status)" >&2 ;;
    esac
    exit "$status"
  fi
}

quietly() { "$@" > /dev/null; }

echo "== dependency guard =="
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  # Inside [dependencies]/[dev-dependencies]/[build-dependencies],
  # every entry must be a workspace/path reference, never a registry
  # version.
  if awk -v m="$manifest" '
    /^\[/ { dep = ($0 ~ /dependencies\]$/) }
    dep && /^[A-Za-z0-9_-]+[ \t]*=/ {
      if ($0 !~ /workspace[ \t]*=[ \t]*true/ && $0 !~ /path[ \t]*=/) {
        printf "%s: registry dependency: %s\n", m, $0
        found = 1
      }
    }
    END { exit found }
  ' "$manifest"; then :; else bad=1; fi
done
if [ "$bad" -ne 0 ]; then
  echo "FAIL: external (registry) dependencies are not allowed; use path deps" >&2
  exit 1
fi
echo "ok: all dependencies are path/workspace-local"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== commit gate (release) =="
# The torn-read stress needs optimised code to land a slow-path acquire
# inside a write-back; the workspace pass above ran it unoptimised.
cargo test -q --release --offline -p gocc-htm --test commit_gate
# The gate is the per-arena commit slot: an elided section never writes
# the lock's line, so the per-lock committer count must not come back.
if grep -rnE 'committer_enter|committer_exit|CommitGate' crates/; then
  echo "FAIL: a per-lock committer count is back under crates/" >&2
  exit 1
fi
echo "ok: commit gate holds, LockWord carries no committer count"

echo "== one map of items =="
# The go-cache model keeps value and expiration in one TxMap entry, as
# go-cache's map[string]Item: a parallel expirations map coming back
# doubles every section's footprint.
if grep -nE '\bexpirations\b' crates/workloads/src/gocache.rs; then
  echo "FAIL: crates/workloads/src/gocache.rs names an expirations map again" >&2
  exit 1
fi
echo "ok: Cache holds one map"

echo "== one soak kit =="
# Argument tables, the liveness watchdog, daemon/temp-dir guards, gate
# thresholds and the per-key oracle live in crates/loadgen/src/soak.rs;
# a harness binary that grows its own copy has forked the kit.
if grep -rnE 'struct Liveness|struct KeyHist|struct Daemon|fn parse_args|fn gate_env|fn tmp\(' \
  crates/loadgen/src/bin/; then
  echo "FAIL: a harness binary carries its own copy of loadgen::soak scaffolding" >&2
  exit 1
fi
echo "ok: harness binaries stand on loadgen::soak"

echo "== one idle decision =="
# Every wait of worker_loop and of repl_out_loop is the one idle::wait
# behind its idle decision, which only picks the set and the timeout (a
# timed one from idle::Tick); acceptor_loop waits the same way. A
# thread::sleep in any of them is the 200 us poll-and-sleep, or the
# coalescing sleep with its timer slack, coming back
# (crates/server/tests/idle_wait.rs, in the workspace stage above, pins
# the behaviour).
fn_body() { awk -v f="fn $1(" 'index($0, f) == 1 { on = 1 } on { print } on && /^}/ { exit }' \
  crates/server/src/lib.rs; }
for f in worker_loop repl_out_loop; do
  sleeps=$(fn_body "$f" | grep -c 'thread::sleep' || true)
  waits=$(fn_body "$f" | grep -c 'idle::wait' || true)
  if [ "$sleeps" -ne 0 ] || [ "$waits" -ne 1 ]; then
    echo "FAIL: $f has $sleeps thread::sleep (want 0) and $waits idle::wait (want 1)" >&2
    exit 1
  fi
done
acceptor_sleeps=$(fn_body acceptor_loop | grep -c 'thread::sleep' || true)
if [ "$acceptor_sleeps" -ne 0 ]; then
  echo "FAIL: acceptor_loop has $acceptor_sleeps thread::sleep (want 0)" >&2
  exit 1
fi
# The wait's system calls are declared once.
ffi_files=$(grep -rlE 'fn (ppoll|prctl)\(' crates src tests examples --include='*.rs' || true)
if [ "$ffi_files" != "crates/server/src/idle.rs" ]; then
  echo "FAIL: ppoll/prctl declared outside crates/server/src/idle.rs:" $ffi_files >&2
  exit 1
fi
echo "ok: worker_loop and repl_out_loop wait in one place and never sleep, acceptor_loop never sleeps"

echo "== one measurement system =="
# benchmark/ measures, run_benches.sh reproduces the paper's figures, and
# every gate and soak below prints its verdict and writes nothing. A
# service harness that writes a BENCH_*.json again, or links the analyzer
# through gocc-bench to do it, or the header schema tooling coming back,
# is a second measurement system.
if grep -rnE 'write_artifact|with_header|artifact_header|BENCH_' crates/loadgen/src \
  crates/bench/src/bin/hotpath.rs crates/bench/src/bin/trace_overhead.rs; then
  echo "FAIL: a gate or soak writes a bench artifact again" >&2
  exit 1
fi
if grep -n 'gocc-bench' crates/loadgen/Cargo.toml; then
  echo "FAIL: crates/loadgen depends on gocc-bench again" >&2
  exit 1
fi
for f in crates/bench/src/bin/bench_schema.rs scripts/check_bench_schema.sh; do
  if [ -e "$f" ]; then
    echo "FAIL: $f is back" >&2
    exit 1
  fi
done
echo "ok: gates and soaks write no artifact, loadgen links no analyzer"

echo "== formatting =="
cargo fmt --check

echo "== repo benchmark (offline build + smoke) =="
# benchmark/ is a package with its own [workspace], so the workspace build
# and tests above never compile it: removing a public API it links would
# break only the benchmark driver, never CI. run.sh builds it offline from
# this checkout and --smoke runs every workload, both passes, with 1 s
# windows and all output checks. Exit 4 = an output check failed (vs 1 for
# a broken harness or a build error).
run_soak "benchmark builds and smokes" "a benchmark output check failed" \
  quietly bash benchmark/run.sh --smoke
# Its unit tests (metric arithmetic, schema, catalogue == BENCHMARK.json)
# build the structs it fills from this workspace's snapshots by literal.
(cd benchmark && CARGO_TARGET_DIR=../target cargo test --offline -q)
# The paired-run tool a perf PR takes its numbers with: usage, then one
# 1 s pair against HEAD, so the export, both builds, the result parsing
# and the table are exercised. Exit 4 (a metric past its bound) is not a
# failure here: one 1 s pair checks the tool, not the numbers.
./scripts/bench_pairs.sh --help > /dev/null
./scripts/bench_pairs.sh --seconds 1 HEAD section_r90 1 || [ $? -eq 4 ]
echo "ok: bench_pairs dry run"

echo "== goccd loopback smoke =="
# Boot the real daemon on an ephemeral port in each mode, hit it with a
# short loadgen burst over real sockets, and require a clean SHUTDOWN.
# loadgen itself asserts that the STATS response parses with the
# telemetry JSON parser and reports the expected mode.
for mode in lock gocc; do
  log=$(mktemp)
  ./target/release/goccd --mode "$mode" --port 0 --workers 2 > "$log" &
  goccd_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(awk '/^LISTENING /{print $2}' "$log")
    [ -n "$port" ] && break
    if ! kill -0 "$goccd_pid" 2>/dev/null; then
      echo "FAIL: goccd ($mode) died before listening" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "FAIL: goccd ($mode) never printed LISTENING" >&2
    kill "$goccd_pid" 2>/dev/null || true
    exit 1
  fi
  ./target/release/loadgen --addr "127.0.0.1:$port" --mode "$mode" \
    --workers 2 --warmup-ms 50 --window-ms 200
  # Same daemon, pipelined: 32 frames outstanding per connection drives
  # the batch pump (one elided section per shard-group per pump pass);
  # loadgen still verifies STATS parses and the mode matches.
  ./target/release/loadgen --addr "127.0.0.1:$port" --mode "$mode" \
    --workers 2 --pipeline 32 --warmup-ms 50 --window-ms 200 --shutdown
  if ! wait "$goccd_pid"; then
    echo "FAIL: goccd ($mode) did not shut down cleanly" >&2
    cat "$log" >&2
    exit 1
  fi
  grep -q "goccd shut down:" "$log" || {
    echo "FAIL: goccd ($mode) printed no shutdown summary" >&2
    cat "$log" >&2
    exit 1
  }
  echo "ok: goccd $mode smoke (port $port)"
  rm -f "$log"
done

echo "== pipelining gate (batched section execution payoff) =="
# Client-side pipelining + server-side batching must actually amortize:
# at 1 worker, depth 32 has to put >= PIPELINE_GATE_X x as many requests
# behind each elided section as depth 1 does, in BOTH modes, by the
# server's own count (STATS batch.requests_per_batch: 8.0 against 1.0
# with four shards), and deliver >= 2x the ops/sec of depth 8 (half of
# the depth ratio; it reads 3.8-4.0x). The depth-32 vs depth-1 ops/sec
# ratio this gate judged before PR 18 measured the idle worker's sleep
# and reads ~1 now (EXPERIMENTS S1-P). Exit 4 means the amortization gate
# was violated (vs exit 1 for a broken harness).
pipeline_gate=${PIPELINE_GATE_X:-5}
run_soak "pipeline gate (>= ${pipeline_gate}x requests per section, >= 2x depth-8 ops/sec at depth 32)" \
  "pipelining amortization below the bar" \
  ./target/release/loadgen --mode both --workers 1 \
  --warmup-ms 100 --window-ms 400 --pipeline-gate "$pipeline_gate"

echo "== hot-path perf smoke =="
# Loose order-of-magnitude gate on uncontended section cost: the
# speculating gocc fast path must stay within HOTPATH_GATE_RATIO x the
# plain-lock baseline. The bound is deliberately generous (CI boxes are
# noisy); it exists to catch "someone re-introduced a per-section heap
# allocation"-class regressions, not to benchmark. Override on noisy
# boxes: HOTPATH_GATE_RATIO=12 ./scripts/ci.sh
hotpath_gate=${HOTPATH_GATE_RATIO:-8}
run_soak "hot-path gate (<= ${hotpath_gate}x lock)" \
  "speculating section cost above ${hotpath_gate}x the lock baseline" \
  ./target/release/hotpath --window-ms 100 --gate "$hotpath_gate"

echo "== flight-recorder overhead gate =="
# The tracing tax on the same speculating-section figure: disabled
# tracing must stay within 5% of the untraced baseline and 1-in-64
# sampling (goccd's default) within 10%, min-of-5 interleaved repeats.
# The margins sit well above the measured cost (per-process floors
# drift several percent on one core); a real regression reads +220%.
# Override on noisy boxes: TRACE_GATE_SAMPLED_PCT=15 ./scripts/ci.sh
run_soak "trace overhead gate" "flight-recorder overhead above its gate" \
  ./target/release/trace_overhead --window-ms 120

echo "== chaos soak (fixed seed, both modes) =="
# Short combined-fault run at elevated rates: HTM abort injection,
# Lock/Unlock mis-pairing and transport faults, all from one seed.
# chaos_soak exits 4 on any oracle divergence, undetected mispair,
# watchdog that does not engage or replay mismatch, and exit 2 if its
# liveness monitor sees no progress (deadlock/livelock).
run_soak "chaos soak phases" "a degradation guarantee was violated under injected faults" \
  ./target/release/chaos_soak --seed 2026 --mode both \
  --sections 200 --threads 4 \
  --abort-rate 0.25 --pairing-rate 0.25 --transport-rate 0.2 \
  --net-keys 32 --net-clients 3 --stall-secs 60
# The soak validates its flight-recorder dumps before writing them; here
# we only require that they actually landed.
for mode in lock gocc; do
  if [ ! -s "TRACE_chaos_$mode.json" ]; then
    echo "FAIL: chaos soak wrote no TRACE_chaos_$mode.json" >&2
    exit 1
  fi
done
rm -f TRACE_chaos_lock.json TRACE_chaos_gocc.json
echo "ok: chaos soak"

echo "== overload soak (open-loop saturation, both modes) =="
# Drives goccd 2x past its calibrated capacity with open-loop arrivals
# and deadline budgets, then checks the overload guarantees from the
# server's own counters: bounded admitted p99 (gate in ms, overridable
# via OVERLOAD_GATE_P99_MS=150 ./scripts/ci.sh), sub-10us shed cost,
# no expired request ever executed, brownout engage + recovery within
# 5s of load removal. Exit 4 means a guarantee was violated (vs exit 1
# for a broken harness) so the two fail differently here.
overload_gate=${OVERLOAD_GATE_P99_MS:-100}
run_soak "overload soak (p99 gate ${overload_gate}ms)" \
  "overload guarantee violated (gate ${overload_gate}ms)" \
  ./target/release/overload_soak --quick --seed 2026

echo "== crash soak (seeded kill/recover, both modes) =="
# Durability oracle check end to end. Phase 1 replays seeded torn-write
# and short-fsync crashes through the WAL's simulated backend and
# recovers in-process; phase 2 boots the real goccd with WAL fault
# injection, drives writes until the seeded crash point aborts the
# process mid-load, restarts it on the same data dir, and checks every
# key against a per-key oracle: no acked write lost, no unacked write
# half-applied, in both execution modes. Exit 4 = the oracle was
# violated; exit 2 = the liveness watchdog saw no progress (hung recovery
# or stuck barrier).
run_soak "crash soak" "durability violated: lost ack, invented write or recovery mismatch" \
  ./target/release/crash_soak --seed 2026 --mode both \
  --sim-runs 6 --sim-ops 400 --kill-cycles 2 --cycle-ops 3000 \
  --crash-rate 0.004 --stall-secs 60

echo "== failover soak (kill primary: operator promote, then self-healing; both modes) =="
# Replication guarantees end to end under seeded transport faults on the
# replication streams, three phases per mode in one binary.
# Manual: boots a goccd primary with two in-process replicas, SIGKILLs
# the primary mid-load, holds a deliberate primary-less window (replicas
# alone must carry reads), promotes the replica with the highest
# replicated version and repoints the other. Checks: no acked write lost
# (per-key oracle against the new primary), reads stay available during
# the outage, bounded staleness on the repointed replica, recovery within
# deadline.
# Auto: same kill, zero operator involvement: the replicas' failure
# detectors must notice the silence, hold a quorum election (highest
# replicated version wins, one vote per epoch), and the winner must
# promote itself within the detection deadline. Checks the no-lost-ack
# oracle plus: exactly one primary per epoch (continuous split-brain
# poll), read-your-writes sessions never violated across the failover,
# and a deposed-primary rejoin proving its stale epoch is fenced (the
# repointed replica rejects the old stream without applying a batch).
# Its phase line prints detection/promotion/unavailability times.
# Fencing: a primary below min-acks rejects writes within its lease and
# resumes once a fresh replica attaches.
run_soak "failover soak (manual promotion, automatic promotion, fencing)" \
  "replication guarantee violated" \
  ./target/release/failover_soak --seed 2026 --mode both --load-ops 1200

echo "== WAL throughput gates (group commit amortization) =="
# Two bounds on wal_bench's gocc numbers. Engine-level group commit must
# amortize, judged on counts the disk's speed of the day cannot move: >= 3
# records behind each fsync under `group` against <= 1.05 under `always`
# (the group/always throughput ratio is printed, not gated: it read
# 2.7-5.1x here with the counts unmoved). Service-level sync=off must stay a batched log, on counts
# too: <= 0.5 write(2) calls and <= 0.5 syncer wake-ups per record (read
# 0.04-0.06 of each; the throughput lost against the in-memory daemon is
# printed, not gated: it read -14...+39% at unchanged code).
run_soak "WAL gates (group amortization, off tax)" "a WAL gate failed" \
  ./target/release/wal_bench --window-ms 300 --gate

echo "== replication read gates (replica fan-out) =="
# Read throughput vs replica count, on repl_bench's gocc numbers: with
# both endpoints on one core the gate is a bounded replication tax
# (2-replica aggregate >= REPL_GATE_SCALE_X of the primary-only figure)
# plus proof that replicas actually serve (replica read share >=
# REPL_GATE_SHARE_PCT). On multi-core boxes the printed scale ratio shows
# real fan-out. Overridable like the other perf gates on noisy boxes.
run_soak "replication gates (tax bound, replica share)" "a replication read gate failed" \
  ./target/release/repl_bench --window-ms 300 --gate

echo "CI_OK"
