#!/bin/sh
# Tier-1 gate: offline build, full test suite, formatting, and a guard
# that keeps the workspace dependency-free (the container has no route
# to crates.io, so any non-path dependency breaks the build for
# everyone — fail fast here instead).
set -eu
cd "$(dirname "$0")/.."

# Runs one harness and tells its ways of failing apart, by the exit-code
# convention loadgen::soak::main gives every binary under
# crates/loadgen/src/bin (and the gate bin hotpath follows): 4 = a
# guarantee or gate it checks was violated, 2 = its
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

echo "== examples (release) =="
# Each root example asserts what it shows and panics otherwise, so a run
# that exits nonzero is a wrong runtime behaviour, not a cosmetic one.
cargo build --release --offline --examples
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  if ! quietly "./target/release/examples/$name"; then
    echo "FAIL: example $name exited nonzero" >&2
    exit 1
  fi
done
echo "ok: every root example ran and exited 0"

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== commit gate =="
# The gate is the per-arena commit slot: an elided section never writes
# the lock's line, so the per-lock committer count must not come back.
if grep -rnE 'committer_enter|committer_exit|CommitGate' crates/; then
  echo "FAIL: a per-lock committer count is back under crates/" >&2
  exit 1
fi
echo "ok: LockWord carries no committer count"

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
# Argument tables, the liveness watchdog, daemon/temp-dir guards and the
# per-key oracle live in crates/loadgen/src/soak.rs; a harness binary that
# grows its own copy has forked the kit.
if grep -rnE 'struct Liveness|struct KeyHist|struct Daemon|fn parse_args|fn tmp\(' \
  crates/loadgen/src/bin/; then
  echo "FAIL: a harness binary carries its own copy of loadgen::soak scaffolding" >&2
  exit 1
fi
echo "ok: harness binaries stand on loadgen::soak"

echo "== one wire client =="
# Every client sends through wire::Pipe, which owns the response shape
# check and the replay rule (INCR, TRACE and SHUTDOWN are never re-sent).
# A protocol-v1 encoder or decoder coming back, the replication verbs'
# bare codec coming back, or a client reading frames by hand, is a second
# client with its own copy of both. Exempt: wire itself (the Pipe and the
# framing tests) and benchmark/ (its own workspace, with its own client).
# crates/server/src reads frames at two sites only: the request pump and
# the replica sink's push stream, which carries unticketed batches and
# which repl::Sink takes as bytes its driver read. A candidacy's votes and
# a winner's announce go out on a non-blocking Pipe per peer.
if grep -rnE '\b(encode|decode)_request\(|\b(encode_repl_request|decode_repl_request|is_repl_request)\b' \
  crates tests examples --include='*.rs'; then
  echo "FAIL: a protocol-v1 or bare replication request codec is back" >&2
  exit 1
fi
hand_read=$(find crates/loadgen/src crates/*/tests tests -name '*.rs' \
  ! -path 'crates/wire/*' -exec grep -nE '\b(next_frame|read_frame)\b' {} + || true)
if [ -n "$hand_read" ]; then
  echo "$hand_read"
  echo "FAIL: a client reads frames by hand instead of through wire::Pipe" >&2
  exit 1
fi
server_reads=$(grep -rnw 'next_frame' crates/server/src || true)
if [ "$(printf '%s\n' "$server_reads" | grep -c .)" -ne 2 ]; then
  printf '%s\n' "$server_reads"
  echo "FAIL: crates/server/src reads frames at $(printf '%s\n' "$server_reads" | grep -c .) sites, want 2 (the pump and the sink)" >&2
  exit 1
fi
if grep -rn 'Shutdown::Write' crates/loadgen/src crates/server/tests; then
  echo "FAIL: a client half-closes to read its answer instead of a Pipe call" >&2
  exit 1
fi
echo "ok: every client sends through wire::Pipe, and no v1 or bare replication codec is left"

echo "== one load driver =="
# Closed and open loops are one per-connection loop (driver::drive), fed
# by a Schedule: a window of tickets or a rate. It waits in idle::wait,
# until an answer, the next due arrival or the read timeout, never in a
# nap of its own. A second loop, a sleep in the driver, or the client
# circuit breaker nothing called coming back, undoes that.
loops=$(grep -nE '^fn drive[A-Za-z0-9_]*[(<]' crates/loadgen/src/*.rs || true)
if [ "$(printf '%s\n' "$loops" | grep -c .)" -ne 1 ]; then
  printf '%s\n' "$loops"
  echo "FAIL: crates/loadgen/src has $(printf '%s\n' "$loops" | grep -c .) per-connection loops, want one" >&2
  exit 1
fi
naps=$(grep -n 'thread::sleep' crates/loadgen/src/driver.rs || true)
old=$(grep -rnE 'drive_window|drive_open|run_open_loop|OpenLoopConfig|OpenLoopResult' crates \
  --include='*.rs' || true)
breaker=$(grep -rn 'Breaker' crates README.md DESIGN.md || true)
if [ -n "$naps$old$breaker" ]; then
  printf '%s\n' "$naps" "$old" "$breaker" | grep -v '^$'
  echo "FAIL: the load driver naps, a second loop or config is back, or a Breaker is" >&2
  exit 1
fi
echo "ok: one per-connection load loop, no nap in it, no client breaker"

echo "== one idle decision =="
# Every wait of worker_loop is the one idle::wait behind Worker::pass's
# idle decision, which only picks the set and the deadline (a timed one
# from idle::Tick). A thread::sleep there is the 200 us poll-and-sleep, or
# the coalescing sleep with its timer slack, coming back
# (crates/server/tests/idle_wait.rs and pass.rs, in the tests stage above,
# pin the behaviour: the wake-ups on real sockets, the timer slack as the
# thread's state, the decisions on virtual time).
fn_body() { awk -v f="fn $1(" 'index($0, f) == 1 { on = 1 } on { print } on && /^}/ { exit }' \
  crates/server/src/lib.rs; }
sleeps=$(fn_body worker_loop | grep -c 'thread::sleep' || true)
waits=$(fn_body worker_loop | grep -c 'idle::wait' || true)
if [ "$sleeps" -ne 0 ] || [ "$waits" -ne 1 ]; then
  echo "FAIL: worker_loop has $sleeps thread::sleep (want 0) and $waits idle::wait (want 1)" >&2
  exit 1
fi
# Everything else in the non-test code of crates/server/src, wal/src and
# repl/src waits on an event too (the WAL syncer's `off` pacing waits on
# its condvar, which a FLUSH, a rotation or shutdown cuts short), and
# nothing sleeps at all: a seeded load plan's stall moves the pass's
# instant on, and the next pass waits for it in worker_loop's one wait.
sleepers=$(find crates/server/src crates/wal/src crates/repl/src -name '*.rs' -exec awk '
  FNR == 1 { f = ""; attr = 0 }
  /^#\[cfg\(test\)\]$/ { attr = 1; next }
  attr && /^mod [A-Za-z0-9_]+ \{/ { nextfile }
  { attr = 0 }
  match($0, /fn [A-Za-z0-9_]+[(<]/) { f = substr($0, RSTART + 3, RLENGTH - 4) }
  /thread::sleep/ {
    printf "%s:%d: in fn %s\n", FILENAME, FNR, f
  }' {} +)
if [ -n "$sleepers" ]; then
  echo "$sleepers"
  echo "FAIL: crates/{server,wal,repl}/src sleep" >&2
  exit 1
fi
# No server thread waits on the log either: a logged write and a FLUSH
# park their answer on a WAL ticket or flush token, the replica sink parks
# its ACK on the ticket of the batch's last record, and the syncer's tap
# wakes the worker or the sink. A blocking Wal::wait / Wal::flush
# (`wal.wait(`, or any `.wait(` under another name, Pipe::wait included),
# or a condvar of the server's own, must not come back to the request
# path or the sink.
logwaits=$(grep -nE '\.wait\(|\.flush\(\)|Condvar' crates/server/src/conn.rs crates/server/src/lib.rs \
  crates/server/src/repl.rs || true)
if [ -n "$logwaits" ]; then
  echo "$logwaits"
  echo "FAIL: the request path or the replica sink blocks on the log again" >&2
  exit 1
fi
# No thread waits on a replica: a min_acks write parks its response, and
# a replica's stream stays on the worker that accepted it. The blocking
# ack wait, its condvar and the thread that pumped replica streams for
# blocked workers must not come back.
blocked=$(grep -rnE 'repl_out_loop|goccd-repl-out|wait_replicated' crates --include='*.rs' || true)
condvars=$(grep -rn 'Condvar' crates/repl/src || true)
if [ -n "$blocked$condvars" ]; then
  printf '%s\n' "$blocked" "$condvars" | grep -v '^$'
  echo "FAIL: a blocking replica-ack wait or the repl-out thread is back" >&2
  exit 1
fi
# The wait's system calls are declared once.
ffi_files=$(grep -rlE 'fn (ppoll|prctl)\(' crates src tests examples --include='*.rs' || true)
if [ "$ffi_files" != "crates/server/src/idle.rs" ]; then
  echo "FAIL: ppoll/prctl declared outside crates/server/src/idle.rs:" $ffi_files >&2
  exit 1
fi
echo "ok: worker_loop waits in one place, nothing in server, wal or repl sleeps, no worker or sink waits on the log, no worker on a replica"

echo "== one clock =="
# A worker's pass is a function of the instant worker_loop hands it
# (gocc_server::Worker): every time rule under it -- a deadline, an
# eviction, repl_ack_timeout, the lease, a heartbeat, the STATS rate cap,
# the idle decay, the cadence -- reads that instant, and a duration of
# work just done reads trace::now_ns(). That is what lets idle_wait.rs,
# overload.rs and replication.rs test the rules on virtual time. So is the
# replica sink and its election (repl::Sink::step(now, input)): its
# detector, backoff, canvass and parked ACKs read the step's instant,
# which repl.rs's unit tests advance by hand. A clock read anywhere else
# in the non-test code of these files is a rule those tests cannot reach.
# Only the drivers read Instant::now: worker_loop, whose worker's passes
# include a seeded stall's and the shutdown drain's, and replica_loop.
clock_reads() { # FILE ALLOWED_FNS (an awk regex; empty: none)
  awk -v allow="$2" '
    /^#\[cfg\(test\)\]$/ { attr = 1; next }
    attr && /^mod [A-Za-z0-9_]+ \{/ { exit }
    { attr = 0 }
    match($0, /fn [A-Za-z0-9_]+[(<]/) { f = substr($0, RSTART + 3, RLENGTH - 4) }
    /Instant::now|\.elapsed\(/ && (allow == "" || f !~ ("^(" allow ")$")) {
      printf "%s:%d: in fn %s: %s\n", FILENAME, FNR, f, $0
    }' "$1"
}
reads=$(
  for f in conn overload store stats idle; do clock_reads "crates/server/src/$f.rs" ''; done
  clock_reads crates/repl/src/lib.rs ''
  clock_reads crates/server/src/lib.rs 'worker_loop'
  clock_reads crates/server/src/repl.rs 'replica_loop'
)
if [ -n "$reads" ]; then
  echo "$reads"
  echo "FAIL: a time rule reads a clock of its own instead of its pass's instant" >&2
  exit 1
fi
echo "ok: only the drivers read Instant::now; every time rule reads its pass's instant"

echo "== one role record =="
# A node's role, epoch, vote, upstream and electorate are one
# gocc_repl::Role behind one lock in ServerState, and every election rule
# is one Role method called under it (crates/repl/src/role.rs walks every
# sequence of six transitions; crates/server/src/repl.rs's unit tests
# drive the rules through two nodes' sinks and vote handlers, on virtual
# time). A second lock in ServerState, the
# promotion gate or the vote field of old, or a lock, socket, thread or
# clock inside Role would split a rule across reads again.
locks=$(grep -c 'Mutex<' crates/server/src/lib.rs || true)
if [ "$locks" -gt 1 ]; then
  echo "FAIL: crates/server/src/lib.rs declares $locks Mutex<...>, want at most the role's" >&2
  exit 1
fi
split=$(grep -rnE 'promote_gate|last_voted_epoch' crates/server/src || true)
impure=$(grep -nE 'std::net|std::thread|Instant|SystemTime|Mutex|Atomic|atomic::' \
  crates/repl/src/role.rs || true)
if [ -n "$split$impure" ]; then
  printf '%s\n' "$split" "$impure" | grep -v '^$'
  echo "FAIL: the role is split across fields again, or Role does I/O, locks or reads a clock" >&2
  exit 1
fi
echo "ok: one Role behind one lock, and Role is plain data and rules"

echo "== one measurement system =="
# benchmark/ measures, run_benches.sh reproduces the paper's figures, and
# every gate and soak below prints its verdict and writes nothing. A
# service harness that writes a BENCH_*.json or any other file again, or
# links the analyzer through gocc-bench to do it, or the header schema
# tooling coming back, is a second measurement system.
if grep -rnE 'write_artifact|with_header|artifact_header|BENCH_' crates/loadgen/src \
  crates/bench/src/bin/hotpath.rs; then
  echo "FAIL: a gate or soak writes a bench artifact again" >&2
  exit 1
fi
if grep -rn 'fs::write' crates/loadgen/src/bin; then
  echo "FAIL: a harness binary writes a file again" >&2
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

echo "== no gate knob =="
# Every stop below judges a count, a ratio within one run or a structural
# property, at a bar written where it is judged. An environment variable
# that overrides a bar, or a shell default this script reads one through,
# exists only to loosen a gate that fails at an unchanged tree: re-base
# that gate instead.
knobs=$(grep -rnE 'gate_env|"[A-Z0-9_]+_GATE_[A-Z0-9_]*"' crates --include='*.rs' || true)
defaults=$(grep -nE '\$\{[A-Za-z_][A-Za-z0-9_]*:-' scripts/ci.sh | grep -vE '^[0-9]+:[[:space:]]*#' || true)
if [ -n "$knobs$defaults" ]; then
  printf '%s\n' "$knobs" "$defaults" | grep -v '^$'
  echo "FAIL: a gate reads its bar from the environment again" >&2
  exit 1
fi
echo "ok: no gate bar is read from the environment"

echo "== no process knob =="
# The modelled GOMAXPROCS (GoccConfig::procs), the trace gate (a
# recorder's own sample_n) and the coherence model's core count
# (HtmConfig::sim_cores) live in the runtime handle, so two runtimes in
# one process never read each other's settings. A process-wide static for
# any of them, a setter for the model, or a set_procs call outside
# benchmark/ (its own workspace, the last caller of the no-op shim),
# brings back the races they had. gosync's locks know no runtime: the
# callers that hold one charge the model, so gosync needs no gocc-htm.
proc_knobs=$(grep -rnE 'set_procs\(|static (PROCS|ACTIVE|SIM_CORES|RMW_PENALTY_NS)\b|tracing_active|set_sim_cores|set_rmw_penalty_ns' . \
  --include='*.rs' --exclude-dir=target --exclude-dir=benchmark \
  | grep -vE '^\./crates/gosync/src/lib\.rs:[0-9]+:pub fn set_procs\(' || true)
gosync_htm=$(grep -n 'gocc-htm' crates/gosync/Cargo.toml || true)
if [ -n "$proc_knobs$gosync_htm" ]; then
  printf '%s\n' "$proc_knobs" "$gosync_htm" | grep -v '^$'
  echo "FAIL: a process-wide processor count, trace gate or coherence model is back" >&2
  exit 1
fi
echo "ok: the processor count, the trace gate and the coherence model live in the runtime handle"

echo "== every flag exercised =="
# A goccd flag stays only while something exercises it, and goccd's own
# parse test sets every one and checks the field it fills. parse_args's
# Flags rows, README's flag table and that test's table must name the same
# flags: one added, or deleted, in some of them and not the others is
# drift. The usage line is generated from the rows, so it cannot drift; a
# match arm on a flag string or a hand-written usage() would be a second
# parser. Every binary in server and loadgen parses through one Flags.
goccd=crates/server/src/bin/goccd.rs
flags_of() { grep -oE -- '--[a-z][a-z-]*' | sort -u; }
block_of() { awk -v start="$1" -v stop="$2" \
  'index($0, start) == 1 { on = 1 } on { print } on && index($0, stop) == 1 { exit }' "$goccd"; }
rows=$(block_of 'fn parse_args(' '}' | grep -oE '^[[:space:]]+\.[a-z_]+\("--[a-z-]+"' | flags_of)
table=$(block_of '    const FLAGS' '    ];' | grep -oE '^[[:space:]]+\(?"--[a-z-]+"' | flags_of)
readme=$(awk '/^### goccd flags/ { on = 1; next } on && /^#/ { exit } on && /^\|/ { print }' \
  README.md | flags_of)
drift=0
for source in table readme; do
  eval "listed=\$$source"
  if [ "$listed" != "$rows" ]; then
    echo "goccd Flags rows: " $rows >&2
    echo "goccd $source: " $listed >&2
    drift=1
  fi
done
if [ "$drift" -ne 0 ] || [ -z "$rows" ]; then
  echo "FAIL: goccd's flags drifted between its Flags rows, README and the parse test" >&2
  exit 1
fi
if grep -nE '"--[a-z-]+".*=>|fn usage' "$goccd"; then
  echo "FAIL: goccd.rs has a second parser (a match arm on a flag or a usage())" >&2
  exit 1
fi
for bin in crates/server/src/bin/*.rs crates/loadgen/src/bin/*.rs; do
  if ! grep -q 'Flags::new(' "$bin"; then
    echo "FAIL: $bin does not parse through Flags" >&2
    exit 1
  fi
done
echo "ok: $(echo "$rows" | wc -l) goccd flags, each in README and the parse test; every bin on Flags"

echo "== no orphan pub item =="
# A pub item outside tests that nothing outside tests names is surface
# nobody uses: it goes, with the tests whose only subject it was. The
# callers are the non-test code of crates/*/src (an in-file #[cfg(test)]
# item is test code; so is alloc_budget.rs, a test module in its own
# file), benchmark/src, src/ and examples/; a name in a comment or a
# pub use is no caller. A name shared with another item hides it, so
# this is a floor. What a test reads through (an observer, a fixture, a
# reference the test compares against, a test's random draw) stays on
# the list below, each with the test that reads through it.
orphan_allow='
Padded            crates/htm/tests/commit_gate.rs::elided_writers_never_tear_a_slow_path_read
below_usize       crates/wire/tests/fuzz_decode.rs::v2_truncations_and_mutations_never_panic
blobs             crates/txds/src/arena.rs::store_load_roundtrip
commit_slot_usage crates/htm/tests/commit_gate.rs::thread_churn_does_not_grow_the_registry
delete_seq        tests/cross_mode_prop.rs::batched_and_sequential_cache_agree_with_the_item_model_under_ttls
drawn             crates/faultplane/src/seq.rs::per_key_sequences_are_independent
flip              crates/wire/tests/fuzz_decode.rs::v2_truncations_and_mutations_never_panic
incr_seq          tests/cross_mode_prop.rs::batched_and_sequential_cache_agree_with_the_item_model_under_ttls
intersects        crates/pointsto/src/andersen.rs::distinct_struct_fields_do_not_alias
is_starving       crates/gosync/tests/fairness.rs::long_holds_flip_to_starvation_and_hand_off
is_write_held     crates/optilock/src/elidable.rs::mutex_word_tracks_pessimistic_ops
obj_name          crates/pointsto/src/andersen.rs::global_and_local_mutexes_are_distinct
reachable         crates/flowgraph/src/builder.rs::break_and_continue_edges
retained          crates/telemetry/src/events.rs::ring_is_bounded
set_seq           tests/cross_mode_prop.rs::batched_and_sequential_cache_agree_with_the_item_model_under_ttls
slow_readers      crates/optilock/src/elidable.rs::rw_word_tracks_readers_and_writers
tiny              crates/htm/tests/serializability_prop.rs::capacity_limits_are_exact
try_lock          crates/gosync/tests/fairness.rs::try_lock_never_steals_from_starving_queue
weight_sum        crates/optilock/tests/perceptron_props.rs::weight_sum_stays_bounded
'
# Prints "file:line:text" for every line of non-test code.
non_test_lines() {
  for f in $(find crates/*/src -name '*.rs' ! -path crates/server/src/alloc_budget.rs | sort); do
    awk '
      skip {
        line = $0
        gsub(/"([^"\\]|\\.)*"/, "", line); gsub(/\047.\047/, "", line)
        o = gsub(/\{/, "{", line); c = gsub(/\}/, "}", line)
        depth += o - c; if (o > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
        next
      }
      /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
      { print FILENAME ":" FNR ":" $0 }
    ' "$f"
  done
  find benchmark/src src examples -name '*.rs' | sort | xargs awk '{ print FILENAME ":" FNR ":" $0 }'
}
orphans=$(non_test_lines | awk '
  {
    file = $0; sub(/:.*/, "", file)
    text = $0; sub(/^[^:]*:[^:]*:/, "", text)
    if (text ~ /^[[:space:]]*\/\//) next
    sub(/[[:space:]]\/\/.*$/, "", text)
    if (file ~ /^crates\// && match(text, /^[[:space:]]*pub (const |unsafe )?(fn|const|static|struct|enum|trait|type) [A-Za-z_][A-Za-z0-9_]*/)) {
      n = split(substr(text, RSTART, RLENGTH), w, " "); defs[w[n]]++
    }
    if (text ~ /^[[:space:]]*pub use /) next
    while (match(text, /[A-Za-z_][A-Za-z0-9_]*/)) {
      seen[substr(text, RSTART, RLENGTH)]++
      text = substr(text, RSTART + RLENGTH)
    }
  }
  END { for (name in defs) if (seen[name] <= defs[name]) print name }
' | sort)
allowed=$(echo "$orphan_allow" | awk 'NF { print $1 }' | sort)
bad=0
for name in $orphans; do
  if ! echo "$allowed" | grep -qx "$name"; then
    echo "orphan pub item: $name (only tests name it: delete it, or list the test that reads through it)" >&2
    bad=1
  fi
done
echo "$orphan_allow" | while read -r name by; do
  [ -n "$name" ] || continue
  file=${by%%::*}
  fn=${by#*::}
  if ! echo "$orphans" | grep -qx "$name"; then
    echo "allowlisted $name has a caller outside tests now: take it off the list" >&2
    exit 1
  fi
  if ! grep -q "fn $fn[(<]" "$file" 2>/dev/null || ! grep -qw "$name" "$file"; then
    echo "allowlisted $name: $by does not exist or does not read through it" >&2
    exit 1
  fi
done || bad=1
if [ "$bad" -ne 0 ]; then
  echo "FAIL: a pub item has no caller outside tests, or the list of those a test reads through drifted" >&2
  exit 1
fi
echo "ok: every pub item has a caller outside tests, or a test on the list reads through it ($(echo "$allowed" | wc -l) listed)"

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
# at 1 worker, in BOTH modes, depths 1, 8 and 32 three times over,
# interleaved. Depth 32 has to put >= 5x as many requests behind each
# elided section as depth 1 does, by the server's own count (STATS
# batch.requests_per_batch: 8.0 against 1.0 with four shards), and its
# best ops/sec must be >= 2x depth 8's best (half of the depth ratio; it
# reads 3.8-4.0x). At depth 1 the worker blocks <= 1.5 times per request
# (STATS per_worker idle_blocks / executed; reads ~1.0). Exit 4 means a check
# was violated (vs exit 1 for a broken harness).
run_soak "pipeline gate (requests per section, depth-32 ops/sec, depth-1 blocks)" \
  "pipelining amortization below the bar" \
  ./target/release/loadgen --mode both --workers 1 \
  --warmup-ms 100 --window-ms 400 --pipeline-gate

echo "== hot-path perf smoke =="
# Loose order-of-magnitude gate on uncontended section cost: the
# speculating gocc fast path must stay within 8x the plain-lock baseline,
# measured in the same run. The bound is deliberately generous; it exists
# to catch "someone re-introduced a per-section heap allocation"-class
# regressions, not to benchmark. The flight recorder's share of that path
# is a count, not a time: crates/optilock/tests/trace_budget.rs (in the
# workspace stage above) pins the spans a request pushes, none with
# sampling off.
run_soak "hot-path gate (<= 8x lock)" \
  "speculating section cost above 8x the lock baseline" \
  ./target/release/hotpath --window-ms 100 --gate 8

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

echo "== overload soak (open-loop saturation, both modes) =="
# Drives goccd 2x past its calibrated capacity with open-loop arrivals
# and deadline budgets, then checks the overload guarantees from the
# server's own counters: admitted p99 within 4 full admission passes (a
# pass: the queue limit's worth of requests at the service rate the same
# run calibrated; it reads ~1.7), sub-10us shed cost, no expired request
# ever executed, brownout engage + recovery within 5s of load removal.
# Exit 4 means a guarantee was violated (vs exit 1 for a broken harness)
# so the two fail differently here.
run_soak "overload soak" "overload guarantee violated" \
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

echo "== replication read gate (replica fan-out) =="
# Read throughput vs replica count, on repl_bench's gocc numbers. The
# gate is a count: replicas must answer >= 25% of the 2-replica cell's
# reads with a value (four of six clients sit on replicas; it reads
# ~65%). The 2-replica/0-replica throughput ratio compares two separate
# runs and is printed, not gated; on multi-core boxes it shows fan-out.
run_soak "replication gate (replica read share)" "a replication read gate failed" \
  ./target/release/repl_bench --window-ms 300 --gate

echo "CI_OK"
