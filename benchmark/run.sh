#!/bin/sh
# The repo benchmark, one command: builds the benchmark package offline
# from the sources in this checkout and passes its arguments through.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]   every workload, both passes
#   benchmark/run.sh --smoke                                 the same with 1 s windows
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --self-test
#
# Exit codes: 0 ok, 4 an output check failed or --compare found a
# regression, 2 a stage hung, 1 the harness itself failed.
set -eu
cd "$(dirname "$0")/.."

# Build into the repo's own (git-ignored) target directory unless the
# caller chose another; scratch files go under <target>/benchmark.
: "${CARGO_TARGET_DIR:=target}"
export CARGO_TARGET_DIR

# The build log goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
# Flush what the build wrote, so durable_w's fsyncs do not queue behind it.
sync

exec "$CARGO_TARGET_DIR/release/gocc-benchmark" "$@"
