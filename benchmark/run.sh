#!/usr/bin/env bash
# The one command: builds `tind` and the harness (build.sh), then runs it.
#
#   benchmark/run.sh [--seed S]            all workloads, untraced then traced,
#                                          every metric printed by name
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                          one run; last stdout line is the
#                                          JSON result the driver reads
#   benchmark/run.sh --repeat N            median + quartiles per metric x
#                                          workload, checked against bounds
#   benchmark/run.sh --smoke               same code path at 1 000 attributes
#   benchmark/run.sh --self-test           load-generator self-test
#
# See benchmark/README.md for the glossary.

set -euo pipefail
cd "$(dirname "$0")/.."
BIN_DIR="$(benchmark/build.sh)"
exec "$BIN_DIR/tind-benchmark" --bin-dir "$BIN_DIR" "$@"
