#!/usr/bin/env bash
# One command: build the benchmark, run every workload untraced (the
# end-to-end metrics), run every workload traced (the per-layer metrics),
# and print the summary tables.
#
#   benchmark/run.sh [--quick] [--seed N] [--seconds S] [--repeat N] [--tag NAME]
#
# Results land in benchmark/out/<tag>-untraced.jsonl and
# benchmark/out/<tag>-traced.jsonl (one JSON document per run); compare two
# sets with
#
#   <binary> --compare benchmark/out/A-untraced.jsonl benchmark/out/B-untraced.jsonl
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
seed=1
seconds=20
repeat=1
tag=run
quick=()
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) quick=(--quick); seconds=3 ;;
    --seed) seed=$2; shift ;;
    --seconds) seconds=$2; shift ;;
    --repeat) repeat=$2; shift ;;
    --tag) tag=$2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

target=${CARGO_TARGET_DIR:-$here/target}
CARGO_TARGET_DIR=$target cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin=$target/release/benchmark

mkdir -p "$here/out"
untraced=$here/out/$tag-untraced.jsonl
traced=$here/out/$tag-traced.jsonl
rm -f "$untraced" "$traced"

status=0
for workload in batch_static served_point stream_window durable_recover; do
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    --repeat "$repeat" --out "$untraced" "${quick[@]}" >/dev/null || status=1
done
for workload in batch_static served_point stream_window durable_recover; do
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 \
    --out "$traced" "${quick[@]}" >/dev/null || status=1
done

echo "end-to-end results: $untraced" >&2
echo "per-layer results:  $traced (spans: $here/out/trace-<workload>.jsonl)" >&2
exit $status
