#!/usr/bin/env sh
# Cross-process determinism regression: the same campaign spec + seeds must
# produce
#   * byte-identical results.jsonl across two SEPARATE dyndisp_campaign
#     processes at threads=1 (record values AND line order), and
#   * the identical record SET at threads=4 (line order legitimately differs
#     with completion order, so the thread comparison sorts first).
#
# --no-timing zeroes the per-record wall_ms field, the one value that is
# allowed to differ between runs; everything else in a record is claimed to
# be a pure function of (spec, seed).
#
# A multi-process leg runs the spec through the campaign service
# (coordinator + forked worker processes) at --workers 1 and --workers 4;
# the merged shard stores must be BYTE-identical to the threads=1 store --
# the service's determinism contract is stronger than the in-process
# thread pool's because the merge rewrites records in job order.
#
# usage: check_determinism.sh <dyndisp_campaign> <spec.json> <work-dir>
set -eu

CAMPAIGN_BIN=$1
SPEC=$2
WORK=$3

rm -rf "$WORK"
mkdir -p "$WORK"

run() {
  # $1 = store subdir, $2 = threads
  "$CAMPAIGN_BIN" run "$SPEC" --seeds 2 --threads "$2" --quiet --no-timing \
    --out "$WORK/$1" > "$WORK/$1.stdout"
}

run a 1
run b 1
run c 4

run_workers() {
  # $1 = store subdir, $2 = worker process count
  "$CAMPAIGN_BIN" run "$SPEC" --seeds 2 --workers "$2" --quiet --no-timing \
    --out "$WORK/$1" > "$WORK/$1.stdout"
}

run_workers w1 1
run_workers w4 4

# Two independent single-threaded processes: byte-identical, order included.
cmp "$WORK/a/results.jsonl" "$WORK/b/results.jsonl" || {
  echo "FAIL: threads=1 runs differ byte-for-byte" >&2
  diff "$WORK/a/results.jsonl" "$WORK/b/results.jsonl" | head -10 >&2
  exit 1
}

# Multi-process service runs: merged stores byte-identical to threads=1,
# at any worker count -- order included, no sorting allowed.
for w in w1 w4; do
  cmp "$WORK/a/results.jsonl" "$WORK/$w/results.jsonl" || {
    echo "FAIL: service run $w differs bytewise from threads=1" >&2
    diff "$WORK/a/results.jsonl" "$WORK/$w/results.jsonl" | head -10 >&2
    exit 1
  }
done

# threads=1 vs threads=4: same record set (sorted line comparison).
sort "$WORK/a/results.jsonl" > "$WORK/a.sorted"
sort "$WORK/c/results.jsonl" > "$WORK/c.sorted"
cmp "$WORK/a.sorted" "$WORK/c.sorted" || {
  echo "FAIL: threads=1 and threads=4 record sets differ" >&2
  diff "$WORK/a.sorted" "$WORK/c.sorted" | head -10 >&2
  exit 1
}

# The aggregate reports must agree too (the aggregator sorts by job index,
# so this holds whenever the record sets do -- kept as a belt-and-braces
# check that reporting is order-independent).
"$CAMPAIGN_BIN" report "$WORK/a" > "$WORK/report_a.txt"
"$CAMPAIGN_BIN" report "$WORK/c" > "$WORK/report_c.txt"
cmp "$WORK/report_a.txt" "$WORK/report_c.txt" || {
  echo "FAIL: aggregate reports differ between thread counts" >&2
  exit 1
}

records=$(wc -l < "$WORK/a/results.jsonl")
echo "determinism: OK ($records records, threads 1==1 bytewise, 1==4 as sets, workers 1/4 bytewise)"
