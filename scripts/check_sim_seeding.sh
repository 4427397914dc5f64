#!/usr/bin/env sh
# Per-trial seeding regression: every row of a dyndisp_sim --trials sweep
# must equal the same seed run alone AND the dyndisp_campaign record of the
# same tuple and seed. random-walk draws its moves from its seed, so a sweep
# that resolved the algorithm once, from --seed, diverges from the second
# row on.
#
# usage: check_sim_seeding.sh <dyndisp_sim> <dyndisp_campaign> <work-dir>
set -eu

SIM_BIN=$1
CAMPAIGN_BIN=$2
WORK=$3

rm -rf "$WORK"
mkdir -p "$WORK"

# $1 = csv path, then the seed flags. Exit 1 only means "not dispersed".
sim() {
  out=$1
  shift
  "$SIM_BIN" --algorithm random-walk --n 30 --k 20 "$@" --csv "$out" \
    > /dev/null || [ $? -eq 1 ]
}

sim "$WORK/sweep.csv" --seed 1 --trials 3
tail -n +2 "$WORK/sweep.csv" > "$WORK/sweep.rows"
: > "$WORK/alone.rows"
for seed in 1 2 3; do
  sim "$WORK/alone-$seed.csv" --seed "$seed" --trials 1
  tail -n +2 "$WORK/alone-$seed.csv" >> "$WORK/alone.rows"
done

cat > "$WORK/spec.json" <<'SPEC'
{"name": "seeding",
 "axes": {"algorithms": ["random-walk"], "n": [30], "k": [20]},
 "seeds": 3, "base_seed": 1}
SPEC
"$CAMPAIGN_BIN" run "$WORK/spec.json" --threads 1 --quiet --no-timing \
  --out "$WORK/store" > /dev/null
# A record as the sim's CSV row: seed,dispersed,rounds,moves,memory_bits,
# max_occupied,crashed.
sed -E -n 's/.*"seed": ([0-9]+),.*"dispersed": (true|false), "rounds": ([0-9]+), "moves": ([0-9]+), "memory_bits": ([0-9]+), "max_occupied": ([0-9]+), "crashed": ([0-9]+),.*/\1,\2,\3,\4,\5,\6,\7/p' \
  "$WORK/store/results.jsonl" |
  sed -e 's/,true,/,1,/' -e 's/,false,/,0,/' > "$WORK/campaign.rows"

rows=$(wc -l < "$WORK/sweep.rows")
[ "$rows" -eq 3 ] || {
  echo "FAIL: the sweep wrote $rows rows, expected 3" >&2
  exit 1
}
cmp "$WORK/sweep.rows" "$WORK/alone.rows" || {
  echo "FAIL: --trials 3 rows differ from each seed run alone" >&2
  diff "$WORK/sweep.rows" "$WORK/alone.rows" >&2
  exit 1
}
cmp "$WORK/sweep.rows" "$WORK/campaign.rows" || {
  echo "FAIL: --trials 3 rows differ from the campaign records" >&2
  diff "$WORK/sweep.rows" "$WORK/campaign.rows" >&2
  exit 1
}
echo "seeding: OK (3 sweep rows == seeds run alone == campaign records)"
