#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark; see benchmark/README.md.
#   benchmark/run.sh [--reps=5] [--seed=11] [--workloads=a,b] [--lanes=L]
#                    [--out=FILE] [--compare=OLD.json] [--smoke] [--pin]
exec python3 "$(dirname "$0")/run.py" "$@"
