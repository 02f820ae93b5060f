#!/bin/sh
# ab.sh BIN_A BIN_B WORKLOAD REPS — host-time profiles of two hetbench
# builds, taken side by side.
#
# Builds the sampler, then runs REPS one-rep children (`--rep WORKLOAD i
# --seed 400 --trace 0`) of each binary under it, alternating A and B so
# that both sides share whatever the machine was doing. Each side's dumps
# go to a directory of its own; the script prints the total samples per
# side and each side's top rows, and the two directories, for a closer
# look with report.py (`--inline`, `--split`).
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 BIN_A BIN_B WORKLOAD REPS" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
a=$(realpath "$1")
b=$(realpath "$2")
workload=$3
reps=$4

out=$(mktemp -d "${TMPDIR:-/tmp}/pcsample-ab.XXXXXX")
gcc -O2 -shared -fPIC -o "$out/pcsample.so" "$here/pcsample.c" -ldl
mkdir "$out/A" "$out/B"

i=0
while [ "$i" -lt "$reps" ]; do
    for side in A B; do
        if [ "$side" = A ]; then bin=$a; else bin=$b; fi
        (cd "$out/$side" && LD_PRELOAD="$out/pcsample.so" "$bin" \
            --rep "$workload" "$i" --seed 400 --trace 0 > /dev/null)
    done
    i=$((i + 1))
done

for side in A B; do
    if [ "$side" = A ]; then bin=$a; else bin=$b; fi
    echo "== $side: $bin ($out/$side)"
    python3 "$here/report.py" "$out/$side"/pcsample.*.out | head -n 24
    echo
done
