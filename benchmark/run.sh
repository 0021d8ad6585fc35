#!/usr/bin/env bash
# The repo benchmark's one command. Builds the harness in release mode,
# offline, then hands every argument to it:
#
#   benchmark/run.sh                          every workload, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A/results.json B/results.json
#   benchmark/run.sh --bless                  re-record expected.json
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR (the benchmark driver sets `.bench_build`)
# means relative to where the command was started.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# Cargo's progress goes to stderr; stdout carries results only.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# A full run (no --workload, not `compare`) measures for minutes: do not
# start it on a host that is busy with something else. The previous full
# run counts (its fleet and two-thread workloads leave the 1-minute load
# average above the core count), so give the average three minutes to
# decay before refusing.
busy() {
    read -r load _ </proc/loadavg
    awk -v l="$load" -v c="$(nproc)" 'BEGIN { exit !(l > c) }'
}
case " $* " in
    *" --workload "* | " compare "*) ;;
    *)
        waited=0
        while busy; do
            if [ "$waited" -ge 180 ]; then
                echo "benchmark: 1-minute load average $load still exceeds the $(nproc)" \
                    "available core(s); the host is busy, not measuring" >&2
                exit 4
            fi
            [ "$waited" -eq 0 ] && echo "benchmark: load average $load; waiting for the host to go quiet" >&2
            sleep 5
            waited=$((waited + 5))
        done
        ;;
esac

exec "$target/release/benchmark" "$@"
