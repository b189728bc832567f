#!/bin/sh
# Print one `workload seed digest` line for seeds 1-4 of every perfbench
# workload. A perfbench digest is a SHA-256 over the simulated results of
# one seed (metrics snapshot, master counters, memory contents, latency
# samples), so the lines change only when simulated behaviour changes.
#
# Run from the repository root and compare with the committed file:
#
#     scripts/perfbench_digests.sh | diff tests/golden/perfbench_digests.txt -
#
# A change that alters simulated behaviour on purpose regenerates the file
# and names every changed line in CHANGES.md.
set -eu
for workload in casestudy_mb32 noc_mesh_16x16 ddr_read_flood fabric_64m; do
    for seed in 1 2 3 4; do
        out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
        digest=$(printf '%s\n' "$out" | sed -n 's/^digest //p')
        if [ -z "$digest" ]; then
            echo "no digest line from $workload seed $seed" >&2
            exit 1
        fi
        echo "$workload $seed $digest"
    done
done
