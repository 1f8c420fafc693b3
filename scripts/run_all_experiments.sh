#!/usr/bin/env bash
# Regenerate every table and figure of the paper. Results land in results/.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
cargo build --release -p kglink-bench
for exp in exp_table1 exp_table2 exp_table3 exp_table4 exp_table5 \
           exp_fig7 exp_fig8 exp_fig9 exp_fig10 exp_qualitative \
           exp_design_sweeps exp_chaos exp_serve exp_obs exp_overload \
           exp_scale exp_bench exp_swap; do
    echo "=== $exp ==="
    cargo run --release -q -p kglink-bench --bin "$exp" 2>&1 | tee "results/$exp.txt"
done
echo "All experiments done — see results/."
