#!/bin/sh
# Regenerates every file under results/, at full iterations:
#   - each experiment harness's JSON (timings and metrics, headed by the
#     host's core count and the git revision of the checkout);
#   - the stdout table of each table harness, as results/<name>.txt;
#   - one untraced vhdlbench run, as results/vhdlbench/<workload>.json.
# EXPERIMENTS.md quotes only files this script writes, and verify.sh
# fails if results/ holds a file the script does not name.
#
#   scripts/results.sh
#
# Run it on an otherwise idle machine; the harnesses and vhdlbench run one
# after another.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
# Full iterations, into results/: no smoke settings leak in.
unset AG_BENCH_ITERS AG_BENCH_OUT

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# bench NAME FILE...: runs one harness of crates/bench. A `.txt` among the
# files receives the harness's stdout (less the runner's `results:` line).
# Every named file must come out of this run.
bench() {
    name=$1
    shift
    rm -f "$@"
    echo "==> $name"
    cargo bench -q -p ag-bench --bench "$name" >"$TMP/stdout"
    for f in "$@"; do
        case $f in
        *.txt) grep -v '^results: ' "$TMP/stdout" >"$f" ;;
        esac
        [ -s "$f" ] || { echo "results: $name did not write $f" >&2; exit 1; }
    done
}

bench exp_fig1_pipeline results/exp_fig1_pipeline.json results/exp_fig1_pipeline.txt
bench exp_fig2_sizes results/exp_fig2_sizes.json results/exp_fig2_sizes.txt
bench exp_ag_stats results/exp_ag_stats.json results/exp_ag_stats.txt
bench exp_compile_speed results/exp_compile_speed.json results/exp_compile_speed.txt
bench exp_config_units results/exp_config_units.json results/exp_config_units.txt
bench exp_env results/exp_env.json
bench exp_generator_scaling results/exp_generator_scaling.json results/exp_generator_scaling.txt
bench exp_visit_evolution results/exp_visit_evolution.json results/exp_visit_evolution.txt
bench exp_cascade_ablation results/exp_cascade_ablation.json results/exp_cascade_ablation.txt
bench exp_kernel results/exp_kernel.json
bench exp_conform results/exp_conform.json
bench exp_vif results/exp_vif.json

# One untraced vhdlbench run: each workload's end-to-end metrics with
# nproc, the git revision and every sample. Its scratch files (the
# rebuild project) stay in the temporary directory.
echo "==> vhdlbench --seed 1"
cargo run --release --offline --quiet --manifest-path vhdlbench/Cargo.toml -- \
    --seed 1 --out "$TMP/vhdlbench" >"$TMP/vhdlbench.log"
mkdir -p results/vhdlbench
for f in results/vhdlbench/compile.json results/vhdlbench/simulate.json \
    results/vhdlbench/serve.json results/vhdlbench/rebuild.json; do
    cp "$TMP/vhdlbench/$(basename "$f")" "$f"
done

echo "results: OK"
