//! E14 — generative differential-conformance throughput.
//!
//! Characterizes the `vhdl-conform` subsystem itself: how fast the
//! generator emits designs, how fast the full front-end pipeline absorbs
//! them, and how many complete four-cell configuration matrices per
//! second the oracle sustains — the number that bounds how much fuzzing
//! a CI minute buys.
//!
//! Timed with the in-repo `ag-harness` runner; results land in
//! `results/exp_conform.json`.

use std::hint::black_box;

use ag_harness::bench::{fmt_ns, Runner};
use ag_harness::Source;
use vhdl_conform::oracle::{elaborate, CELLS};
use vhdl_conform::{gen_design, run_matrix, Profile};

fn main() {
    println!("# E14 — generative differential conformance (vhdl-conform)");
    println!();
    let mut r = Runner::new("exp_conform")
        .iters(10)
        .out_dir(ag_bench::out_dir());

    // Generator throughput: choice stream -> VHDL text.
    const GEN_BATCH: u64 = 100;
    let s = r.measure("generate/small_x100", || {
        let mut lines = 0usize;
        for seed in 0..GEN_BATCH {
            let d = gen_design(&mut Source::from_seed(seed), Profile::Small);
            lines += d.source.lines().count();
        }
        black_box(lines)
    });
    println!(
        "generate 100 small designs:  median {}",
        fmt_ns(s.median_ns)
    );
    r.metric(
        "generate_small_designs_per_sec",
        GEN_BATCH as f64 / s.median_secs(),
        "designs/s",
    );
    let s = r.measure("generate/heavy_x10", || {
        let mut lines = 0usize;
        for seed in 0..10u64 {
            let d = gen_design(&mut Source::from_seed(seed), Profile::Heavy);
            lines += d.source.lines().count();
        }
        black_box(lines)
    });
    println!(
        "generate 10 heavy designs:   median {}",
        fmt_ns(s.median_ns)
    );
    r.metric(
        "generate_heavy_designs_per_sec",
        10.0 / s.median_secs(),
        "designs/s",
    );

    // Pipeline absorption: generated design -> analyzed -> elaborated
    // kernel program (compile + elaborate, no simulation).
    let designs: Vec<_> = (0..8u64)
        .map(|seed| gen_design(&mut Source::from_seed(seed), Profile::Small))
        .collect();
    let s = r.measure("elaborate/small_x8", || {
        for d in &designs {
            black_box(elaborate(d).expect("generated design elaborates"));
        }
    });
    println!(
        "elaborate 8 small designs:   median {}",
        fmt_ns(s.median_ns)
    );
    r.metric(
        "elaborate_small_designs_per_sec",
        8.0 / s.median_secs(),
        "designs/s",
    );

    // The headline: complete four-cell matrices per second. Every case
    // is compile + elaborate + 4 simulations + byte-identity comparison.
    const MATRIX_BATCH: u64 = 4;
    let s = r.measure("matrix/small_x4", || {
        for seed in 0..MATRIX_BATCH {
            let d = gen_design(&mut Source::from_seed(seed), Profile::Small);
            let out = run_matrix(&d, None).expect("generated design runs");
            assert!(out.divergence.is_none(), "kernel must conform");
            black_box(out.digest());
        }
    });
    println!(
        "4 full 4-cell matrices:      median {}",
        fmt_ns(s.median_ns)
    );
    r.metric(
        "matrix_cases_per_sec",
        MATRIX_BATCH as f64 / s.median_secs(),
        "cases/s",
    );
    r.metric(
        "matrix_cell_runs_per_sec",
        (MATRIX_BATCH * CELLS.len() as u64) as f64 / s.median_secs(),
        "runs/s",
    );

    r.finish();
}
