//! An independent Rust model of the generated RTL pipeline: the oracle the
//! simulator's final stage values and event count are checked against.
//! It shares no code with the compiler or the kernel.

use crate::gen::Pipeline;

/// Pipeline state after some number of rising edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelRun {
    /// `s0..=s<stages>` after the last edge.
    pub values: Vec<i64>,
    /// Signal events: every clock edge plus every stage value change.
    pub events: u64,
}

/// Runs `edges` rising (and as many falling) clock edges with package
/// constant `k`. On a rising edge every register samples the values from
/// before the edge, as VHDL signal assignment semantics require.
pub fn run(p: &Pipeline, k: i64, edges: u64) -> ModelRun {
    let step = |x: i64, g: i64| (x * p.mul + g + k).rem_euclid(p.modulus);
    let mut values = vec![0i64; p.stages + 1];
    let mut counter = 0i64;
    let mut events = 0u64;
    for _ in 0..edges {
        counter = (counter + p.inc).rem_euclid(p.modulus);
        let mut next = Vec::with_capacity(values.len());
        next.push(counter);
        for (i, g) in p.gains.iter().enumerate() {
            next.push(step(values[i], *g));
        }
        events += 2 + next.iter().zip(&values).filter(|(a, b)| a != b).count() as u64;
        values = next;
    }
    ModelRun { values, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::{Simulator, Time, Val};
    use vhdl_driver::Compiler;

    /// The model and the compiled-and-simulated design agree on a
    /// 4-stage pipeline, stage by stage and on the event count.
    #[test]
    fn model_matches_simulator_on_four_stages() {
        for seed in [1u64, 2, 3] {
            let p = Pipeline::generate(seed, 4);
            let c = Compiler::in_memory();
            let r = c.compile(&p.source()).expect("parses");
            assert!(r.ok(), "{}", r.msgs());
            let (program, _) = c.elaborate("tb", None, None).expect("elaborates");
            let mut sim = Simulator::new(program);
            let edges = 37;
            sim.run_until(Time::fs(Pipeline::deadline_fs(edges)))
                .expect("runs");
            let m = run(&p, p.k, edges);
            for (i, want) in m.values.iter().enumerate() {
                assert_eq!(
                    sim.value_by_name(&format!("tb.s{i}")),
                    Some(&Val::Int(*want)),
                    "seed {seed} stage {i}"
                );
            }
            assert_eq!(sim.stats().events, m.events, "seed {seed}");
        }
    }
}
