//! Corpus replay: every checked-in conformance seed must still pass the
//! full configuration matrix — four interpreter cells of
//! {1, 4 workers} × {solid, checkpoint-and-restore} byte-identical —
//! and must still hash to its golden digest. A digest mismatch with the
//! matrix still agreeing means the kernel's *observable semantics*
//! drifted: every configuration changed behavior together. That is
//! sometimes intentional (a semantics fix); regenerate goldens with
//! `vhdlconform run --seed-dir tests/corpus --update`.

use std::path::PathBuf;

use vhdl_conform::{load_dir, replay, CaseVerdict};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[test]
fn corpus_replays_byte_identically() {
    let cases = load_dir(&corpus_dir()).expect("corpus loads");
    assert!(
        cases.len() >= 10,
        "corpus unexpectedly small: {} cases",
        cases.len()
    );
    let mut failures = Vec::new();
    for case in &cases {
        match replay(case, None) {
            CaseVerdict::Pass { .. } => {}
            CaseVerdict::DigestDrift { want, got } => failures.push(format!(
                "{}: semantic drift — digest {got:#x} != golden {want:#x} \
                 (matrix still agrees; regenerate goldens if intentional)",
                case.name
            )),
            CaseVerdict::Diverged(d, _) => {
                failures.push(format!("{}: {d}", case.name));
            }
            CaseVerdict::Error(e) => failures.push(format!("{}: {e}", case.name)),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} corpus cases failed:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}

/// Every corpus case must carry a golden digest — a digest-less case is
/// an unresolved divergence reproducer, which must not linger unfixed.
#[test]
fn corpus_cases_all_have_goldens() {
    let cases = load_dir(&corpus_dir()).expect("corpus loads");
    let missing: Vec<&str> = cases
        .iter()
        .filter(|c| c.digest.is_none())
        .map(|c| c.name.as_str())
        .collect();
    assert!(missing.is_empty(), "digest-less corpus cases: {missing:?}");
}
