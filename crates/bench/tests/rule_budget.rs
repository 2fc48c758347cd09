//! Rule-instance budget for analysis: the rule instances both attribute
//! grammars run over the corpus `vif_digest.rs` pins (the full adder
//! example, sixteen seeded conform designs and the configuration
//! library), counted by `ag_bench::rule_instances`.
//!
//! A count of work does not move with the host, so a change that makes
//! attribute evaluation do more fails here even when the clock cannot
//! tell. The count is deterministic; the budget leaves a stated slack so
//! that a small grammar change does not need a re-pin, and a large one
//! does.

/// Rule instances over the corpus: 58,252 in the principal AG and 71,813
/// in the expression AG, 130,065 in all. While the principal AG built
/// every expression's token run a token at a time in a `TOKS` class, it
/// ran 87,376 (159,189 in all). The budget is the count plus 3%.
const BUDGET: u64 = 133_966;

#[test]
fn digest_corpus_rule_instance_budget() {
    let n = ag_bench::rule_instances(&ag_bench::digest_designs());
    assert!(
        n.total() <= BUDGET,
        "analyzing the digest corpus ran {} rule instances ({n:?}), budget {BUDGET}",
        n.total()
    );
}
