//! The principal and expression LALR tables are built once per process:
//! analyzers on different threads read the same grammar and table, and
//! only the attribute grammars and `STD.STANDARD` are built per thread.

use std::thread;

use vhdl_sem::analyze::Analyzer;
use vhdl_sem::env::EnvKind;
use vhdl_sem::expr_ag::{ExprAg, ExprTables};
use vhdl_syntax::PrincipalGrammar;

/// Both table types are plain data that any thread may read.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<PrincipalGrammar>();
    send_sync::<ExprTables>();
};

/// The tables an analyzer built on a fresh thread reads.
fn tables_on_fresh_thread() -> (&'static PrincipalGrammar, &'static ExprTables) {
    thread::spawn(|| {
        let analyzer = Analyzer::new(EnvKind::Tree);
        (analyzer.grammar, ExprAg::shared().tables)
    })
    .join()
    .expect("analyzer thread")
}

#[test]
fn two_threads_share_one_table_each() {
    let (pg1, xt1) = tables_on_fresh_thread();
    let (pg2, xt2) = tables_on_fresh_thread();
    assert!(std::ptr::eq(pg1, pg2), "principal tables built per thread");
    assert!(std::ptr::eq(xt1, xt2), "expression tables built per thread");
    assert!(std::ptr::eq(pg1, PrincipalGrammar::shared()));
    assert!(std::ptr::eq(xt1, ExprTables::shared()));
}

/// Analyzers on one thread share one `STD.STANDARD` per environment kind,
/// and the three kinds (the E7 ablation) keep three distinct ones.
#[test]
fn one_thread_shares_one_standard_per_env_kind() {
    let kinds = [EnvKind::List, EnvKind::Tree, EnvKind::MutBaseline];
    let stds: Vec<_> = kinds
        .iter()
        .map(|&kind| {
            let (a, b) = (Analyzer::new(kind), Analyzer::new(kind));
            assert!(
                std::rc::Rc::ptr_eq(&a.std, &b.std),
                "{kind:?}: STANDARD built per analyzer"
            );
            a.std
        })
        .collect();
    for (i, a) in stds.iter().enumerate() {
        for b in &stds[i + 1..] {
            assert!(!std::rc::Rc::ptr_eq(a, b), "two kinds share one STANDARD");
        }
    }
}
