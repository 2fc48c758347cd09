//! The principal and expression LALR tables and both attribute grammars
//! are built once per process: analyzers on different threads read the
//! same grammar, table and AG, and only `STD.STANDARD`, whose nodes are
//! `Rc`, is built per thread.

use std::thread;

use ag_core::AttrGrammar;
use vhdl_sem::analyze::Analyzer;
use vhdl_sem::env::EnvKind;
use vhdl_sem::expr_ag::{ExprAg, ExprTables};
use vhdl_sem::principal_ag::PrincipalAg;
use vhdl_sem::value::Value;
use vhdl_syntax::PrincipalGrammar;

/// The tables and attribute grammars are data that any thread may read.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<PrincipalGrammar>();
    send_sync::<ExprTables>();
    send_sync::<AttrGrammar<Value>>();
    send_sync::<PrincipalAg>();
    send_sync::<ExprAg<'static>>();
};

/// What an analyzer built on a fresh thread reads.
struct Shared {
    pg: &'static PrincipalGrammar,
    xt: &'static ExprTables,
    pag: &'static PrincipalAg,
    xag: &'static ExprAg<'static>,
}

fn shared_on_fresh_thread() -> Shared {
    thread::spawn(|| {
        let analyzer = Analyzer::new(EnvKind::Tree);
        let xag = ExprAg::shared();
        Shared {
            pg: analyzer.grammar,
            xt: xag.tables,
            pag: analyzer.pag,
            xag,
        }
    })
    .join()
    .expect("analyzer thread")
}

#[test]
fn two_threads_share_one_table_each() {
    let (a, b) = (shared_on_fresh_thread(), shared_on_fresh_thread());
    assert!(
        std::ptr::eq(a.pg, b.pg),
        "principal tables built per thread"
    );
    assert!(
        std::ptr::eq(a.xt, b.xt),
        "expression tables built per thread"
    );
    assert!(std::ptr::eq(a.pg, PrincipalGrammar::shared()));
    assert!(std::ptr::eq(a.xt, ExprTables::shared()));
    assert!(std::ptr::eq(a.pag, b.pag), "principal AG built per thread");
    assert!(std::ptr::eq(a.xag, b.xag), "expression AG built per thread");
    assert!(std::ptr::eq(a.pag, PrincipalAg::shared()));
    assert!(std::ptr::eq(a.xag, ExprAg::shared()));
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
