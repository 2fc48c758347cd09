//! Dependency analysis: production-local dependency graphs, induced
//! symbol dependencies, and the circularity test.
//!
//! The evaluator generator "needs the dependency information for every
//! symbol and production in order to find an evaluation order" (§5.2).
//! This module computes, by fixpoint, the *induced dependency relation*
//! `IDS(X)` over the attributes of each symbol: `(a, b) ∈ IDS(X)` when in
//! some derivation the value of `X.b` transitively depends on `X.a`
//! through rules above or below `X`. A cycle in any production's completed
//! graph means the AG is (potentially) circular, and is reported with the
//! production and attributes involved — the paper notes that diagnosing
//! such circularities "usually requires … the global dependency structure
//! of the AG", which is exactly what this analysis materializes.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use ag_lalr::ProdId;

use crate::attr::{AttrGrammar, ClassId, Dep};

/// A node of a production-local dependency graph: attribute `class` of
/// occurrence `occ` (0 = LHS).
pub type OccAttr = (usize, ClassId);

/// Result of dependency analysis.
#[derive(Clone, Debug)]
pub struct DepAnalysis {
    /// `ids[symbol_index]` — induced dependencies between attributes of the
    /// symbol (pairs `(from, to)`).
    pub ids: Vec<BTreeSet<(ClassId, ClassId)>>,
    /// Completed (local ∪ induced, transitively closed) graphs per
    /// production, as edge sets over [`OccAttr`] nodes.
    pub closed: Vec<BTreeSet<(OccAttr, OccAttr)>>,
}

/// A detected circularity.
#[derive(Clone, Debug)]
pub struct CircularityError {
    /// Production whose completed graph has a cycle.
    pub prod: String,
    /// One attribute occurrence on the cycle, as `occ.CLASS`.
    pub witness: String,
}

impl fmt::Display for CircularityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attribute grammar is circular: cycle through {} in production [{}]",
            self.witness, self.prod
        )
    }
}

impl std::error::Error for CircularityError {}

/// Computes induced dependencies for `ag`.
///
/// # Errors
///
/// Returns [`CircularityError`] if any production's completed dependency
/// graph contains a cycle (the AG fails the strong non-circularity test).
pub fn analyze<V: Clone + 'static>(ag: &AttrGrammar<V>) -> Result<DepAnalysis, CircularityError> {
    let g = ag.grammar();
    let n_sym = g.n_symbols();
    let mut ids: Vec<BTreeSet<(ClassId, ClassId)>> = vec![BTreeSet::new(); n_sym];

    // Local edges per production (fixed).
    let mut local: Vec<Vec<(OccAttr, OccAttr)>> = Vec::with_capacity(g.n_prods());
    for p in g.prod_ids() {
        let mut edges = Vec::new();
        for r in ag.rules(p) {
            for d in &r.deps {
                if let Dep::Attr(occ, c) = *d {
                    edges.push(((occ, c), (r.target_occ, r.class)));
                }
            }
        }
        local.push(edges);
    }

    let occ_symbol = |p: ProdId, occ: usize| {
        if occ == 0 {
            g.lhs(p)
        } else {
            g.rhs(p)[occ - 1]
        }
    };

    let mut closed: Vec<BTreeSet<(OccAttr, OccAttr)>> = vec![BTreeSet::new(); g.n_prods()];
    let mut changed = true;
    while changed {
        changed = false;
        for p in g.prod_ids() {
            // Completed graph: local edges + induced edges instantiated at
            // every occurrence.
            let mut edges: BTreeSet<(OccAttr, OccAttr)> =
                local[p.index()].iter().copied().collect();
            let n_occ = g.rhs(p).len() + 1;
            for occ in 0..n_occ {
                let sym = occ_symbol(p, occ);
                for &(a, b) in &ids[sym.index()] {
                    edges.insert(((occ, a), (occ, b)));
                }
            }
            // Transitive closure over the (small) node set.
            let nodes: BTreeSet<OccAttr> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
            let nodes: Vec<OccAttr> = nodes.into_iter().collect();
            let idx: HashMap<OccAttr, usize> =
                nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            let n = nodes.len();
            let mut reach = vec![false; n * n];
            for &(u, v) in &edges {
                reach[idx[&u] * n + idx[&v]] = true;
            }
            // Floyd–Warshall style closure.
            for k in 0..n {
                for i in 0..n {
                    if reach[i * n + k] {
                        for j in 0..n {
                            if reach[k * n + j] && !reach[i * n + j] {
                                reach[i * n + j] = true;
                            }
                        }
                    }
                }
            }
            // Cycle check.
            for i in 0..n {
                if reach[i * n + i] {
                    let (occ, c) = nodes[i];
                    return Err(CircularityError {
                        prod: g.prod_label(p).to_string(),
                        witness: format!("{occ}.{}", ag.class_name(c)),
                    });
                }
            }
            // Record closure and project onto occurrences.
            let mut full = BTreeSet::new();
            for i in 0..n {
                for j in 0..n {
                    if reach[i * n + j] {
                        full.insert((nodes[i], nodes[j]));
                    }
                }
            }
            for &((occ_u, a), (occ_v, b)) in &full {
                if occ_u == occ_v {
                    let sym = occ_symbol(p, occ_u);
                    if ids[sym.index()].insert((a, b)) {
                        changed = true;
                    }
                }
            }
            closed[p.index()] = full;
        }
    }

    Ok(DepAnalysis { ids, closed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AgBuilder, AttrDir, Dep, Implicit};
    use ag_lalr::GrammarBuilder;
    use std::sync::Arc;

    /// s ::= t ; t ::= a — with t.OUT depending on t.IN, and at the parent
    /// s's rule wiring t.IN from t.OUT we'd get a cycle.
    fn base() -> Arc<ag_lalr::Grammar> {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        let t = g.nonterminal("t");
        g.prod(s, &[t.into()], "s_t");
        g.prod(t, &[a.into()], "t_a");
        g.start(s);
        Arc::new(g.build().unwrap())
    }

    #[test]
    fn induced_dependency_found() {
        let g = base();
        let t = g.symbol("t").unwrap();
        let p_t = g.prod_by_label("t_a").unwrap();
        let p_s = g.prod_by_label("s_t").unwrap();
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let input = ab.class("IN", AttrDir::Inherited, Implicit::None);
        let out = ab.class("OUT", AttrDir::Synthesized, Implicit::None);
        ab.attach(input, t);
        ab.attach(out, t);
        let s = g.symbol("s").unwrap();
        ab.attach(out, s);
        ab.rule(p_t, 0, out, vec![Dep::attr(0, input)], |d| d[0] + 1);
        ab.rule(p_s, 1, input, vec![], |_| 0);
        ab.rule(p_s, 0, out, vec![Dep::attr(1, out)], |d| d[0]);
        let ag = ab.build().unwrap();
        let an = analyze(&ag).unwrap();
        assert!(an.ids[t.index()].contains(&(input, out)));
    }

    #[test]
    fn circularity_detected() {
        let g = base();
        let t = g.symbol("t").unwrap();
        let s = g.symbol("s").unwrap();
        let p_t = g.prod_by_label("t_a").unwrap();
        let p_s = g.prod_by_label("s_t").unwrap();
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let input = ab.class("IN", AttrDir::Inherited, Implicit::None);
        let out = ab.class("OUT", AttrDir::Synthesized, Implicit::None);
        ab.attach(input, t);
        ab.attach(out, t);
        ab.attach(out, s);
        // t.OUT = f(t.IN) below; s's production feeds t.OUT back into t.IN.
        ab.rule(p_t, 0, out, vec![Dep::attr(0, input)], |d| d[0] + 1);
        ab.rule(p_s, 1, input, vec![Dep::attr(1, out)], |d| d[0]);
        ab.rule(p_s, 0, out, vec![Dep::attr(1, out)], |d| d[0]);
        let ag = ab.build().unwrap();
        let err = analyze(&ag).unwrap_err();
        assert!(err.to_string().contains("circular"));
        // The cycle may be reported in either production: locally in s_t,
        // or in t_a once the context-induced OUT→IN edge joins the local
        // IN→OUT edge at t's defining production.
        assert!(err.prod == "s_t" || err.prod == "t_a", "got {}", err.prod);
    }

    #[test]
    fn acyclic_has_closed_graphs() {
        let g = base();
        let t = g.symbol("t").unwrap();
        let s = g.symbol("s").unwrap();
        let p_t = g.prod_by_label("t_a").unwrap();
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let out = ab.class("OUT", AttrDir::Synthesized, Implicit::Copy);
        ab.attach(out, t);
        ab.attach(out, s);
        ab.rule(p_t, 0, out, vec![], |_| 1);
        let ag = ab.build().unwrap();
        let an = analyze(&ag).unwrap();
        assert!(an.ids[t.index()].is_empty());
        assert!(an.ids[s.index()].is_empty());
        assert_eq!(an.closed.len(), g.n_prods());
    }
}
