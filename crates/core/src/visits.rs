//! Visit-sequence computation for ordered attribute grammars.
//!
//! From the induced dependencies of [`crate::deps`], every attribute of a
//! symbol is assigned a **visit number**: the tree-walking evaluator visits
//! each node `K(X)` times, where visit `v` first receives the inherited
//! attributes with number `v` and finally yields the synthesized attributes
//! with number `v`. A **visit sequence** (plan) per production schedules
//! rule evaluations and child visits consistently with every dependency —
//! the static evaluation order a tool like Linguist generates, and the
//! source of the paper's "max visits" statistic (§4.1, §5.3).

use std::collections::HashMap;
use std::fmt;

use ag_lalr::{ProdId, SymbolId};

use crate::attr::{AttrDir, AttrGrammar, ClassId, Dep};
use crate::deps::DepAnalysis;

/// One step of a production's visit sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanOp {
    /// Evaluate rule `rule_idx` of the production.
    Eval(usize),
    /// Perform visit `visit` (1-based) of the RHS child at occurrence
    /// `occ` (1-based).
    Visit {
        /// RHS occurrence (1-based).
        occ: usize,
        /// Visit number (1-based).
        visit: u32,
    },
}

/// Visit sequences for an entire attribute grammar.
#[derive(Clone, Debug)]
pub struct Plans {
    /// `visit_of[symbol_index]` — visit number per attached class, in
    /// attach order (parallel to `AttrGrammar::attrs_of`).
    pub visit_of: Vec<Vec<u32>>,
    /// `max_visits[symbol_index]`.
    pub max_visits: Vec<u32>,
    /// `seq[prod_index][segment]` — plan ops for each visit segment
    /// (segment `v-1` runs during visit `v` of the LHS).
    pub seq: Vec<Vec<Vec<PlanOp>>>,
}

impl Plans {
    /// Visit number of `(symbol, class)`.
    pub fn visit_number<V: Clone + 'static>(
        &self,
        ag: &AttrGrammar<V>,
        symbol: SymbolId,
        class: ClassId,
    ) -> Option<u32> {
        let slot = ag.slot(symbol, class)?;
        self.visit_of[symbol.index()].get(slot).copied()
    }

    /// `true` when a plan may visit `B`'s node in the place of `A`'s for
    /// the production `p = A → B` (one symbol on its right): both symbols
    /// take the same number of visits and every class of `A` has the same
    /// visit number on `B`. A tree that leaves out the nodes of
    /// transparent productions ([`AttrGrammar::transparent`]) evaluates
    /// under the plans as the full tree does when this holds for every
    /// production it leaves out.
    pub fn keeps_visits<V: Clone + 'static>(&self, ag: &AttrGrammar<V>, p: ProdId) -> bool {
        let g = ag.grammar();
        let [b] = *g.rhs(p) else {
            return false;
        };
        let a = g.lhs(p);
        self.max_visits[a.index()] == self.max_visits[b.index()]
            && ag
                .attrs_of(a)
                .iter()
                .all(|&c| self.visit_number(ag, a, c) == self.visit_number(ag, b, c))
    }

    /// Maximum visits over all symbols — the paper's "max visits" row.
    pub fn overall_max_visits(&self) -> u32 {
        self.max_visits.iter().copied().max().unwrap_or(1)
    }
}

/// The AG admits no consistent visit sequence under the computed
/// partition (it is not *ordered* in Kastens' sense).
#[derive(Clone, Debug)]
pub struct NotOrderedError {
    /// Production for which scheduling failed.
    pub prod: String,
    /// Explanation.
    pub why: String,
}

impl fmt::Display for NotOrderedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attribute grammar is not ordered: production [{}]: {}",
            self.prod, self.why
        )
    }
}

impl std::error::Error for NotOrderedError {}

/// Computes visit numbers and visit sequences.
///
/// # Errors
///
/// Returns [`NotOrderedError`] when no consistent schedule exists for some
/// production under the attribute partition induced by the dependency
/// analysis.
pub fn plan<V: Clone + 'static>(
    ag: &AttrGrammar<V>,
    an: &DepAnalysis,
) -> Result<Plans, NotOrderedError> {
    let g = ag.grammar();
    let n_sym = g.n_symbols();

    // ---- Phase 1: visit numbers per symbol -------------------------------
    // Over the induced dependency DAG of each symbol:
    //   inherited a: v(a) = max(1, v(p) for inh preds, v(p)+1 for syn preds)
    //   synthesized a: v(a) = max(1, v(p) for all preds)
    // computed as a fixpoint (the per-symbol graphs are acyclic after
    // `deps::analyze` succeeded, so this terminates).
    let mut visit_of: Vec<Vec<u32>> = (0..n_sym)
        .map(|si| vec![1u32; ag.attrs_of(SymbolId::from_index(si)).len()])
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (si, visits) in visit_of.iter_mut().enumerate() {
            let sym = SymbolId::from_index(si);
            for &(a, b) in &an.ids[si] {
                let (sa, sb) = (
                    ag.slot(sym, a).expect("ids over attached attrs"),
                    ag.slot(sym, b).expect("ids over attached attrs"),
                );
                let bump = match (ag.dir(a), ag.dir(b)) {
                    // syn → inh forces the inherited attr into a later
                    // visit; every other direction may share a visit.
                    (AttrDir::Synthesized, AttrDir::Inherited) => 1,
                    _ => 0,
                };
                let need = visits[sa] + bump;
                if visits[sb] < need {
                    visits[sb] = need;
                    changed = true;
                }
            }
        }
    }
    let max_visits: Vec<u32> = (0..n_sym)
        .map(|si| visit_of[si].iter().copied().max().unwrap_or(1))
        .collect();

    // ---- Phase 2: visit sequences per production -------------------------
    let mut seq = Vec::with_capacity(g.n_prods());
    for p in g.prod_ids() {
        seq.push(schedule(ag, p, &visit_of, &max_visits)?);
    }

    Ok(Plans {
        visit_of,
        max_visits,
        seq,
    })
}

/// Items being scheduled for one production.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Item {
    Eval(usize),
    Visit(usize, u32),
}

fn schedule<V: Clone + 'static>(
    ag: &AttrGrammar<V>,
    p: ProdId,
    visit_of: &[Vec<u32>],
    max_visits: &[u32],
) -> Result<Vec<Vec<PlanOp>>, NotOrderedError> {
    let g = ag.grammar();
    let lhs = g.lhs(p);
    let lhs_k = max_visits[lhs.index()].max(1);
    let fail = |why: String| NotOrderedError {
        prod: g.prod_label(p).to_string(),
        why,
    };

    let vnum = |sym: SymbolId, c: ClassId| -> u32 {
        let slot = ag.slot(sym, c).expect("attr attached");
        visit_of[sym.index()][slot]
    };

    // Collect items.
    let rules = ag.rules(p);
    let mut items: Vec<Item> = (0..rules.len()).map(Item::Eval).collect();
    let rhs = g.rhs(p);
    for (i, &sym) in rhs.iter().enumerate() {
        if !g.is_terminal(sym) && !ag.attrs_of(sym).is_empty() {
            for v in 1..=max_visits[sym.index()] {
                items.push(Item::Visit(i + 1, v));
            }
        }
    }
    let index: HashMap<Item, usize> = items.iter().enumerate().map(|(i, &it)| (it, i)).collect();
    let n = items.len();

    // Edges and per-item lower bound on segment.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut lower: Vec<u32> = vec![1; n];

    for (ri, r) in rules.iter().enumerate() {
        let eval = index[&Item::Eval(ri)];
        // Dependencies of the rule.
        for d in &r.deps {
            match *d {
                Dep::Attr(0, c) if ag.dir(c) == crate::attr::AttrDir::Synthesized => {
                    // A sibling rule of this production computes it: order
                    // the two evaluations.
                    if let Some(src) = ag.rule_index(p, 0, c) {
                        let from = index[&Item::Eval(src)];
                        edges[from].push(eval);
                    }
                }
                Dep::Attr(0, c) => {
                    // LHS inherited input of visit v — this rule can only
                    // run during or after segment v.
                    lower[eval] = lower[eval].max(vnum(lhs, c));
                }
                Dep::Attr(occ, c) => {
                    // Child synthesized output — available after the
                    // child's visit v(c).
                    let sym = rhs[occ - 1];
                    let v = vnum(sym, c);
                    let from = index[&Item::Visit(occ, v)];
                    edges[from].push(eval);
                }
                Dep::Token(_) | Dep::Leaves(_) => {}
            }
        }
        // Targets of the rule.
        if r.target_occ >= 1 {
            // Child inherited attr: must be ready before the child's visit
            // v(target).
            let sym = rhs[r.target_occ - 1];
            let v = vnum(sym, r.class);
            let to = index[&Item::Visit(r.target_occ, v)];
            edges[eval].push(to);
        }
    }
    // Visit(i, v) must precede Visit(i, v+1).
    for (i, &sym) in rhs.iter().enumerate() {
        if !g.is_terminal(sym) && !ag.attrs_of(sym).is_empty() {
            for v in 1..max_visits[sym.index()] {
                edges[index[&Item::Visit(i + 1, v)]].push(index[&Item::Visit(i + 1, v + 1)]);
            }
        }
    }

    // Longest-path segment assignment over the item DAG (topological).
    let mut indegree = vec![0usize; n];
    for es in &edges {
        for &to in es {
            indegree[to] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut seg = lower.clone();
    let mut done = 0usize;
    while let Some(u) = queue.pop() {
        done += 1;
        for &v in &edges[u] {
            seg[v] = seg[v].max(seg[u]);
            indegree[v] -= 1;
            if indegree[v] == 0 {
                queue.push(v);
            }
        }
    }
    if done != n {
        return Err(fail("cycle among plan items".to_string()));
    }

    // Upper-bound check: a rule computing an LHS synthesized attribute of
    // visit v must be schedulable in segment ≤ v.
    for (ri, r) in rules.iter().enumerate() {
        if r.target_occ == 0 {
            let v = vnum(lhs, r.class);
            let s = seg[index[&Item::Eval(ri)]];
            if s > v {
                return Err(fail(format!(
                    "rule for 0.{} needed in visit {v} but only ready in visit {s}",
                    ag.class_name(r.class)
                )));
            }
            // Pin it into its visit segment so the parent sees it on time.
            // (Scheduling it earlier than `s` is impossible; later than `v`
            // is wrong; anywhere in [s, v] works — use v.)
        }
    }

    // Emit ops into segments in topological order. Within a segment, order
    // follows the topological order computed above (stable by repeated
    // Kahn passes per segment).
    let mut segments: Vec<Vec<PlanOp>> = vec![Vec::new(); lhs_k as usize];
    // Recompute a full topological order (Kahn, deterministic by index).
    let mut indegree = vec![0usize; n];
    for es in &edges {
        for &to in es {
            indegree[to] += 1;
        }
    }
    let mut ready: std::collections::BTreeSet<usize> =
        (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut topo = Vec::with_capacity(n);
    while let Some(&u) = ready.iter().next() {
        ready.remove(&u);
        topo.push(u);
        for &v in &edges[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                ready.insert(v);
            }
        }
    }
    for &u in &topo {
        let s = seg[u].min(lhs_k) as usize;
        let op = match items[u] {
            Item::Eval(ri) => PlanOp::Eval(ri),
            Item::Visit(occ, v) => PlanOp::Visit { occ, visit: v },
        };
        segments[s - 1].push(op);
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AgBuilder, AttrDir, Dep, Implicit};
    use crate::deps::analyze;
    use ag_lalr::GrammarBuilder;
    use std::sync::Arc;

    /// Knuth's binary-number AG shape: L.scale (inh) depends on L.len (syn)
    /// at the parent, forcing two visits to L.
    fn knuthish() -> (Arc<ag_lalr::Grammar>, AttrGrammar<i64>) {
        let mut g = GrammarBuilder::new();
        let bit = g.terminal("bit");
        let n = g.nonterminal("n");
        let l = g.nonterminal("l");
        g.prod(n, &[l.into()], "n_l");
        g.prod(l, &[l.into(), bit.into()], "l_rec");
        g.prod(l, &[bit.into()], "l_bit");
        g.start(n);
        let g = Arc::new(g.build().unwrap());
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let len = ab.class("LEN", AttrDir::Synthesized, Implicit::None);
        let scale = ab.class("SCALE", AttrDir::Inherited, Implicit::None);
        let val = ab.class("VAL", AttrDir::Synthesized, Implicit::None);
        let ln = g.symbol("l").unwrap();
        let nn = g.symbol("n").unwrap();
        ab.attach(len, ln);
        ab.attach(scale, ln);
        ab.attach(val, ln);
        ab.attach(val, nn);
        let p_nl = g.prod_by_label("n_l").unwrap();
        let p_rec = g.prod_by_label("l_rec").unwrap();
        let p_bit = g.prod_by_label("l_bit").unwrap();
        // n ::= l : l.SCALE = 0; n.VAL = l.VAL  (scale needs l.LEN in
        // Knuth's fraction variant; emulate the syn→inh dependency).
        ab.rule(p_nl, 1, scale, vec![Dep::attr(1, len)], |d| -d[0]);
        ab.rule(p_nl, 0, val, vec![Dep::attr(1, val)], |d| d[0]);
        // l ::= l bit
        ab.rule(p_rec, 0, len, vec![Dep::attr(1, len)], |d| d[0] + 1);
        ab.rule(p_rec, 1, scale, vec![Dep::attr(0, scale)], |d| d[0] + 1);
        ab.rule(
            p_rec,
            0,
            val,
            vec![Dep::attr(1, val), Dep::token(2), Dep::attr(0, scale)],
            |d| d[0] + d[1] * (1 << d[2].max(0)),
        );
        // l ::= bit
        ab.rule(p_bit, 0, len, vec![], |_| 1);
        ab.rule(
            p_bit,
            0,
            val,
            vec![Dep::token(1), Dep::attr(0, scale)],
            |d| d[0] * (1 << d[1].max(0)),
        );
        let ag = ab.build().unwrap();
        (g, ag)
    }

    #[test]
    fn two_visits_for_l() {
        let (g, ag) = knuthish();
        let an = analyze(&ag).unwrap();
        let plans = plan(&ag, &an).unwrap();
        let l = g.symbol("l").unwrap();
        let n = g.symbol("n").unwrap();
        assert_eq!(plans.max_visits[l.index()], 2);
        assert_eq!(plans.max_visits[n.index()], 1);
        assert_eq!(plans.overall_max_visits(), 2);
        // LEN is computed in visit 1, SCALE and VAL in visit 2.
        let len = ag.class_by_name("LEN").unwrap();
        let scale = ag.class_by_name("SCALE").unwrap();
        let val = ag.class_by_name("VAL").unwrap();
        assert_eq!(plans.visit_number(&ag, l, len), Some(1));
        assert_eq!(plans.visit_number(&ag, l, scale), Some(2));
        assert_eq!(plans.visit_number(&ag, l, val), Some(2));
    }

    #[test]
    fn plan_orders_visits_before_dependent_rules() {
        let (g, ag) = knuthish();
        let an = analyze(&ag).unwrap();
        let plans = plan(&ag, &an).unwrap();
        let p_nl = g.prod_by_label("n_l").unwrap();
        // Production n ::= l (1 LHS visit): its single segment must visit
        // the child twice and evaluate SCALE between the visits.
        let seg = &plans.seq[p_nl.index()][0];
        let pos = |op: PlanOp| seg.iter().position(|&o| o == op).unwrap();
        let v1 = pos(PlanOp::Visit { occ: 1, visit: 1 });
        let v2 = pos(PlanOp::Visit { occ: 1, visit: 2 });
        assert!(v1 < v2);
        // The SCALE rule (index 0 in our rule list) sits between them.
        let scale_rule = pos(PlanOp::Eval(0));
        assert!(v1 < scale_rule && scale_rule < v2);
    }

    #[test]
    fn single_visit_simple_ag() {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        g.prod(s, &[a.into()], "s_a");
        g.start(s);
        let g = Arc::new(g.build().unwrap());
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let v = ab.class("V", AttrDir::Synthesized, Implicit::None);
        ab.attach(v, g.symbol("s").unwrap());
        let p = g.prod_by_label("s_a").unwrap();
        ab.rule(p, 0, v, vec![], |_| 42);
        let ag = ab.build().unwrap();
        let an = analyze(&ag).unwrap();
        let plans = plan(&ag, &an).unwrap();
        assert_eq!(plans.overall_max_visits(), 1);
        assert_eq!(plans.seq[p.index()].len(), 1);
        assert_eq!(plans.seq[p.index()][0], vec![PlanOp::Eval(0)]);
    }
}
