//! Plan-driven evaluator: executes the static visit sequences computed by
//! [`crate::visits`] — the evaluation regime of a generated evaluator like
//! Linguist's, where "the attribute evaluator generator schedules
//! evaluation of rules … only when such information is known to be
//! available" (§4.3).

use ag_lalr::{NodeId, ParseTree};

use crate::attr::{AttrGrammar, ClassId, Dep};
use crate::eval_demand::EvalError;
use crate::visits::{PlanOp, Plans};

/// Executes visit sequences over one parse tree.
pub struct PlanEval<'a, V, T = V> {
    ag: &'a AttrGrammar<V>,
    plans: &'a Plans,
    tree: &'a ParseTree<T>,
    attrs: Vec<Vec<Option<V>>>,
    n_rule_evals: usize,
    n_visits: usize,
}

impl<'a, V: Clone + 'static, T: Clone + Into<V>> PlanEval<'a, V, T> {
    /// Creates the evaluator.
    pub fn new(ag: &'a AttrGrammar<V>, plans: &'a Plans, tree: &'a ParseTree<T>) -> Self {
        let attrs = (0..tree.len())
            .map(|n| vec![None; ag.attrs_of(tree.symbol(n)).len()])
            .collect();
        PlanEval {
            ag,
            plans,
            tree,
            attrs,
            n_rule_evals: 0,
            n_visits: 0,
        }
    }

    /// Runs all visits of the root, with `root_inh` supplying the root's
    /// inherited attributes before the visit in which each is needed.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] for missing tokens or inputs (a correctly
    /// planned AG never hits a missing intermediate value).
    pub fn run(&mut self, root_inh: Vec<(ClassId, V)>) -> Result<(), EvalError> {
        let root = self.tree.root();
        let sym = self.tree.symbol(root);
        for (c, v) in root_inh {
            if let Some(slot) = self.ag.slot(sym, c) {
                self.attrs[root][slot] = Some(v);
            }
        }
        for visit in 1..=self.plans.max_visits[sym.index()] {
            self.visit(root, visit)?;
        }
        Ok(())
    }

    /// Reads a computed attribute (after [`PlanEval::run`]).
    pub fn value(&self, node: NodeId, class: ClassId) -> Result<V, EvalError> {
        let sym = self.tree.symbol(node);
        let slot = self
            .ag
            .slot(sym, class)
            .ok_or_else(|| EvalError::NotAttached {
                node,
                class: self.ag.class_name(class).to_string(),
            })?;
        self.attrs[node][slot]
            .clone()
            .ok_or_else(|| EvalError::MissingInput {
                node,
                class: self.ag.class_name(class).to_string(),
            })
    }

    /// Reads a goal attribute of the root.
    pub fn root_value(&self, class: ClassId) -> Result<V, EvalError> {
        self.value(self.tree.root(), class)
    }

    /// Total semantic-rule invocations.
    pub fn n_rule_evals(&self) -> usize {
        self.n_rule_evals
    }

    /// Total node visits performed.
    pub fn n_visits(&self) -> usize {
        self.n_visits
    }

    fn visit(&mut self, node: NodeId, visit: u32) -> Result<(), EvalError> {
        self.n_visits += 1;
        let prod = self.tree.prod(node).expect("visit only interior nodes");
        let plans = self.plans;
        for &op in &plans.seq[prod.index()][(visit - 1) as usize] {
            match op {
                PlanOp::Eval(ri) => self.eval_rule(node, prod, ri)?,
                PlanOp::Visit { occ, visit } => {
                    let child = self.tree.child(node, occ);
                    self.visit(child, visit)?;
                }
            }
        }
        Ok(())
    }

    fn eval_rule(
        &mut self,
        node: NodeId,
        prod: ag_lalr::ProdId,
        ri: usize,
    ) -> Result<(), EvalError> {
        let rule = &self.ag.rules(prod)[ri];
        let occ_node = |occ| self.tree.occurrence(node, occ);
        let mut args = Vec::with_capacity(rule.deps.len());
        for d in &rule.deps {
            match *d {
                Dep::Attr(occ, c) => {
                    let dn = occ_node(occ);
                    let sym = self.tree.symbol(dn);
                    let slot = self.ag.slot(sym, c).expect("validated dep");
                    args.push(self.attrs[dn][slot].clone().ok_or_else(|| {
                        EvalError::MissingInput {
                            node: dn,
                            class: self.ag.class_name(c).to_string(),
                        }
                    })?);
                }
                Dep::Token(occ) => {
                    let leaf = occ_node(occ);
                    args.push(
                        self.tree
                            .token(leaf)
                            .map(|t| t.clone().into())
                            .ok_or(EvalError::MissingToken { node: leaf })?,
                    );
                }
                Dep::Leaves(occ) => args.push(self.ag.leaf_run(self.tree.leaves_of(occ_node(occ)))),
            }
        }
        let v = rule.apply(&args);
        self.n_rule_evals += 1;
        let tn = occ_node(rule.target_occ);
        let sym = self.tree.symbol(tn);
        let slot = self.ag.slot(sym, rule.class).expect("validated target");
        self.attrs[tn][slot] = Some(v);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AgBuilder, AttrDir, Dep, Implicit};
    use crate::deps::analyze;
    use crate::visits::plan;
    use ag_lalr::{GrammarBuilder, ParseTable, Parser, Token};
    use std::sync::Arc;

    /// The same Knuth-style AG as the demand evaluator test; the plan
    /// evaluator must produce identical values with a 2-visit schedule.
    #[test]
    fn plan_matches_demand_on_knuth_ag() {
        let mut g = GrammarBuilder::new();
        let bit = g.terminal("bit");
        let l = g.nonterminal("l");
        let n = g.nonterminal("n");
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
        // Fraction-style: scale of the list = -len (forces syn→inh).
        ab.rule(p_nl, 1, scale, vec![Dep::attr(1, len)], |d| -d[0]);
        ab.rule(p_nl, 0, val, vec![Dep::attr(1, val)], |d| d[0]);
        ab.rule(p_rec, 0, len, vec![Dep::attr(1, len)], |d| d[0] + 1);
        ab.rule(p_rec, 1, scale, vec![Dep::attr(0, scale)], |d| d[0] + 1);
        ab.rule(
            p_rec,
            0,
            val,
            vec![Dep::attr(1, val), Dep::token(2), Dep::attr(0, scale)],
            |d| d[0] + d[1] * (1 << (d[2] + 8)),
        );
        ab.rule(p_bit, 0, len, vec![], |_| 1);
        ab.rule(
            p_bit,
            0,
            val,
            vec![Dep::token(1), Dep::attr(0, scale)],
            |d| d[0] * (1 << (d[1] + 8)),
        );
        let ag = ab.build().unwrap();
        let an = analyze(&ag).unwrap();
        let plans = plan(&ag, &an).unwrap();
        let table = ParseTable::build(&g).unwrap();
        let parser = Parser::new(&g, &table);
        for bits in [vec![1i64], vec![1, 0, 1], vec![0, 1, 1, 0, 1]] {
            let at = parser
                .parse(bits.iter().map(|&b| Token::new(bit, b)))
                .unwrap();
            let mut pe = PlanEval::new(&ag, &plans, &at);
            pe.run(vec![]).unwrap();
            let de = crate::eval_demand::DemandEval::new(&ag, &at, vec![]);
            assert_eq!(
                pe.root_value(val).unwrap(),
                de.root_value(val).unwrap(),
                "bits {bits:?}"
            );
            assert!(pe.n_rule_evals() >= de.n_rule_evals());
            assert!(pe.n_visits() > 0);
        }
    }
}
