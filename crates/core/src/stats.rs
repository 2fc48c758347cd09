//! AG statistics — the numbers reported in the paper's §4.1 table
//! (productions, symbols, attributes, rules with implicit counts, max
//! visits).

use std::fmt;

use crate::attr::AttrGrammar;
use crate::deps::DepAnalysis;
use crate::visits::Plans;

/// Statistics of one attribute grammar, in the paper's format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AgStats {
    /// User productions (the augmentation production is not counted).
    pub productions: usize,
    /// Vocabulary symbols the user declared (terminals + nonterminals,
    /// excluding the augmentation goal and end-of-input marker).
    pub symbols: usize,
    /// Total attribute instances (sum over symbols of attached classes).
    pub attributes: usize,
    /// All semantic rules, explicit + implicit.
    pub rules: usize,
    /// How many of the rules were synthesized implicitly.
    pub implicit_rules: usize,
    /// Maximum number of visits to any symbol in the computed plan.
    pub max_visits: u32,
}

impl AgStats {
    /// Gathers statistics from a built AG and its plans.
    pub fn gather<V: Clone + 'static>(
        ag: &AttrGrammar<V>,
        _an: &DepAnalysis,
        plans: &Plans,
    ) -> AgStats {
        AgStats {
            productions: ag.grammar().n_user_prods(),
            symbols: ag.grammar().n_symbols() - 2, // minus __goal and $eof
            attributes: ag.n_attributes(),
            rules: ag.n_rules(),
            implicit_rules: ag.n_implicit_rules(),
            max_visits: plans.overall_max_visits(),
        }
    }

    /// Fraction of rules that are implicit — the paper claims "more than
    /// half" for their VHDL AGs.
    pub fn implicit_fraction(&self) -> f64 {
        if self.rules == 0 {
            0.0
        } else {
            self.implicit_rules as f64 / self.rules as f64
        }
    }
}

impl fmt::Display for AgStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "productions      {:>8}", self.productions)?;
        writeln!(f, "symbols          {:>8}", self.symbols)?;
        writeln!(f, "attributes       {:>8}", self.attributes)?;
        writeln!(
            f,
            "rules(implicit)  {:>8} ({})",
            self.rules, self.implicit_rules
        )?;
        write!(f, "max visits       {:>8}", self.max_visits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AgBuilder, Dep};
    use crate::deps::analyze;
    use crate::visits::plan;
    use ag_lalr::GrammarBuilder;
    use std::sync::Arc;

    #[test]
    fn gather_counts() {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        let t = g.nonterminal("t");
        g.prod(s, &[t.into(), t.into()], "s_tt");
        g.prod(t, &[a.into()], "t_a");
        g.start(s);
        let g = Arc::new(g.build().unwrap());
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let msgs = ab.syn_merge("MSGS", || 0, |x, y| x + y);
        ab.attach_all(msgs, [s, t]);
        let env = ab.inh("ENV");
        ab.attach_all(env, [s, t]);
        let p_t = g.prod_by_label("t_a").unwrap();
        ab.rule(p_t, 0, msgs, vec![Dep::attr(0, env)], |d| d[0]);
        let ag = ab.build().unwrap();
        let an = analyze(&ag).unwrap();
        let plans = plan(&ag, &an).unwrap();
        let st = AgStats::gather(&ag, &an, &plans);
        assert_eq!(st.productions, 2);
        assert_eq!(st.symbols, 3); // a, s, t
        assert_eq!(st.attributes, 4); // MSGS+ENV on s and t
        assert_eq!(st.rules, 4); // 1 explicit + merge + 2 env copies
        assert_eq!(st.implicit_rules, 3);
        assert!(st.implicit_fraction() > 0.5);
        assert_eq!(st.max_visits, 1);
        let text = st.to_string();
        assert!(text.contains("rules(implicit)"));
        assert!(text.contains("4 (3)"));
    }
}
