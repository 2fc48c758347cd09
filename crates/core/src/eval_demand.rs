//! Demand-driven (lazy, memoizing) attribute evaluator.
//!
//! Works for every non-circular AG regardless of orderedness; used as the
//! production evaluator in the compiler, and as the semantic baseline the
//! plan evaluator is property-tested against.
//!
//! Rules run in demand order, exactly as a naive memoising evaluator would
//! run them; what makes it cheap is the representation. Rule and slot
//! lookups are dense-table reads, attribute instances live in one arena,
//! rule arguments share one stack, and an implicit copy rule forwards to
//! its source without a call.

use std::cell::{Cell, RefCell};
use std::fmt;

use ag_lalr::{NodeId, ParseTree};

use crate::attr::{AttrDir, AttrGrammar, ClassId, Dep, RuleFunc};

/// Errors during demand evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A dynamic dependency cycle was hit (possible when the grammar was
    /// not statically checked).
    Cycle {
        /// Node where the cycle closed.
        node: NodeId,
        /// Attribute class name.
        class: String,
    },
    /// No rule defines the demanded attribute (an inherited attribute of
    /// the root that was not supplied as an input).
    MissingInput {
        /// Node demanded.
        node: NodeId,
        /// Attribute class name.
        class: String,
    },
    /// The demanded class is not attached to the node's symbol.
    NotAttached {
        /// Node demanded.
        node: NodeId,
        /// Attribute class name.
        class: String,
    },
    /// A rule demanded a token value that the leaf does not carry.
    MissingToken {
        /// Leaf node.
        node: NodeId,
    },
    /// Demands nested deeper than [`MAX_DEPTH`] on this thread.
    TooDeep {
        /// Node whose demand would have gone one level too deep.
        node: NodeId,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Cycle { node, class } => {
                write!(f, "dynamic attribute cycle at node {node} on {class}")
            }
            EvalError::MissingInput { node, class } => {
                write!(
                    f,
                    "no value for inherited {class} at node {node} (root input missing?)"
                )
            }
            EvalError::NotAttached { node, class } => {
                write!(f, "attribute {class} not attached to symbol of node {node}")
            }
            EvalError::MissingToken { node } => write!(f, "node {node} carries no token value"),
            EvalError::TooDeep { .. } => {
                write!(f, "nesting too deep to analyze (over {MAX_DEPTH} levels)")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Demands in progress at once on one thread, over every evaluator on it
/// (a cascade's evaluators run inside an outer rule's demand). Demand
/// recursion follows the tree; past the bound a demand fails with
/// [`EvalError::TooDeep`] instead of overflowing the stack. A level takes
/// about 2,240 bytes of stack in a debug build, so the bound stays within
/// half of the 128 MiB `ag_harness::pool::STACK_SIZE`.
pub const MAX_DEPTH: u32 = 28_000;

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// One entered level of demand on this thread, left when dropped (on
/// return or unwind).
struct Nest;

impl Drop for Nest {
    fn drop(&mut self) {
        DEPTH.set(DEPTH.get() - 1);
    }
}

/// One attribute instance in the evaluation arena.
enum Slot<V> {
    Empty,
    InProgress,
    Done(V),
}

/// A demand-driven evaluator decorating one parse tree.
///
/// All attribute instances of the tree live in one arena: node `n`'s
/// attributes occupy `base[n]..base[n + 1]`, in the order of
/// [`AttrGrammar::attrs_of`] for its symbol. Rule arguments are gathered
/// on one stack shared by every rule call. Leaves keep the parser's
/// token type `T`; a token becomes a `V` only when a rule demands it.
pub struct DemandEval<'a, V, T = V> {
    ag: &'a AttrGrammar<V>,
    tree: &'a ParseTree<T>,
    base: Vec<u32>,
    slots: RefCell<Vec<Slot<V>>>,
    args: RefCell<Vec<V>>,
    /// Number of rule invocations performed (statistics).
    n_rule_evals: Cell<usize>,
}

impl<'a, V: Clone + 'static, T: Clone + Into<V>> DemandEval<'a, V, T> {
    /// Creates an evaluator. `inputs` supplies values for the inherited
    /// attributes of the root (start) symbol — the translation's inputs.
    pub fn new(ag: &'a AttrGrammar<V>, tree: &'a ParseTree<T>, inputs: Vec<(ClassId, V)>) -> Self {
        let mut base = Vec::with_capacity(tree.len() + 1);
        let mut total = 0u32;
        base.push(total);
        for n in 0..tree.len() {
            total += ag.attrs_of(tree.symbol(n)).len() as u32;
            base.push(total);
        }
        let mut slots: Vec<_> = (0..total).map(|_| Slot::Empty).collect();
        let root = tree.root();
        for (c, v) in inputs {
            if let Some(s) = ag.slot(tree.symbol(root), c) {
                slots[base[root] as usize + s] = Slot::Done(v);
            }
        }
        DemandEval {
            ag,
            tree,
            base,
            slots: RefCell::new(slots),
            args: RefCell::new(Vec::new()),
            n_rule_evals: Cell::new(0),
        }
    }

    /// Demands attribute `class` of `node`.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn value(&self, node: NodeId, class: ClassId) -> Result<V, EvalError> {
        let sym = self.tree.symbol(node);
        let slot = match self.ag.slot(sym, class) {
            Some(s) => self.base[node] as usize + s,
            None => {
                return Err(EvalError::NotAttached {
                    node,
                    class: self.ag.class_name(class).to_string(),
                })
            }
        };
        match &mut self.slots.borrow_mut()[slot] {
            Slot::Done(v) => return Ok(v.clone()),
            Slot::InProgress => {
                return Err(EvalError::Cycle {
                    node,
                    class: self.ag.class_name(class).to_string(),
                })
            }
            s @ Slot::Empty => *s = Slot::InProgress,
        }
        let depth = DEPTH.get();
        let result = if depth < MAX_DEPTH {
            DEPTH.set(depth + 1);
            let _level = Nest;
            self.compute(node, class)
        } else {
            Err(EvalError::TooDeep { node })
        };
        self.slots.borrow_mut()[slot] = match &result {
            Ok(v) => Slot::Done(v.clone()),
            Err(_) => Slot::Empty,
        };
        result
    }

    /// Demands a synthesized attribute of the root — a *goal attribute*,
    /// the result of the translation.
    pub fn root_value(&self, class: ClassId) -> Result<V, EvalError> {
        self.value(self.tree.root(), class)
    }

    /// Number of semantic-rule invocations so far.
    pub fn n_rule_evals(&self) -> usize {
        self.n_rule_evals.get()
    }

    fn missing(&self, node: NodeId, class: ClassId) -> EvalError {
        EvalError::MissingInput {
            node,
            class: self.ag.class_name(class).to_string(),
        }
    }

    fn compute(&self, node: NodeId, class: ClassId) -> Result<V, EvalError> {
        let tree = self.tree;
        // Locate the defining rule: synthesized → this node's production;
        // inherited → the parent's production, targeting our occurrence.
        let (rule_node, prod, occ) = match (self.ag.dir(class), tree.parent(node)) {
            (AttrDir::Synthesized, _) => {
                (node, tree.prod(node).expect("synthesized attr on leaf"), 0)
            }
            (AttrDir::Inherited, Some((parent, occ))) => {
                (parent, tree.prod(parent).expect("parent is interior"), occ)
            }
            // A root inherited attribute is an input: `new` stored the
            // ones supplied.
            (AttrDir::Inherited, None) => return Err(self.missing(node, class)),
        };
        let rule = self
            .ag
            .rule_for(prod, occ, class)
            .ok_or_else(|| self.missing(node, class))?;
        // Resolve occurrences relative to the production owning the rule.
        let occ_node = |occ| tree.occurrence(rule_node, occ);
        // A copy rule is its source attribute: forward the demand.
        if let (RuleFunc::Copy, [Dep::Attr(occ, c)]) = (&rule.func, &rule.deps[..]) {
            let v = self.value(occ_node(*occ), *c)?;
            self.n_rule_evals.set(self.n_rule_evals.get() + 1);
            return Ok(v);
        }
        let mark = self.args.borrow().len();
        for d in &rule.deps {
            let arg = match *d {
                Dep::Attr(occ, c) => self.value(occ_node(occ), c),
                Dep::Token(occ) => {
                    let leaf = occ_node(occ);
                    self.tree
                        .token(leaf)
                        .map(|t| t.clone().into())
                        .ok_or(EvalError::MissingToken { node: leaf })
                }
                Dep::Leaves(occ) => Ok(self.ag.leaf_run(tree.leaves_of(occ_node(occ)))),
            };
            match arg {
                Ok(v) => self.args.borrow_mut().push(v),
                Err(e) => {
                    self.args.borrow_mut().truncate(mark);
                    return Err(e);
                }
            }
        }
        self.n_rule_evals.set(self.n_rule_evals.get() + 1);
        let mut args = self.args.borrow_mut();
        let v = rule.apply(&args[mark..]);
        args.truncate(mark);
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AgBuilder, AttrDir, Dep, Implicit};
    use ag_lalr::{GrammarBuilder, ParseTable, Parser, Token};
    use std::sync::Arc;

    /// Knuth's binary number AG, fractional part included: value of
    /// "1 1 0 1" with the point after position 2 etc. Here: integers only,
    /// scale threaded via inh.
    fn setup() -> (Arc<ag_lalr::Grammar>, AttrGrammar<i64>, ParseTable) {
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
        ab.rule(p_nl, 1, scale, vec![], |_| 0);
        ab.rule(p_nl, 0, val, vec![Dep::attr(1, val)], |d| d[0]);
        ab.rule(p_rec, 0, len, vec![Dep::attr(1, len)], |d| d[0] + 1);
        ab.rule(p_rec, 1, scale, vec![Dep::attr(0, scale)], |d| d[0] + 1);
        ab.rule(
            p_rec,
            0,
            val,
            vec![Dep::attr(1, val), Dep::token(2), Dep::attr(0, scale)],
            |d| d[0] + d[1] * (1 << d[2]),
        );
        ab.rule(p_bit, 0, len, vec![], |_| 1);
        ab.rule(
            p_bit,
            0,
            val,
            vec![Dep::token(1), Dep::attr(0, scale)],
            |d| d[0] * (1 << d[1]),
        );
        let ag = ab.build().unwrap();
        let table = ParseTable::build(&g).unwrap();
        (g, ag, table)
    }

    fn eval_bits(bits: &[i64]) -> i64 {
        let (g, ag, table) = setup();
        let parser = Parser::new(&g, &table);
        let bit = g.symbol("bit").unwrap();
        let at = parser
            .parse(bits.iter().map(|&b| Token::new(bit, b)))
            .unwrap();
        let ev = DemandEval::new(&ag, &at, vec![]);
        let val = ag.class_by_name("VAL").unwrap();
        ev.root_value(val).unwrap()
    }

    #[test]
    fn binary_number_values() {
        assert_eq!(eval_bits(&[1]), 1);
        assert_eq!(eval_bits(&[1, 0]), 2);
        assert_eq!(eval_bits(&[1, 1, 0, 1]), 13);
        assert_eq!(eval_bits(&[0, 0, 1]), 1);
    }

    #[test]
    fn demand_depth_is_bounded_per_thread() {
        // LEN of an n-bit list demands n levels deep. The test thread's
        // stack is too small for the bound, so run on an analysis stack.
        ag_harness::pool::run_on_stack("deep", || {
            let (g, ag, table) = setup();
            let parser = Parser::new(&g, &table);
            let bit = g.symbol("bit").unwrap();
            let len = ag.class_by_name("LEN").unwrap();
            let list_len = |n: usize| {
                let at = parser.parse((0..n).map(|_| Token::new(bit, 1i64))).unwrap();
                let ev = DemandEval::new(&ag, &at, vec![]);
                ev.value(at.child(at.root(), 1), len)
            };
            let max = MAX_DEPTH as usize;
            assert!(matches!(list_len(max + 1), Err(EvalError::TooDeep { .. })));
            // The failed demand unwound the thread's depth: a list at the
            // bound still evaluates.
            assert_eq!(list_len(max), Ok(max as i64));
        });
    }

    #[test]
    fn memoization_counts_each_rule_once() {
        let (g, ag, table) = setup();
        let parser = Parser::new(&g, &table);
        let bit = g.symbol("bit").unwrap();
        let at = parser
            .parse([1i64, 0, 1].iter().map(|&b| Token::new(bit, b)))
            .unwrap();
        let ev = DemandEval::new(&ag, &at, vec![]);
        let val = ag.class_by_name("VAL").unwrap();
        let v1 = ev.root_value(val).unwrap();
        let count = ev.n_rule_evals();
        let v2 = ev.root_value(val).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(ev.n_rule_evals(), count, "second demand is memoized");
    }

    #[test]
    fn missing_root_input_reported() {
        // Demand SCALE of the root l? SCALE isn't on the root symbol n; use
        // a tree where l is root-adjacent: demand scale of l child works
        // (has a rule), but a fresh inh on n would fail. Simplest check: ask
        // for a class not attached to n.
        let (g, ag, table) = setup();
        let parser = Parser::new(&g, &table);
        let bit = g.symbol("bit").unwrap();
        let at = parser.parse(vec![Token::new(bit, 1i64)]).unwrap();
        let ev = DemandEval::new(&ag, &at, vec![]);
        let scale = ag.class_by_name("SCALE").unwrap();
        let err = ev.root_value(scale).unwrap_err();
        assert!(matches!(err, EvalError::NotAttached { .. }));
    }

    #[test]
    fn root_inherited_inputs_used() {
        // Give `n` an inherited class and check the supplied value reaches
        // rules.
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let n = g.nonterminal("n");
        g.prod(n, &[a.into()], "n_a");
        g.start(n);
        let g = Arc::new(g.build().unwrap());
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let base = ab.class("BASE", AttrDir::Inherited, Implicit::None);
        let out = ab.class("OUT", AttrDir::Synthesized, Implicit::None);
        let nn = g.symbol("n").unwrap();
        ab.attach(base, nn);
        ab.attach(out, nn);
        let p = g.prod_by_label("n_a").unwrap();
        ab.rule(p, 0, out, vec![Dep::attr(0, base)], |d| d[0] * 10);
        let ag = ab.build().unwrap();
        let table = ParseTable::build(&g).unwrap();
        let parser = Parser::new(&g, &table);
        let at = parser.parse(vec![Token::new(a, 0i64)]).unwrap();
        let ev = DemandEval::new(&ag, &at, vec![(base, 7)]);
        assert_eq!(ev.root_value(out).unwrap(), 70);
        // Without the input it fails.
        let ev2 = DemandEval::new(&ag, &at, vec![]);
        assert!(matches!(
            ev2.root_value(out).unwrap_err(),
            EvalError::MissingInput { .. }
        ));
    }

    /// `n ::= a` with the given classes on `n`; the caller adds rules to
    /// the single production `n_a`.
    fn one_prod(
        classes: &[(&str, AttrDir)],
        rules: impl FnOnce(&mut AgBuilder<i64>, ag_lalr::ProdId, &[ClassId]),
    ) -> (AttrGrammar<i64>, ParseTree<i64>) {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let n = g.nonterminal("n");
        g.prod(n, &[a.into()], "n_a");
        g.start(n);
        let g = Arc::new(g.build().unwrap());
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let ids: Vec<ClassId> = classes
            .iter()
            .map(|&(name, dir)| ab.class(name, dir, Implicit::None))
            .collect();
        for &c in &ids {
            ab.attach(c, g.symbol("n").unwrap());
        }
        rules(&mut ab, g.prod_by_label("n_a").unwrap(), &ids);
        let ag = ab.build().unwrap();
        let table = ParseTable::build(&g).unwrap();
        let tree = Parser::new(&g, &table)
            .parse(vec![Token::new(a, 5i64)])
            .unwrap();
        (ag, tree)
    }

    #[test]
    fn dynamic_cycle_is_reported() {
        // X = Y + 1 and Y = X + 1 on the same node: not statically
        // checked here, so the evaluator must catch it.
        let syn = AttrDir::Synthesized;
        let (ag, at) = one_prod(&[("X", syn), ("Y", syn)], |ab, p, c| {
            ab.rule(p, 0, c[0], vec![Dep::attr(0, c[1])], |d| d[0] + 1);
            ab.rule(p, 0, c[1], vec![Dep::attr(0, c[0])], |d| d[0] + 1);
        });
        let ev = DemandEval::new(&ag, &at, vec![]);
        let x = ag.class_by_name("X").unwrap();
        let err = ev.root_value(x).unwrap_err();
        assert_eq!(
            err,
            EvalError::Cycle {
                node: at.root(),
                class: "X".to_string()
            }
        );
        // Both slots on the cycle were released, so each demand closes the
        // cycle at its own attribute; a slot left in progress would
        // report the other one. No rule ran to completion.
        assert!(ev.slots.borrow().iter().all(|s| matches!(s, Slot::Empty)));
        let y = ag.class_by_name("Y").unwrap();
        assert!(matches!(ev.root_value(y), Err(EvalError::Cycle { class, .. }) if class == "Y"));
        assert_eq!(ev.root_value(x).unwrap_err(), err);
        assert_eq!(ev.n_rule_evals(), 0);
        assert!(ev.args.borrow().is_empty());
    }

    #[test]
    fn failed_demand_leaves_slot_retryable() {
        // X = Y + BASE with BASE a root input that is not supplied; Y reads
        // the token.
        let (ag, at) = one_prod(
            &[
                ("X", AttrDir::Synthesized),
                ("Y", AttrDir::Synthesized),
                ("BASE", AttrDir::Inherited),
            ],
            |ab, p, c| {
                ab.rule(
                    p,
                    0,
                    c[0],
                    vec![Dep::attr(0, c[1]), Dep::attr(0, c[2])],
                    |d| d[0] + d[1],
                );
                ab.rule(p, 0, c[1], vec![Dep::token(1)], |d| d[0] * 10);
            },
        );
        let (x, y) = (
            ag.class_by_name("X").unwrap(),
            ag.class_by_name("Y").unwrap(),
        );
        let ev = DemandEval::new(&ag, &at, vec![]);
        let missing = |e: EvalError| matches!(e, EvalError::MissingInput { ref class, .. } if class == "BASE");
        assert!(missing(ev.root_value(x).unwrap_err()));
        // Y was computed on the way and stays memoised; X went back to
        // empty, so a retry fails the same way instead of as a cycle, and
        // the argument stack was unwound.
        assert_eq!(ev.n_rule_evals(), 1);
        assert!(ev.args.borrow().is_empty());
        assert!(missing(ev.root_value(x).unwrap_err()));
        assert_eq!(ev.root_value(y).unwrap(), 50);
        assert_eq!(ev.n_rule_evals(), 1);
    }

    #[test]
    fn forwarded_copy_rule_counts_once() {
        // s ::= t ; t ::= a, with VAL copied from t to s by an implicit
        // copy rule.
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s_nt = g.nonterminal("s");
        let t_nt = g.nonterminal("t");
        g.prod(s_nt, &[t_nt.into()], "s_t");
        g.prod(t_nt, &[a.into()], "t_a");
        g.start(s_nt);
        let g = Arc::new(g.build().unwrap());
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let val = ab.syn("VAL");
        ab.attach_all(val, [s_nt, t_nt]);
        ab.rule(
            g.prod_by_label("t_a").unwrap(),
            0,
            val,
            vec![Dep::token(1)],
            |d| d[0] + 1,
        );
        let ag = ab.build().unwrap();
        let copy = ag
            .rule_for(g.prod_by_label("s_t").unwrap(), 0, val)
            .unwrap();
        assert_eq!(copy.origin(), crate::attr::RuleOrigin::ImplicitCopy);
        let table = ParseTable::build(&g).unwrap();
        let at = Parser::new(&g, &table)
            .parse(vec![Token::new(a, 41i64)])
            .unwrap();
        let ev = DemandEval::new(&ag, &at, vec![]);
        assert_eq!(ev.root_value(val).unwrap(), 42);
        // t_a's rule and the forwarded copy: two evaluations.
        assert_eq!(ev.n_rule_evals(), 2);
        // Both instances are memoised: neither demand runs a rule again.
        assert_eq!(ev.root_value(val).unwrap(), 42);
        assert_eq!(ev.value(at.child(at.root(), 1), val).unwrap(), 42);
        assert_eq!(ev.n_rule_evals(), 2);
    }
}
