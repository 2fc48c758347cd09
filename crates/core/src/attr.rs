//! Attribute declarations, attribute classes, and semantic rules.
//!
//! An [`AttrGrammar`] decorates an [`ag_lalr::Grammar`] with:
//!
//! - **attribute classes** — a named attribute (`MSGS`, `ENV`, `LEVEL`, …)
//!   with a fixed direction (inherited or synthesized) that can be attached
//!   to many symbols and *"denotes essentially the same thing for each of
//!   them"* (paper §4.2),
//! - **semantic rules** — functions defining one attribute occurrence of a
//!   production from other occurrences and token values,
//! - **implicit rules** — copy, unit-element, and merge-function rules
//!   synthesized for occurrences the author left undefined, exactly the
//!   three kinds described in the paper.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ag_lalr::{Grammar, ProdId, SymbolId};

use crate::implicit;

/// Direction of an attribute class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrDir {
    /// Flows downward: defined by the parent production.
    Inherited,
    /// Flows upward: defined by the node's own production.
    Synthesized,
}

/// Identifies an attribute class within one [`AttrGrammar`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// What the engine may do when a required occurrence of the class has no
/// explicit rule (paper §4.2's three kinds of implicit rule). The unit
/// element and merge function are plain `fn`s, declared once per class,
/// so an attribute grammar holds no value of `V` and is `Send + Sync`.
pub enum Implicit<V> {
    /// No implicit rules: every occurrence must be defined explicitly.
    None,
    /// Copy rules only (`X.A = Y.A`).
    Copy,
    /// Copy rules plus a unit element for zero-source synthesized
    /// occurrences (`X.A = u()`).
    Unit(fn() -> V),
    /// Copy, unit element (if given), and an associative dyadic merge
    /// function for multi-source synthesized occurrences
    /// (`X.A = m(Y.A, m(W.A, … Z.A) …)`).
    Merge {
        /// Makes the value when no source occurrence exists.
        unit: Option<fn() -> V>,
        /// The merge function.
        f: MergeFn<V>,
    },
}

pub(crate) struct ClassInfo<V> {
    pub name: String,
    pub dir: AttrDir,
    pub implicit: Implicit<V>,
}

/// A dependency of a semantic rule: an attribute occurrence, the token
/// value of a terminal occurrence (Linguist's mechanism for
/// "incorporating values associated with tokens into attribute
/// evaluation"), or the run of tokens under an occurrence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dep {
    /// Attribute `class` of occurrence `occ` (0 = LHS, `i ≥ 1` = `i`-th RHS
    /// symbol).
    Attr(usize, ClassId),
    /// Token value of the terminal at RHS position `occ ≥ 1`.
    Token(usize),
    /// The tokens under occurrence `occ`, in source order, as one value
    /// made by the AG's run constructor ([`AgBuilder::leaf_run`]). Like a
    /// token, it is read from the tree and depends on no attribute.
    Leaves(usize),
}

impl Dep {
    /// Shorthand for [`Dep::Attr`].
    pub fn attr(occ: usize, class: ClassId) -> Dep {
        Dep::Attr(occ, class)
    }

    /// Shorthand for [`Dep::Token`].
    pub fn token(occ: usize) -> Dep {
        Dep::Token(occ)
    }

    /// Shorthand for [`Dep::Leaves`].
    pub fn leaves(occ: usize) -> Dep {
        Dep::Leaves(occ)
    }
}

/// How a rule came to exist — explicit (written by the AG author) or one of
/// the three implicit kinds ([`Rule::origin`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleOrigin {
    /// Written by the author.
    Explicit,
    /// Synthesized copy rule `X.A = Y.A`.
    ImplicitCopy,
    /// Synthesized constant rule `X.A = u`.
    ImplicitUnit,
    /// Synthesized fold `X.A = m(Y.A, m(…))`.
    ImplicitMerge,
}

/// The associative merge function of an [`Implicit::Merge`] class.
pub type MergeFn<V> = fn(&V, &V) -> V;

/// The run constructor of [`Dep::Leaves`]: one value from the tokens
/// under an occurrence, each converted, in source order.
pub type LeafRunFn<V> = fn(Vec<V>) -> V;

/// An explicit semantic function: the defined attribute's value from the
/// values of the rule's dependencies, in order.
pub type RuleFn<V> = Box<dyn Fn(&[V]) -> V + Send + Sync>;

/// A rule's function. Only an explicit rule is a closure; the implicit
/// kinds are data taken from the class declaration.
pub enum RuleFunc<V> {
    /// Written by the author.
    Explicit(RuleFn<V>),
    /// `X.A = Y.A`: the single dependency.
    Copy,
    /// `X.A = u()`: no dependencies.
    Unit(fn() -> V),
    /// `X.A = m(Y.A, m(…))`: a left-to-right fold over the dependencies.
    Merge(MergeFn<V>),
}

/// A semantic rule: defines attribute `class` of occurrence `target_occ`
/// from `deps`.
pub struct Rule<V> {
    /// Occurrence being defined (0 = LHS, `i ≥ 1` = RHS position).
    pub target_occ: usize,
    /// Class being defined.
    pub class: ClassId,
    /// Dependencies, in the order the function receives them.
    pub deps: Vec<Dep>,
    /// The semantic function.
    pub func: RuleFunc<V>,
}

impl<V: Clone> Rule<V> {
    /// The defined value from the values of `deps`, in order.
    pub fn apply(&self, args: &[V]) -> V {
        match &self.func {
            RuleFunc::Explicit(f) => f(args),
            RuleFunc::Copy => args[0].clone(),
            RuleFunc::Unit(u) => u(),
            RuleFunc::Merge(m) => args[1..].iter().fold(args[0].clone(), |acc, v| m(&acc, v)),
        }
    }
}

impl<V> Rule<V> {
    /// Provenance (explicit vs the implicit kinds), from the function's
    /// kind.
    pub fn origin(&self) -> RuleOrigin {
        match self.func {
            RuleFunc::Explicit(_) => RuleOrigin::Explicit,
            RuleFunc::Copy => RuleOrigin::ImplicitCopy,
            RuleFunc::Unit(_) => RuleOrigin::ImplicitUnit,
            RuleFunc::Merge(_) => RuleOrigin::ImplicitMerge,
        }
    }
}

impl<V> fmt::Debug for Rule<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("target_occ", &self.target_occ)
            .field("class", &self.class)
            .field("deps", &self.deps)
            .field("origin", &self.origin())
            .finish()
    }
}

/// Errors detected while building an [`AttrGrammar`].
#[derive(Clone, Debug)]
pub enum AgError {
    /// A class name was declared twice.
    DuplicateClass(String),
    /// A class was attached to a terminal.
    AttachToTerminal { class: String, symbol: String },
    /// A rule's target is not a defining occurrence (synthesized targets
    /// must be the LHS, inherited targets must be RHS positions).
    BadTarget {
        /// Production label.
        prod: String,
        /// Occurrence index.
        occ: usize,
        /// Class name.
        class: String,
    },
    /// Two rules define the same occurrence.
    DuplicateRule {
        /// Production label.
        prod: String,
        /// Occurrence index.
        occ: usize,
        /// Class name.
        class: String,
    },
    /// A rule references an attribute of a symbol the class is not attached
    /// to, a token of a nonterminal occurrence, or a token run of an AG
    /// without a run constructor.
    BadDep {
        /// Production label.
        prod: String,
        /// Offending dependency.
        dep: String,
    },
    /// A required occurrence has no explicit rule and no implicit rule can
    /// be synthesized.
    MissingRule {
        /// Production label.
        prod: String,
        /// Occurrence index.
        occ: usize,
        /// Class name.
        class: String,
        /// Why synthesis failed.
        why: String,
    },
    /// An occurrence index is out of range for the production.
    BadOccurrence {
        /// Production label.
        prod: String,
        /// Occurrence index.
        occ: usize,
    },
}

impl fmt::Display for AgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgError::DuplicateClass(n) => write!(f, "duplicate attribute class `{n}`"),
            AgError::AttachToTerminal { class, symbol } => {
                write!(f, "class `{class}` attached to terminal `{symbol}`")
            }
            AgError::BadTarget { prod, occ, class } => {
                write!(
                    f,
                    "rule in [{prod}] targets non-defining occurrence {occ}.{class}"
                )
            }
            AgError::DuplicateRule { prod, occ, class } => {
                write!(f, "duplicate rule for {occ}.{class} in [{prod}]")
            }
            AgError::BadDep { prod, dep } => write!(f, "bad dependency {dep} in [{prod}]"),
            AgError::MissingRule {
                prod,
                occ,
                class,
                why,
            } => write!(
                f,
                "no rule for {occ}.{class} in [{prod}] and no implicit rule applies: {why}"
            ),
            AgError::BadOccurrence { prod, occ } => {
                write!(f, "occurrence {occ} out of range in [{prod}]")
            }
        }
    }
}

impl std::error::Error for AgError {}

/// The empty cell of the dense `slot` and `rule` tables.
pub(crate) const NO_ENTRY: u16 = u16::MAX;

fn entry(cell: u16) -> Option<usize> {
    (cell != NO_ENTRY).then_some(cell as usize)
}

/// Builds an [`AttrGrammar`] over an existing context-free grammar.
pub struct AgBuilder<V> {
    pub(crate) grammar: Arc<Grammar>,
    pub(crate) classes: Vec<ClassInfo<V>>,
    pub(crate) class_by_name: HashMap<String, ClassId>,
    /// Classes attached to each symbol, in attach order.
    pub(crate) attrs_of: Vec<Vec<ClassId>>,
    pub(crate) rules: Vec<Vec<Rule<V>>>,
    pub(crate) leaf_run: Option<LeafRunFn<V>>,
}

impl<V: Clone + 'static> AgBuilder<V> {
    /// Starts building an attribute grammar over `grammar`.
    pub fn new(grammar: Arc<Grammar>) -> Self {
        let n_sym = grammar.n_symbols();
        let n_prod = grammar.n_prods();
        AgBuilder {
            grammar,
            classes: Vec::new(),
            class_by_name: HashMap::new(),
            attrs_of: vec![Vec::new(); n_sym],
            rules: (0..n_prod).map(|_| Vec::new()).collect(),
            leaf_run: None,
        }
    }

    /// Sets the run constructor that makes one value of the tokens a
    /// [`Dep::Leaves`] dependency reads. An AG whose rules read no token
    /// run needs none.
    pub fn leaf_run(&mut self, run: LeafRunFn<V>) {
        self.leaf_run = Some(run);
    }

    /// Declares an attribute class.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate class name (a bug in the AG author's code).
    pub fn class(&mut self, name: &str, dir: AttrDir, implicit: Implicit<V>) -> ClassId {
        assert!(
            !self.class_by_name.contains_key(name),
            "duplicate attribute class `{name}`"
        );
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassInfo {
            name: name.to_string(),
            dir,
            implicit,
        });
        self.class_by_name.insert(name.to_string(), id);
        id
    }

    /// Declares an inherited class with copy-rule synthesis — the common
    /// case for context attributes like `ENV` or `LEVEL`.
    pub fn inh(&mut self, name: &str) -> ClassId {
        self.class(name, AttrDir::Inherited, Implicit::Copy)
    }

    /// Declares a synthesized class with copy-rule synthesis.
    pub fn syn(&mut self, name: &str) -> ClassId {
        self.class(name, AttrDir::Synthesized, Implicit::Copy)
    }

    /// Declares a synthesized class with unit element and merge function —
    /// the `MSGS`-style bucket-brigade class of §4.2. Both are plain `fn`s
    /// (a non-capturing closure coerces): `unit` makes the value of an
    /// occurrence with no source, and `f` folds several.
    pub fn syn_merge(&mut self, name: &str, unit: fn() -> V, f: MergeFn<V>) -> ClassId {
        self.class(
            name,
            AttrDir::Synthesized,
            Implicit::Merge {
                unit: Some(unit),
                f,
            },
        )
    }

    /// Attaches `class` to `symbol`, giving the symbol an attribute of that
    /// class. Attaching twice is a no-op.
    pub fn attach(&mut self, class: ClassId, symbol: SymbolId) {
        let list = &mut self.attrs_of[symbol.index()];
        if !list.contains(&class) {
            list.push(class);
        }
    }

    /// `true` if `class` is attached to `symbol`.
    pub fn has_attr(&self, symbol: SymbolId, class: ClassId) -> bool {
        self.attrs_of[symbol.index()].contains(&class)
    }

    /// Attaches `class` to every symbol in `symbols` — the macro-processor
    /// "attribute group" idiom from §4.2.
    pub fn attach_all(&mut self, class: ClassId, symbols: impl IntoIterator<Item = SymbolId>) {
        for s in symbols {
            self.attach(class, s);
        }
    }

    /// Adds an explicit semantic rule to `prod`: occurrence
    /// `target_occ.class = func(deps…)`.
    pub fn rule(
        &mut self,
        prod: ProdId,
        target_occ: usize,
        class: ClassId,
        deps: Vec<Dep>,
        func: impl Fn(&[V]) -> V + Send + Sync + 'static,
    ) {
        self.rules[prod.index()].push(Rule {
            target_occ,
            class,
            deps,
            func: RuleFunc::Explicit(Box::new(func)),
        });
    }

    /// Validates the grammar, synthesizes implicit rules, and freezes.
    ///
    /// # Errors
    ///
    /// Returns the first [`AgError`] found (bad targets, duplicate or
    /// missing rules, bad dependencies).
    pub fn build(self) -> Result<AttrGrammar<V>, AgError> {
        implicit::complete(self)
    }
}

/// A frozen attribute grammar: grammar + classes + rules (explicit and
/// implicit), ready for dependency analysis and evaluation.
pub struct AttrGrammar<V> {
    pub(crate) grammar: Arc<Grammar>,
    pub(crate) classes: Vec<ClassInfo<V>>,
    pub(crate) class_by_name: HashMap<String, ClassId>,
    pub(crate) attrs_of: Vec<Vec<ClassId>>,
    /// Dense `symbol × class → slot` table ([`NO_ENTRY`] = not attached):
    /// the position of the attribute in a node's attribute block.
    pub(crate) slot_tab: Vec<u16>,
    /// Rules per production.
    pub(crate) rules: Vec<Vec<Rule<V>>>,
    /// Dense per-production `occurrence × class → rule index` tables,
    /// concatenated; production `p`'s table starts at `rule_base[p]`.
    pub(crate) rule_tab: Vec<u16>,
    pub(crate) rule_base: Vec<u32>,
    /// Per production: transparent (see [`AttrGrammar::transparent`]).
    pub(crate) transparent: Vec<bool>,
    /// The run constructor of [`Dep::Leaves`], if the AG has one.
    pub(crate) leaf_run: Option<LeafRunFn<V>>,
    pub(crate) n_explicit: usize,
    pub(crate) n_implicit: usize,
}

impl<V> fmt::Debug for AttrGrammar<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttrGrammar")
            .field("classes", &self.classes.len())
            .field("n_explicit", &self.n_explicit)
            .field("n_implicit", &self.n_implicit)
            .finish_non_exhaustive()
    }
}

impl<V: Clone + 'static> AttrGrammar<V> {
    /// The underlying context-free grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Number of declared attribute classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Name of a class.
    pub fn class_name(&self, c: ClassId) -> &str {
        &self.classes[c.index()].name
    }

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Direction of a class.
    pub fn dir(&self, c: ClassId) -> AttrDir {
        self.classes[c.index()].dir
    }

    /// Classes attached to `symbol`, in attach order.
    pub fn attrs_of(&self, symbol: SymbolId) -> &[ClassId] {
        &self.attrs_of[symbol.index()]
    }

    /// `true` if `class` is attached to `symbol`.
    pub fn has_attr(&self, symbol: SymbolId, class: ClassId) -> bool {
        self.slot(symbol, class).is_some()
    }

    /// Attribute-vector slot of `(symbol, class)`.
    pub fn slot(&self, symbol: SymbolId, class: ClassId) -> Option<usize> {
        let i = symbol.index() * self.classes.len() + class.index();
        entry(self.slot_tab[i])
    }

    /// All rules of a production (explicit and implicit).
    pub fn rules(&self, prod: ProdId) -> &[Rule<V>] {
        &self.rules[prod.index()]
    }

    /// The rule defining `(occ, class)` in `prod`, if any.
    pub fn rule_for(&self, prod: ProdId, occ: usize, class: ClassId) -> Option<&Rule<V>> {
        self.rule_index(prod, occ, class)
            .map(|r| &self.rules[prod.index()][r])
    }

    /// Index in [`AttrGrammar::rules`] of the rule defining `(occ, class)`
    /// in `prod`, if any.
    pub fn rule_index(&self, prod: ProdId, occ: usize, class: ClassId) -> Option<usize> {
        let p = prod.index();
        let i = self.rule_base[p] as usize + occ * self.classes.len() + class.index();
        if i >= self.rule_base[p + 1] as usize {
            return None;
        }
        entry(self.rule_tab[i])
    }

    /// Per production (indexed by `ProdId::index`), whether it is
    /// *transparent*: `A → B` with `B` one nonterminal, every rule an
    /// implicit copy, and every class of `A` also attached to `B`. A tree
    /// may leave out the nodes of transparent productions, `B`'s node
    /// taking `A`'s place in its parent (`ag_lalr::Parser::eliding` takes
    /// these flags); both evaluators give the same values on it, because
    /// every slot and rule lookup goes through the node's own symbol and
    /// production. [`crate::Plans::keeps_visits`] says whether a plan may
    /// visit `B` in `A`'s place.
    pub fn transparent(&self) -> &[bool] {
        &self.transparent
    }

    /// The value of a [`Dep::Leaves`] dependency on `leaves`: each token
    /// converted, then the run constructor.
    pub(crate) fn leaf_run<T: Clone + Into<V>>(&self, leaves: &[T]) -> V {
        let run = self
            .leaf_run
            .expect("validated: token runs need a run constructor");
        run(leaves.iter().map(|t| t.clone().into()).collect())
    }

    /// Number of explicit (author-written) rules.
    pub fn n_explicit_rules(&self) -> usize {
        self.n_explicit
    }

    /// Number of implicitly synthesized rules.
    pub fn n_implicit_rules(&self) -> usize {
        self.n_implicit
    }

    /// Total rules.
    pub fn n_rules(&self) -> usize {
        self.n_explicit + self.n_implicit
    }

    /// Total attribute count: sum over symbols of attached classes —
    /// the "attributes" row of the paper's §4.1 statistics table.
    pub fn n_attributes(&self) -> usize {
        self.attrs_of.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_lalr::GrammarBuilder;

    fn toy_grammar() -> Arc<Grammar> {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        let t = g.nonterminal("t");
        g.prod(s, &[t.into(), a.into()], "s_ta");
        g.prod(t, &[a.into()], "t_a");
        g.start(s);
        Arc::new(g.build().unwrap())
    }

    #[test]
    fn declare_attach_query() {
        let g = toy_grammar();
        let s = g.symbol("s").unwrap();
        let t = g.symbol("t").unwrap();
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let env = ab.inh("ENV");
        let val = ab.syn("VAL");
        ab.attach(env, t);
        ab.attach(val, s);
        ab.attach(val, t);
        ab.attach(val, t); // idempotent
                           // Provide required rules: s_ta needs s.VAL, t.ENV; t_a needs t.VAL.
        let p_s = g.prod_by_label("s_ta").unwrap();
        let p_t = g.prod_by_label("t_a").unwrap();
        ab.rule(p_s, 0, val, vec![Dep::attr(1, val)], |d| d[0] + 1);
        ab.rule(p_s, 1, env, vec![], |_| 7);
        ab.rule(p_t, 0, val, vec![Dep::attr(0, env)], |d| d[0] * 2);
        let ag = ab.build().unwrap();
        assert_eq!(ag.n_classes(), 2);
        assert_eq!(ag.class_name(env), "ENV");
        assert_eq!(ag.dir(env), AttrDir::Inherited);
        assert!(ag.has_attr(t, env));
        assert!(!ag.has_attr(s, env));
        assert_eq!(ag.attrs_of(t).len(), 2);
        assert_eq!(ag.n_attributes(), 3);
        assert_eq!(ag.n_explicit_rules(), 3);
        assert_eq!(ag.n_implicit_rules(), 0);
        assert!(ag.rule_for(p_t, 0, val).is_some());
        assert!(ag.rule_for(p_t, 0, env).is_none());
        assert_eq!(ag.class_by_name("VAL"), Some(val));
    }

    #[test]
    #[should_panic(expected = "duplicate attribute class")]
    fn duplicate_class_panics() {
        let g = toy_grammar();
        let mut ab = AgBuilder::<i64>::new(g);
        ab.inh("ENV");
        ab.inh("ENV");
    }
}
