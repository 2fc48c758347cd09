//! Context-free grammar representation.
//!
//! Grammars are built with [`GrammarBuilder`] and then frozen into a
//! [`Grammar`]. The builder interns symbols, so the same name always yields
//! the same [`SymbolId`]. Internally the grammar is *augmented* with a fresh
//! start symbol and production `S' ::= S` plus a reserved end-of-input
//! terminal, as required by LR construction.

use std::collections::HashMap;
use std::fmt;

/// Identifies a terminal or nonterminal within one [`Grammar`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub(crate) u32);

impl SymbolId {
    /// Raw index into the grammar's symbol table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `SymbolId` from an index previously obtained via
    /// [`SymbolId::index`]. Meaningful only with the same grammar.
    pub fn from_index(i: usize) -> SymbolId {
        SymbolId(i as u32)
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl From<SymbolId> for SymRef {
    fn from(s: SymbolId) -> SymRef {
        SymRef(s)
    }
}

/// A reference to a symbol on the right-hand side of a production.
///
/// This newtype exists so builder calls read as `&[a.into(), b.into()]`
/// without allowing arbitrary integers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SymRef(pub SymbolId);

/// Whether a symbol is a terminal (token) or a nonterminal.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SymbolKind {
    /// A token produced by the scanner.
    Terminal,
    /// A phrase symbol with productions.
    Nonterminal,
}

/// Operator associativity used for conflict resolution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Assoc {
    /// Shift/reduce conflicts at equal precedence resolve to reduce.
    Left,
    /// Shift/reduce conflicts at equal precedence resolve to shift.
    Right,
    /// Equal-precedence conflicts become parse errors.
    NonAssoc,
}

/// Identifies a production within one [`Grammar`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProdId(pub(crate) u32);

impl ProdId {
    /// Raw index into the grammar's production table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `ProdId` from an index previously obtained via
    /// [`ProdId::index`]. Meaningful only with the same grammar.
    pub fn from_index(i: usize) -> ProdId {
        ProdId(i as u32)
    }
}

impl fmt::Debug for ProdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

#[derive(Clone, Debug)]
pub(crate) struct SymbolInfo {
    pub name: String,
    pub kind: SymbolKind,
    pub prec: Option<(u32, Assoc)>,
}

#[derive(Clone, Debug)]
pub(crate) struct Production {
    pub lhs: SymbolId,
    pub rhs: Vec<SymbolId>,
    pub label: String,
    /// Precedence used for shift/reduce resolution: explicit override, or
    /// the precedence of the rightmost terminal in the RHS.
    pub prec: Option<(u32, Assoc)>,
}

/// Errors detected when freezing a [`GrammarBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GrammarError {
    /// No start symbol was set.
    NoStart,
    /// The named nonterminal appears in a RHS or as the start symbol but
    /// has no productions.
    UndefinedNonterminal(String),
    /// A production's LHS is a terminal.
    TerminalLhs(String),
    /// Two productions carry the same label.
    DuplicateLabel(String),
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::NoStart => write!(f, "no start symbol set"),
            GrammarError::UndefinedNonterminal(n) => {
                write!(f, "nonterminal `{n}` has no productions")
            }
            GrammarError::TerminalLhs(n) => {
                write!(f, "terminal `{n}` used as a production left-hand side")
            }
            GrammarError::DuplicateLabel(l) => write!(f, "duplicate production label `{l}`"),
        }
    }
}

impl std::error::Error for GrammarError {}

/// Incrementally builds a [`Grammar`].
///
/// # Example
///
/// ```
/// use ag_lalr::GrammarBuilder;
/// let mut g = GrammarBuilder::new();
/// let id = g.terminal("id");
/// let s = g.nonterminal("s");
/// g.prod(s, &[id.into()], "s_id");
/// g.start(s);
/// let grammar = g.build()?;
/// assert_eq!(grammar.n_user_prods(), 1);
/// # Ok::<(), ag_lalr::GrammarError>(())
/// ```
#[derive(Default)]
pub struct GrammarBuilder {
    symbols: Vec<SymbolInfo>,
    by_name: HashMap<String, SymbolId>,
    prods: Vec<Production>,
    prod_prec_overrides: HashMap<usize, SymbolId>,
    start: Option<SymbolId>,
}

impl GrammarBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, name: &str, kind: SymbolKind) -> SymbolId {
        if let Some(&id) = self.by_name.get(name) {
            let existing = &self.symbols[id.index()];
            assert_eq!(
                existing.kind, kind,
                "symbol `{name}` declared as both terminal and nonterminal"
            );
            return id;
        }
        let id = SymbolId(self.symbols.len() as u32);
        self.symbols.push(SymbolInfo {
            name: name.to_string(),
            kind,
            prec: None,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Declares (or looks up) a terminal symbol.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously declared as a nonterminal.
    pub fn terminal(&mut self, name: &str) -> SymbolId {
        self.intern(name, SymbolKind::Terminal)
    }

    /// Declares (or looks up) a nonterminal symbol.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously declared as a terminal.
    pub fn nonterminal(&mut self, name: &str) -> SymbolId {
        self.intern(name, SymbolKind::Nonterminal)
    }

    /// Assigns precedence and associativity to a terminal.
    pub fn precedence(&mut self, term: SymbolId, level: u32, assoc: Assoc) {
        self.symbols[term.index()].prec = Some((level, assoc));
    }

    /// Adds a production `lhs ::= rhs`, labelled `label` for diagnostics
    /// and attribute-grammar reference. Returns its [`ProdId`].
    pub fn prod(&mut self, lhs: SymbolId, rhs: &[SymRef], label: &str) -> ProdId {
        let id = ProdId(self.prods.len() as u32);
        self.prods.push(Production {
            lhs,
            rhs: rhs.iter().map(|r| r.0).collect(),
            label: label.to_string(),
            prec: None,
        });
        id
    }

    /// Adds a production written as words, yacc-style: `rhs` is a
    /// space-separated list of symbol names, where the name of a declared
    /// terminal is that terminal and any other name is a nonterminal
    /// (declared on first use, like `lhs`). Declare every terminal before
    /// the first rule that names it.
    ///
    /// # Example
    ///
    /// ```
    /// use ag_lalr::GrammarBuilder;
    /// let mut g = GrammarBuilder::new();
    /// let num = g.terminal("num");
    /// g.terminal("'+'");
    /// g.rule("expr", "expr '+' term", "expr_plus");
    /// g.rule("expr", "term", "expr_term");
    /// g.rule("term", "num", "term_num");
    /// let expr = g.nonterminal("expr");
    /// g.start(expr);
    /// let grammar = g.build()?;
    /// let p = grammar.prod_by_label("term_num").unwrap();
    /// assert_eq!(grammar.rhs(p), [num]);
    /// assert!(!grammar.is_terminal(grammar.symbol("term").unwrap()));
    /// # Ok::<(), ag_lalr::GrammarError>(())
    /// ```
    pub fn rule(&mut self, lhs: &str, rhs: &str, label: &str) -> ProdId {
        let lhs = self.nonterminal(lhs);
        let rhs: Vec<SymRef> = rhs
            .split_whitespace()
            .map(|w| {
                let known = self.by_name.get(w).copied();
                known.unwrap_or_else(|| self.nonterminal(w)).into()
            })
            .collect();
        self.prod(lhs, &rhs, label)
    }

    /// Overrides the precedence of `prod` to be that of terminal `term`
    /// (like yacc's `%prec`).
    pub fn prod_prec(&mut self, prod: ProdId, term: SymbolId) {
        self.prod_prec_overrides.insert(prod.index(), term);
    }

    /// Sets the start symbol.
    pub fn start(&mut self, s: SymbolId) {
        self.start = Some(s);
    }

    /// Freezes the grammar, augmenting it with `__goal ::= start` and an
    /// end-of-input terminal.
    ///
    /// # Errors
    ///
    /// Returns a [`GrammarError`] if the grammar is malformed (no start
    /// symbol, undefined nonterminals, terminal LHS, duplicate labels).
    pub fn build(mut self) -> Result<Grammar, GrammarError> {
        let start = self.start.ok_or(GrammarError::NoStart)?;
        for p in &self.prods {
            if self.symbols[p.lhs.index()].kind == SymbolKind::Terminal {
                return Err(GrammarError::TerminalLhs(
                    self.symbols[p.lhs.index()].name.clone(),
                ));
            }
        }
        let mut labels = HashMap::new();
        for (i, p) in self.prods.iter().enumerate() {
            if let Some(prev) = labels.insert(p.label.clone(), i) {
                let _ = prev;
                return Err(GrammarError::DuplicateLabel(p.label.clone()));
            }
        }
        // Every nonterminal reachable in a RHS (or the start) must have a
        // production.
        let mut has_prod = vec![false; self.symbols.len()];
        for p in &self.prods {
            has_prod[p.lhs.index()] = true;
        }
        let check = |id: SymbolId, symbols: &[SymbolInfo]| -> Result<(), GrammarError> {
            if symbols[id.index()].kind == SymbolKind::Nonterminal && !has_prod[id.index()] {
                Err(GrammarError::UndefinedNonterminal(
                    symbols[id.index()].name.clone(),
                ))
            } else {
                Ok(())
            }
        };
        check(start, &self.symbols)?;
        for p in self.prods.clone() {
            for &s in &p.rhs {
                check(s, &self.symbols)?;
            }
        }

        // Fill production precedence: explicit override wins, otherwise the
        // rightmost terminal with declared precedence.
        let overrides = std::mem::take(&mut self.prod_prec_overrides);
        for (i, p) in self.prods.iter_mut().enumerate() {
            if let Some(term) = overrides.get(&i) {
                p.prec = self.symbols[term.index()].prec;
            } else {
                p.prec = p
                    .rhs
                    .iter()
                    .rev()
                    .find(|s| self.symbols[s.index()].kind == SymbolKind::Terminal)
                    .and_then(|s| self.symbols[s.index()].prec);
            }
        }

        // Augment.
        let eof = self.intern("$eof", SymbolKind::Terminal);
        let goal = self.intern("__goal", SymbolKind::Nonterminal);
        let accept_prod = ProdId(self.prods.len() as u32);
        self.prods.push(Production {
            lhs: goal,
            rhs: vec![start],
            label: "__accept".to_string(),
            prec: None,
        });

        let mut prods_of = vec![Vec::new(); self.symbols.len()];
        for (i, p) in self.prods.iter().enumerate() {
            prods_of[p.lhs.index()].push(ProdId(i as u32));
        }

        Ok(Grammar {
            symbols: self.symbols,
            by_name: self.by_name,
            prods: self.prods,
            prods_of,
            start,
            goal,
            eof,
            accept_prod,
        })
    }
}

/// A frozen, augmented context-free grammar.
///
/// Productions added by the user keep their ids; one extra production
/// (`__goal ::= start`) is appended during [`GrammarBuilder::build`].
#[derive(Clone, Debug)]
pub struct Grammar {
    symbols: Vec<SymbolInfo>,
    by_name: HashMap<String, SymbolId>,
    prods: Vec<Production>,
    prods_of: Vec<Vec<ProdId>>,
    start: SymbolId,
    goal: SymbolId,
    eof: SymbolId,
    accept_prod: ProdId,
}

impl Grammar {
    /// Total number of symbols, including the augmentation symbols.
    pub fn n_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// Total number of productions, including the augmentation production.
    pub fn n_prods(&self) -> usize {
        self.prods.len()
    }

    /// Number of user-written productions (excludes `__goal ::= start`).
    pub fn n_user_prods(&self) -> usize {
        self.prods.len() - 1
    }

    /// The user's start symbol.
    pub fn start_symbol(&self) -> SymbolId {
        self.start
    }

    /// The augmented goal symbol.
    pub fn goal_symbol(&self) -> SymbolId {
        self.goal
    }

    /// The reserved end-of-input terminal.
    pub fn eof(&self) -> SymbolId {
        self.eof
    }

    /// The augmentation production `__goal ::= start`.
    pub fn accept_prod(&self) -> ProdId {
        self.accept_prod
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<SymbolId> {
        self.by_name.get(name).copied()
    }

    /// The name a symbol was declared with.
    pub fn symbol_name(&self, s: SymbolId) -> &str {
        &self.symbols[s.index()].name
    }

    /// Whether `s` is a terminal or nonterminal.
    pub fn kind(&self, s: SymbolId) -> SymbolKind {
        self.symbols[s.index()].kind
    }

    /// `true` if `s` is a terminal.
    pub fn is_terminal(&self, s: SymbolId) -> bool {
        self.kind(s) == SymbolKind::Terminal
    }

    /// Declared precedence of a terminal, if any.
    pub fn symbol_prec(&self, s: SymbolId) -> Option<(u32, Assoc)> {
        self.symbols[s.index()].prec
    }

    /// Effective precedence of a production, if any.
    pub fn prod_prec(&self, p: ProdId) -> Option<(u32, Assoc)> {
        self.prods[p.index()].prec
    }

    /// Left-hand side of production `p`.
    pub fn lhs(&self, p: ProdId) -> SymbolId {
        self.prods[p.index()].lhs
    }

    /// Right-hand side of production `p`.
    pub fn rhs(&self, p: ProdId) -> &[SymbolId] {
        &self.prods[p.index()].rhs
    }

    /// The label given to production `p`.
    pub fn prod_label(&self, p: ProdId) -> &str {
        &self.prods[p.index()].label
    }

    /// Looks up a production by its label.
    pub fn prod_by_label(&self, label: &str) -> Option<ProdId> {
        (0..self.prods.len())
            .map(|i| ProdId(i as u32))
            .find(|p| self.prods[p.index()].label == label)
    }

    /// Productions whose LHS is `nt`.
    pub fn prods_of(&self, nt: SymbolId) -> &[ProdId] {
        &self.prods_of[nt.index()]
    }

    /// Iterates over all production ids.
    pub fn prod_ids(&self) -> impl Iterator<Item = ProdId> + '_ {
        (0..self.prods.len() as u32).map(ProdId)
    }

    /// Iterates over all symbol ids.
    pub fn symbol_ids(&self) -> impl Iterator<Item = SymbolId> + '_ {
        (0..self.symbols.len() as u32).map(SymbolId)
    }

    /// Iterates over all terminal ids.
    pub fn terminals(&self) -> impl Iterator<Item = SymbolId> + '_ {
        self.symbol_ids().filter(|s| self.is_terminal(*s))
    }

    /// Iterates over all nonterminal ids.
    pub fn nonterminals(&self) -> impl Iterator<Item = SymbolId> + '_ {
        self.symbol_ids().filter(|s| !self.is_terminal(*s))
    }

    /// Renders a production as `lhs ::= a b c`.
    pub fn display_prod(&self, p: ProdId) -> String {
        let mut s = format!("{} ::=", self.symbol_name(self.lhs(p)));
        for &r in self.rhs(p) {
            s.push(' ');
            s.push_str(self.symbol_name(r));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> GrammarBuilder {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        g.prod(s, &[a.into()], "s_a");
        g.start(s);
        g
    }

    #[test]
    fn builds_and_augments() {
        let g = toy().build().unwrap();
        assert_eq!(g.n_user_prods(), 1);
        assert_eq!(g.n_prods(), 2);
        assert_eq!(g.lhs(g.accept_prod()), g.goal_symbol());
        assert_eq!(g.rhs(g.accept_prod()), &[g.start_symbol()]);
        assert!(g.is_terminal(g.eof()));
    }

    #[test]
    fn interning_is_stable() {
        let mut g = GrammarBuilder::new();
        let a1 = g.terminal("a");
        let a2 = g.terminal("a");
        assert_eq!(a1, a2);
    }

    #[test]
    #[should_panic(expected = "declared as both")]
    fn kind_conflict_panics() {
        let mut g = GrammarBuilder::new();
        g.terminal("x");
        g.nonterminal("x");
    }

    #[test]
    fn no_start_error() {
        let g = GrammarBuilder::new().build();
        assert_eq!(g.unwrap_err(), GrammarError::NoStart);
    }

    #[test]
    fn undefined_nonterminal_error() {
        let mut g = GrammarBuilder::new();
        let s = g.nonterminal("s");
        let t = g.nonterminal("t");
        g.prod(s, &[t.into()], "s_t");
        g.start(s);
        assert_eq!(
            g.build().unwrap_err(),
            GrammarError::UndefinedNonterminal("t".into())
        );
    }

    #[test]
    fn duplicate_label_error() {
        let mut g = toy();
        let s = g.nonterminal("s");
        let a = g.terminal("a");
        g.prod(s, &[a.into(), a.into()], "s_a");
        assert_eq!(
            g.build().unwrap_err(),
            GrammarError::DuplicateLabel("s_a".into())
        );
    }

    #[test]
    fn production_precedence_from_rightmost_terminal() {
        let mut g = GrammarBuilder::new();
        let plus = g.terminal("+");
        let star = g.terminal("*");
        let num = g.terminal("num");
        let e = g.nonterminal("e");
        g.precedence(plus, 1, Assoc::Left);
        g.precedence(star, 2, Assoc::Left);
        let p_add = g.prod(e, &[e.into(), plus.into(), e.into()], "add");
        let p_mul = g.prod(e, &[e.into(), star.into(), e.into()], "mul");
        let p_num = g.prod(e, &[num.into()], "num");
        g.start(e);
        let g = g.build().unwrap();
        assert_eq!(g.prod_prec(p_add), Some((1, Assoc::Left)));
        assert_eq!(g.prod_prec(p_mul), Some((2, Assoc::Left)));
        assert_eq!(g.prod_prec(p_num), None);
    }

    #[test]
    fn prod_prec_override() {
        let mut g = GrammarBuilder::new();
        let minus = g.terminal("-");
        let uminus = g.terminal("UMINUS");
        let num = g.terminal("num");
        let e = g.nonterminal("e");
        g.precedence(minus, 1, Assoc::Left);
        g.precedence(uminus, 3, Assoc::Right);
        let neg = g.prod(e, &[minus.into(), e.into()], "neg");
        g.prod(e, &[num.into()], "num");
        g.prod_prec(neg, uminus);
        g.start(e);
        let g = g.build().unwrap();
        assert_eq!(g.prod_prec(neg), Some((3, Assoc::Right)));
    }

    #[test]
    fn display_and_lookup() {
        let g = toy().build().unwrap();
        let p = g.prod_by_label("s_a").unwrap();
        assert_eq!(g.display_prod(p), "s ::= a");
        assert_eq!(g.symbol("s"), Some(g.start_symbol()));
        assert_eq!(g.prods_of(g.start_symbol()).len(), 1);
    }
}
