//! Pins the principal and expression grammars exactly: symbol names in
//! id order, every production as `(label, lhs, rhs)`, an FNV-1a hash of
//! each LALR table (ACTION and GOTO), and the number of transparent
//! productions each attribute grammar flags. Any change to a vocabulary's
//! order, a production or a table fails here; the failure message prints
//! the new digest and the listings it was computed from.

use ag_lalr::{Action, Grammar, ParseTable};
use vhdl_sem::expr_ag::{ExprAg, ExprTables};
use vhdl_sem::principal_ag::PrincipalAg;
use vhdl_syntax::PrincipalGrammar;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Digest {
    symbols: usize,
    prods: usize,
    states: usize,
    names: u64,
    productions: u64,
    action: u64,
    goto: u64,
    transparent: usize,
}

/// Symbol names in id order, one per line.
fn symbol_listing(g: &Grammar) -> String {
    g.symbol_ids()
        .map(|s| format!("{} {}\n", s.index(), g.symbol_name(s)))
        .collect()
}

/// Every production as `label: lhs -> rhs`, one per line.
fn production_listing(g: &Grammar) -> String {
    g.prod_ids()
        .map(|p| {
            let rhs: Vec<&str> = g.rhs(p).iter().map(|&s| g.symbol_name(s)).collect();
            format!(
                "{}: {} -> {}\n",
                g.prod_label(p),
                g.symbol_name(g.lhs(p)),
                rhs.join(" ")
            )
        })
        .collect()
}

fn digest(g: &Grammar, t: &ParseTable, transparent: &[bool]) -> Digest {
    let hash = |s: &str| {
        let mut h = Fnv::new();
        h.bytes(s.as_bytes());
        h.0
    };
    let (mut action, mut goto) = (Fnv::new(), Fnv::new());
    for state in 0..t.n_states() as u32 {
        for s in g.terminals() {
            match t.action(state, s) {
                Action::Error => action.u32(0),
                Action::Shift(to) => {
                    action.u32(1);
                    action.u32(to);
                }
                Action::Reduce(p) => {
                    action.u32(2);
                    action.u32(p.index() as u32);
                }
                Action::Accept => action.u32(3),
            }
        }
        for s in g.nonterminals() {
            goto.u32(t.goto(state, s).map_or(u32::MAX, |to| to));
        }
    }
    Digest {
        symbols: g.n_symbols(),
        prods: g.n_prods(),
        states: t.n_states(),
        names: hash(&symbol_listing(g)),
        productions: hash(&production_listing(g)),
        action: action.0,
        goto: goto.0,
        transparent: transparent.iter().filter(|&&f| f).count(),
    }
}

fn check(what: &str, g: &Grammar, got: Digest, want: Digest) {
    assert_eq!(
        got,
        want,
        "{what} grammar changed; the new digest is `left`. Symbols:\n{}Productions:\n{}",
        symbol_listing(g),
        production_listing(g)
    );
}

#[test]
fn principal_grammar_digest() {
    let pg = PrincipalGrammar::shared();
    let pag = PrincipalAg::build(pg);
    let g = pg.grammar();
    let got = digest(&g, pg.table(), pag.ag.transparent());
    let want = Digest {
        symbols: 223,
        prods: 289,
        states: 547,
        names: 2168000401375925075,
        productions: 5573517082738568293,
        action: 12416964906243335949,
        goto: 4395961838505137226,
        transparent: 52,
    };
    check("principal", &g, got, want);
}

#[test]
fn expression_grammar_digest() {
    let xt = ExprTables::shared();
    let xag = ExprAg::build(xt);
    let got = digest(&xt.grammar, &xt.table, xag.ag.transparent());
    let want = Digest {
        symbols: 59,
        prods: 68,
        states: 115,
        names: 5569010644214437322,
        productions: 5094698727314445525,
        action: 3348624869272050059,
        goto: 16919747221426545734,
        transparent: 11,
    };
    check("expression", &xt.grammar, got, want);
}
