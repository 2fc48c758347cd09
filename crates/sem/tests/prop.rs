//! Property tests for the semantic substrate: the three environment
//! representations against a reference model, constant folding against
//! `i64` arithmetic, and lexer round-trips.
//!
//! Ported from proptest to the in-repo `ag-harness` framework; the input
//! space and every invariant are unchanged.

use std::rc::Rc;

use ag_harness::{check, check_eq, forall, Config, Source};
use vhdl_sem::env::{Den, Env, EnvKind};
use vhdl_sem::ir;
use vhdl_sem::types;
use vhdl_syntax::lexer::lex;
use vhdl_vif::VifNode;

/// Reference model: ordered binding log.
#[derive(Default)]
struct Model {
    log: Vec<(String, Rc<VifNode>)>,
}

impl Model {
    fn bind(&mut self, name: &str, node: Rc<VifNode>) {
        self.log.push((name.to_string(), node));
    }

    /// The homograph rule, straight from its definition.
    fn lookup(&self, name: &str) -> Vec<Rc<VifNode>> {
        let mut out = Vec::new();
        for (n, node) in self.log.iter().rev() {
            if n != name {
                continue;
            }
            let ovl = matches!(node.kind(), "subprog" | "enumlit" | "physunit");
            if ovl {
                out.push(Rc::clone(node));
            } else {
                if out.is_empty() {
                    out.push(Rc::clone(node));
                }
                break;
            }
        }
        out
    }
}

#[derive(Debug, Clone)]
enum OpKind {
    BindObj(u8),
    BindSubprog(u8),
    Lookup(u8),
    Snapshot,
}

fn op(s: &mut Source) -> OpKind {
    match s.usize_in(0, 3) {
        0 => OpKind::BindObj(s.u64_in(0, 7) as u8),
        1 => OpKind::BindSubprog(s.u64_in(0, 7) as u8),
        2 => OpKind::Lookup(s.u64_in(0, 7) as u8),
        _ => OpKind::Snapshot,
    }
}

/// All three env representations agree with the model under random
/// operation sequences, including snapshots (old versions must keep
/// answering with their old contents).
#[test]
fn env_reprs_match_model() {
    forall!(Config::new("env_reprs_match_model").cases(128), |s| {
        let ops = s.vec(1, 59, op);
        for kind in [EnvKind::List, EnvKind::Tree, EnvKind::MutBaseline] {
            let mut env = Env::new(kind);
            let mut model = Model::default();
            let mut snapshots: Vec<(Env, usize)> = Vec::new();
            for op in &ops {
                match op {
                    OpKind::BindObj(i) => {
                        let name = format!("n{i}");
                        let node = VifNode::build("obj").name(name.as_str()).done();
                        model.bind(&name, Rc::clone(&node));
                        env = env.bind(&name, Den::local(node));
                    }
                    OpKind::BindSubprog(i) => {
                        let name = format!("n{i}");
                        let node = VifNode::build("subprog").name(name.as_str()).done();
                        model.bind(&name, Rc::clone(&node));
                        env = env.bind(&name, Den::local(node));
                    }
                    OpKind::Lookup(i) => {
                        let name = format!("n{i}");
                        let got: Vec<_> = env.lookup(&name).into_iter().map(|d| d.node).collect();
                        let want = model.lookup(&name);
                        check_eq!(got.len(), want.len());
                        for (g, w) in got.iter().zip(&want) {
                            check!(Rc::ptr_eq(g, w));
                        }
                    }
                    OpKind::Snapshot => {
                        snapshots.push((env.clone(), model.log.len()));
                    }
                }
            }
            // Old snapshots still see exactly their old contents.
            for (snap, len) in snapshots {
                let old = Model {
                    log: model.log[..len].to_vec(),
                };
                for i in 0u8..8 {
                    let name = format!("n{i}");
                    let got: Vec<_> = snap.lookup(&name).into_iter().map(|d| d.node).collect();
                    let want = old.lookup(&name);
                    check_eq!(got.len(), want.len(), "snapshot isolation ({:?})", kind);
                }
            }
        }
    });
}

/// Constant folding of builtin calls equals checked i64 arithmetic.
#[test]
fn const_folding_matches_i64() {
    forall!(Config::new("const_folding_matches_i64").cases(128), |s| {
        let a = s.i64_in(-10_000, 9_999);
        let b = s.i64_in(-10_000, 9_999);
        let int = types::mk_int(
            "integer".into(),
            "integer",
            i32::MIN as i64,
            i32::MAX as i64,
        );
        for (sym, code) in [
            ("+", "add"),
            ("-", "sub"),
            ("*", "mul"),
            ("/", "div"),
            ("mod", "mod"),
            ("rem", "rem"),
        ] {
            let op = vhdl_sem::decl::mk_binop(sym.to_string(), sym, &int, &int, &int, code);
            let call = ir::e_call(&op, vec![ir::e_int(a, &int), ir::e_int(b, &int)], &int);
            let want = match code {
                "add" => a.checked_add(b),
                "sub" => a.checked_sub(b),
                "mul" => a.checked_mul(b),
                "div" => a.checked_div(b),
                "mod" => a.checked_rem_euclid(b),
                _ => a.checked_rem(b),
            };
            check_eq!(ir::const_int(&call), want, "{} {} {}", a, sym, b);
        }
    });
}

/// The lexer round-trips identifier/number/punctuation streams:
/// re-lexing the joined token text yields the same kinds and texts.
#[test]
fn lexer_round_trip() {
    forall!(Config::new("lexer_round_trip").cases(128), |s| {
        let words = s.vec(1, 19, |s| match s.usize_in(0, 5) {
            0 => s.string_from(
                "abcdefghijklmnopqrstuvwxyz",
                "abcdefghijklmnopqrstuvwxyz0123456789_",
                6,
            ),
            1 => s.u64_in(0, 99_999).to_string(),
            2 => "<=".to_string(),
            3 => ":=".to_string(),
            4 => "(".to_string(),
            _ => (*s.pick(&[")", "+", "=>"])).to_string(),
        });
        let src = words.join(" ");
        let t1 = lex(&src).unwrap();
        let rendered: Vec<String> = t1.iter().map(|t| t.text.to_string()).collect();
        let t2 = lex(&rendered.join(" ")).unwrap();
        check_eq!(t1.len(), t2.len());
        for (a, b) in t1.iter().zip(&t2) {
            check_eq!(a.kind, b.kind);
            check_eq!(&a.text, &b.text);
        }
    });
}

/// Every expression the generator can produce analyzes without
/// internal panics (errors are fine; crashes are not).
#[test]
fn expr_eval_total() {
    forall!(Config::new("expr_eval_total").cases(128), |s| {
        let n1 = s.i64_in(-50, 49);
        let n2 = s.i64_in(1, 49);
        let pick = s.usize_in(0, 5);
        let sem = vhdl_sem::standard::standard(EnvKind::Tree);
        let srcs = [
            format!("{n1} + {n2}"),
            format!("{n1} * ({n2} - 3) mod {n2}"),
            format!("{n1} < {n2} and true"),
            format!("({n1} + {n2}) ** 2"),
            format!("{n1} / {n2} + abs {n1}"),
            format!("not ({n1} = {n2})"),
        ];
        let toks = lex(&srcs[pick]).unwrap();
        let _ = vhdl_sem::expr_ag::expr_eval(&toks, &sem.env, None, None);
    });
}
