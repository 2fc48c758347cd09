//! Overload resolution: bottom-up candidate filtering plus top-down
//! expected-type selection — the semantic half of resolving the `X(Y)`
//! family and overloaded operators, enumeration literals, and subprograms.

use std::rc::Rc;

use ag_intern::{Symbol, ToSym};
use vhdl_vif::{Field, Kind, VifNode};

use crate::decl::{subprog_params, subprog_ret};
use crate::env::Env;
use crate::types::{self, Ty};

/// A positional/named/range argument's bottom-up information.
#[derive(Clone, Debug)]
pub enum ArgShape {
    /// Positional argument with candidate types (empty = context-typed,
    /// e.g. an aggregate or string literal: matches anything).
    Pos(Vec<Ty>),
    /// Named argument `formal => expr`.
    Named(Symbol, Vec<Ty>),
    /// A syntactic or attribute range (slice or iteration).
    Range,
    /// `open`.
    Open,
}

/// `true` when an expression offering `cands` (empty = context-typed) can
/// take type `want`.
pub fn offers(cands: &[Ty], want: &Ty) -> bool {
    cands.is_empty() || cands.iter().any(|c| types::compatible(c, want))
}

/// Filters an overload set down to candidates whose profile matches the
/// argument shapes. `enumlit` candidates match only zero-argument use.
pub fn filter_by_args(cands: &[Rc<VifNode>], args: &[ArgShape]) -> Vec<Rc<VifNode>> {
    cands.iter().filter(|c| takes(c, args)).cloned().collect()
}

/// `true` when `cand` can be applied to arguments shaped `args`: a
/// positional prefix then named arguments, every parameter satisfied by
/// an argument or a default.
fn takes(cand: &VifNode, args: &[ArgShape]) -> bool {
    match cand.tag() {
        Kind::enumlit => return args.is_empty(),
        Kind::subprog => {}
        _ => return false,
    }
    let params = cand.list_field(Field::params);
    if args.len() > params.len() {
        return false;
    }
    let param = |i: usize| params[i].as_node().expect("parameter node");
    let offers_param = |tys: &[Ty], i: usize| offers(tys, param(i).node(Field::ty));
    // Whether one of the first `n` arguments satisfies parameter `i`.
    let used = |i: usize, n: usize| {
        args[..n].iter().enumerate().any(|(j, a)| match a {
            ArgShape::Pos(_) | ArgShape::Open => j == i,
            ArgShape::Named(name, _) => param(i).name_sym() == Some(*name),
            ArgShape::Range => false,
        })
    };
    for (i, a) in args.iter().enumerate() {
        let ok = match a {
            ArgShape::Pos(tys) => offers_param(tys, i),
            ArgShape::Named(name, tys) => {
                match (0..params.len()).find(|&pi| param(pi).name_sym() == Some(*name)) {
                    Some(pi) => !used(pi, i) && offers_param(tys, pi),
                    None => false,
                }
            }
            ArgShape::Open => true,
            // Subprograms never take ranges.
            ArgShape::Range => false,
        };
        if !ok {
            return false;
        }
    }
    (0..params.len()).all(|i| used(i, args.len()) || param(i).field(Field::init).is_some())
}

/// Result type a candidate yields when *used as a value*.
pub fn result_type(cand: &Rc<VifNode>) -> Option<Ty> {
    match cand.tag() {
        Kind::enumlit => Some(Rc::clone(cand.node(Field::ty))),
        Kind::subprog => subprog_ret(cand),
        _ => None,
    }
}

/// All result types of a candidate set (procedures yield the void marker).
pub fn result_types(cands: &[Rc<VifNode>]) -> impl Iterator<Item = Ty> + '_ {
    cands
        .iter()
        .map(|c| result_type(c).unwrap_or_else(types::void_marker))
}

/// Picks the unique candidate compatible with `expected`. `None` expected
/// keeps every candidate; exactly one survivor wins.
pub fn pick(cands: &[Rc<VifNode>], expected: Option<&Ty>) -> Result<Rc<VifNode>, PickError> {
    let fits = |c: &Rc<VifNode>| match expected {
        None => true,
        // Procedures only.
        Some(want) if types::is_void_marker(want) => result_type(c).is_none(),
        Some(want) => result_type(c).is_some_and(|rt| types::compatible(&rt, want)),
    };
    // The same declaration may be visible along several paths (spec bound
    // in a package and re-bound at its body); duplicates by uid are one
    // candidate, not an ambiguity.
    let mut surviving = cands
        .iter()
        .enumerate()
        .filter(|&(i, c)| fits(c) && !cands[..i].iter().any(|d| types::uid(d) == types::uid(c)))
        .map(|(_, c)| c);
    match (surviving.next(), surviving.next()) {
        (None, _) => Err(PickError::NoMatch),
        (Some(c), None) => Ok(Rc::clone(c)),
        (Some(a), Some(b)) => Err(PickError::Ambiguous(
            [a, b]
                .into_iter()
                .chain(surviving)
                .map(|c| describe(c))
                .collect(),
        )),
    }
}

/// Why [`pick`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PickError {
    /// No candidate matches the context.
    NoMatch,
    /// Several candidates match; their descriptions are listed.
    Ambiguous(Vec<String>),
}

/// Human-readable candidate description for diagnostics.
pub fn describe(cand: &VifNode) -> String {
    match cand.tag() {
        Kind::enumlit => format!(
            "literal {} of {}",
            cand.name().unwrap_or("?"),
            cand.node(Field::ty).name().unwrap_or("?")
        ),
        Kind::subprog => {
            let params: Vec<&str> = subprog_params(cand)
                .iter()
                .map(|p| p.node(Field::ty).name().unwrap_or("?"))
                .collect();
            match subprog_ret(cand) {
                Some(r) => format!(
                    "function {}({}) return {}",
                    cand.name().unwrap_or("?"),
                    params.join(", "),
                    r.name().unwrap_or("?")
                ),
                None => format!(
                    "procedure {}({})",
                    cand.name().unwrap_or("?"),
                    params.join(", ")
                ),
            }
        }
        _ => cand.kind().to_string(),
    }
}

/// Resolves a unary/binary operator application: looks `sym` up in `env`
/// and keeps the candidates that take `operands`.
pub fn operator_candidates(env: &Env, sym: impl ToSym, operands: &[ArgShape]) -> Vec<Rc<VifNode>> {
    env.lookup(sym)
        .into_iter()
        .map(|d| d.node)
        .filter(|c| takes(c, operands))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::{mk_subprog, Param};
    use crate::env::EnvKind;
    use crate::standard::standard;

    #[test]
    fn binop_resolution_filters_by_operands() {
        let s = standard(EnvKind::Tree);
        let int = ArgShape::Pos(vec![Rc::clone(&s.std.integer)]);
        let cands = operator_candidates(&s.env, "+", &[int.clone(), int.clone()]);
        assert_eq!(cands.len(), 1, "only integer + integer");
        let rt: Vec<Ty> = result_types(&cands).collect();
        assert!(types::same_base(&rt[0], &s.std.integer));
        // time + time also unique.
        let t = ArgShape::Pos(vec![Rc::clone(&s.std.time)]);
        let cands = operator_candidates(&s.env, "+", &[t.clone(), t.clone()]);
        assert_eq!(cands.len(), 1);
        // integer + time: nothing.
        assert!(operator_candidates(&s.env, "+", &[int, t]).is_empty());
    }

    #[test]
    fn universal_literals_keep_options_until_expected() {
        let s = standard(EnvKind::Tree);
        let uni = ArgShape::Pos(vec![types::universal_int()]);
        // 1 + 1 could be integer or time? No: universal int only converts
        // to integer types, so "+" on two universals matches integer (and
        // any other user integer type — here only integer).
        let cands = operator_candidates(&s.env, "+", &[uni.clone(), uni]);
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn pick_by_expected() {
        let s = standard(EnvKind::Tree);
        let zeros: Vec<Rc<VifNode>> = s.env.lookup("'0'").into_iter().map(|d| d.node).collect();
        assert_eq!(zeros.len(), 2);
        let picked = pick(&zeros, Some(&s.std.bit)).unwrap();
        assert!(types::same_base(
            &picked.node_field("ty").cloned().unwrap(),
            &s.std.bit
        ));
        assert!(matches!(pick(&zeros, None), Err(PickError::Ambiguous(_))));
        assert_eq!(pick(&zeros, Some(&s.std.integer)), Err(PickError::NoMatch));
    }

    #[test]
    fn named_and_default_parameters() {
        let s = standard(EnvKind::Tree);
        let int = &s.std.integer;
        let with_default = mk_subprog(
            "f".into(),
            "f",
            vec![
                Param::value("a", int),
                Param {
                    default: Some(crate::ir::e_int(1, int)),
                    ..Param::value("b", int)
                },
            ],
            Some(int),
            None,
        );
        let cands = vec![with_default];
        // One positional arg: ok (b defaults).
        let got = filter_by_args(&cands, &[ArgShape::Pos(vec![Rc::clone(int)])]);
        assert_eq!(got.len(), 1);
        // Named b only: missing a (no default) — rejected.
        let got = filter_by_args(&cands, &[ArgShape::Named("b".into(), vec![Rc::clone(int)])]);
        assert!(got.is_empty());
        // a positional + named b.
        let got = filter_by_args(
            &cands,
            &[
                ArgShape::Pos(vec![Rc::clone(int)]),
                ArgShape::Named("b".into(), vec![Rc::clone(int)]),
            ],
        );
        assert_eq!(got.len(), 1);
        // Unknown named formal.
        let got = filter_by_args(
            &cands,
            &[ArgShape::Named("zz".into(), vec![Rc::clone(int)])],
        );
        assert!(got.is_empty());
        // Too many args.
        let three = vec![
            ArgShape::Pos(vec![]),
            ArgShape::Pos(vec![]),
            ArgShape::Pos(vec![]),
        ];
        assert!(filter_by_args(&cands, &three).is_empty());
    }

    #[test]
    fn enumlit_matches_only_bare() {
        let s = standard(EnvKind::Tree);
        let t: Vec<Rc<VifNode>> = s.env.lookup("true").into_iter().map(|d| d.node).collect();
        assert_eq!(filter_by_args(&t, &[]).len(), 1);
        assert!(filter_by_args(&t, &[ArgShape::Pos(vec![])]).is_empty());
    }

    #[test]
    fn describe_is_informative() {
        let s = standard(EnvKind::Tree);
        let plus: Vec<Rc<VifNode>> = s.env.lookup("+").into_iter().map(|d| d.node).collect();
        let d = describe(&plus[0]);
        assert!(d.starts_with("function +("), "{d}");
    }
}
