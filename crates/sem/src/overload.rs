//! Overload resolution: bottom-up candidate filtering plus top-down
//! expected-type selection — the semantic half of resolving the `X(Y)`
//! family and overloaded operators, enumeration literals, and subprograms.

use std::rc::Rc;

use ag_intern::{Symbol, ToSym};
use vhdl_vif::{kinds, VifNode};

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
    cands
        .iter()
        .filter(|c| {
            let k = c.kind_sym();
            if k == kinds::enumlit() {
                args.is_empty()
            } else if k == kinds::subprog() {
                let params = subprog_params(c);
                if args.len() > params.len() {
                    return false;
                }
                // Positional prefix then named; every parameter must be
                // satisfied by an argument or a default.
                let mut used = vec![false; params.len()];
                let mut ok = true;
                for (i, a) in args.iter().enumerate() {
                    match a {
                        ArgShape::Pos(tys) => {
                            if i >= params.len() {
                                ok = false;
                                break;
                            }
                            let want = crate::decl::obj_ty(&params[i]).expect("typed param");
                            if !offers(tys, &want) {
                                ok = false;
                                break;
                            }
                            used[i] = true;
                        }
                        ArgShape::Named(name, tys) => {
                            match params.iter().position(|p| p.name_sym() == Some(*name)) {
                                Some(pi) if !used[pi] => {
                                    let want =
                                        crate::decl::obj_ty(&params[pi]).expect("typed param");
                                    if !offers(tys, &want) {
                                        ok = false;
                                        break;
                                    }
                                    used[pi] = true;
                                }
                                _ => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        ArgShape::Open => {
                            if i < params.len() {
                                used[i] = true;
                            }
                        }
                        ArgShape::Range => {
                            // Subprograms never take ranges.
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    return false;
                }
                // Unsatisfied parameters need defaults.
                params
                    .iter()
                    .zip(&used)
                    .all(|(p, u)| *u || p.field("init").is_some())
            } else {
                false
            }
        })
        .cloned()
        .collect()
}

/// Result type a candidate yields when *used as a value*.
pub fn result_type(cand: &Rc<VifNode>) -> Option<Ty> {
    let k = cand.kind_sym();
    if k == kinds::enumlit() {
        cand.node_field("ty").cloned()
    } else if k == kinds::subprog() {
        subprog_ret(cand)
    } else {
        None
    }
}

/// All result types of a candidate set (procedures yield the void marker).
pub fn result_types(cands: &[Rc<VifNode>]) -> Vec<Ty> {
    cands
        .iter()
        .map(|c| result_type(c).unwrap_or_else(types::void_marker))
        .collect()
}

/// Picks the unique candidate compatible with `expected`. `None` expected
/// keeps every candidate; exactly one survivor wins. When several survive
/// but exactly one has a non-universal result, that one wins (literal
/// preference).
pub fn pick(cands: &[Rc<VifNode>], expected: Option<&Ty>) -> Result<Rc<VifNode>, PickError> {
    // The same declaration may be visible along several paths (spec bound
    // in a package and re-bound at its body); duplicates by uid are one
    // candidate, not an ambiguity.
    let mut seen = std::collections::HashSet::<&str>::new();
    let deduped: Vec<Rc<VifNode>> = cands
        .iter()
        .filter(|c| seen.insert(c.str_field("uid").unwrap_or("?")))
        .cloned()
        .collect();
    let cands = &deduped;
    let surviving: Vec<&Rc<VifNode>> = cands
        .iter()
        .filter(|c| match expected {
            None => true,
            Some(want) => {
                if types::is_void_marker(want) {
                    result_type(c).is_none() // procedures only
                } else {
                    result_type(c).is_some_and(|rt| types::compatible(&rt, want))
                }
            }
        })
        .collect();
    match surviving.len() {
        0 => Err(PickError::NoMatch),
        1 => Ok(Rc::clone(surviving[0])),
        _ => Err(PickError::Ambiguous(
            surviving.iter().map(|c| describe(c)).collect(),
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
    let k = cand.kind_sym();
    if k == kinds::enumlit() {
        format!(
            "literal {} of {}",
            cand.name().unwrap_or("?"),
            cand.node_field("ty").and_then(|t| t.name()).unwrap_or("?")
        )
    } else if k == kinds::subprog() {
        let params: Vec<String> = subprog_params(cand)
            .iter()
            .map(|p| {
                crate::decl::obj_ty(p)
                    .and_then(|t| t.name().map(str::to_string))
                    .unwrap_or_else(|| "?".into())
            })
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
    } else {
        k.to_string()
    }
}

/// Resolves a unary/binary operator application: looks `sym` up in `env`,
/// filters by operand types, and returns the matching candidates.
pub fn operator_candidates(env: &Env, sym: impl ToSym, operands: &[&[Ty]]) -> Vec<Rc<VifNode>> {
    let cands: Vec<Rc<VifNode>> = env.lookup(sym).into_iter().map(|d| d.node).collect();
    let shapes: Vec<ArgShape> = operands.iter().map(|t| ArgShape::Pos(t.to_vec())).collect();
    filter_by_args(&cands, &shapes)
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
        let int = vec![Rc::clone(&s.std.integer)];
        let cands = operator_candidates(&s.env, "+", &[&int, &int]);
        assert_eq!(cands.len(), 1, "only integer + integer");
        let rt = result_types(&cands);
        assert!(types::same_base(&rt[0], &s.std.integer));
        // time + time also unique.
        let t = vec![Rc::clone(&s.std.time)];
        let cands = operator_candidates(&s.env, "+", &[&t, &t]);
        assert_eq!(cands.len(), 1);
        // integer + time: nothing.
        assert!(operator_candidates(&s.env, "+", &[&int, &t]).is_empty());
    }

    #[test]
    fn universal_literals_keep_options_until_expected() {
        let s = standard(EnvKind::Tree);
        let uni = vec![types::universal_int()];
        // 1 + 1 could be integer or time? No: universal int only converts
        // to integer types, so "+" on two universals matches integer (and
        // any other user integer type — here only integer).
        let cands = operator_candidates(&s.env, "+", &[&uni, &uni]);
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
