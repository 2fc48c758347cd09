//! The attribute value type of both VHDL attribute grammars.
//!
//! Linguist attributes are dynamically typed; [`Value`] plays that role
//! here. Every semantic rule maps `&[Value] -> Value`.

use std::rc::Rc;

use vhdl_syntax::SrcTok;
use vhdl_vif::VifNode;

use crate::env::Env;
use crate::lef::LefTok;
use crate::msg::Msgs;

/// A name's denotation in the expression AG — what a *name* means before
/// it is coerced to a value (the heart of resolving `X(Y)`, §4.1).
#[derive(Clone, Debug)]
pub enum DenVal {
    /// A value-producing name (object reference, indexed/selected name,
    /// resolved call). Carries the root object denotation when the name is
    /// rooted in an object — needed to find user-defined attributes
    /// (§3.2).
    ValueLike(Option<Rc<VifNode>>),
    /// An unresolved overload set of `subprog`/`enumlit` nodes.
    Overloads(Rc<Vec<Rc<VifNode>>>),
    /// Analysis already failed; suppress cascading errors.
    Error,
}

/// Dynamically typed attribute value.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// Unit/absent.
    #[default]
    Unit,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// String.
    Str(Rc<str>),
    /// A VIF node (type, denotation, IR, unit).
    Node(Rc<VifNode>),
    /// An optional VIF node (e.g. expected type: unknown).
    MaybeNode(Option<Rc<VifNode>>),
    /// Generic list.
    List(Rc<Vec<Value>>),
    /// An environment.
    Env(Env),
    /// LEF token list (built applicatively by concatenation).
    Lef(Rc<Vec<LefTok>>),
    /// Diagnostics.
    Msgs(Msgs),
    /// A source token (leaf values).
    Tok(SrcTok),
    /// A name denotation (expression AG).
    Den(DenVal),
    /// Analysis context (library loader and predefined types) threaded
    /// through the principal AG as an inherited attribute.
    Ctx(Rc<crate::analyze::Actx>),
}

/// A principal-grammar leaf becomes a value when a rule demands it.
impl From<SrcTok> for Value {
    fn from(t: SrcTok) -> Value {
        Value::Tok(t)
    }
}

impl Value {
    /// Wraps a node.
    pub fn node(n: Rc<VifNode>) -> Value {
        Value::Node(n)
    }

    /// Wraps a list.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(items))
    }

    /// Empty list.
    pub fn empty_list() -> Value {
        Value::List(Rc::new(Vec::new()))
    }

    /// Concatenates two list values (merge function for list classes).
    pub fn concat_lists(a: &Value, b: &Value) -> Value {
        match (a, b) {
            (Value::List(x), Value::List(y)) => {
                if x.is_empty() {
                    Value::List(Rc::clone(y))
                } else if y.is_empty() {
                    Value::List(Rc::clone(x))
                } else {
                    let mut v = (**x).clone();
                    v.extend(y.iter().cloned());
                    Value::list(v)
                }
            }
            (Value::Unit, y) => y.clone(),
            (x, Value::Unit) => x.clone(),
            _ => panic!("concat_lists on non-lists: {a:?} / {b:?}"),
        }
    }

    /// Concatenates LEF lists (merge function for the `LEF` class).
    pub fn concat_lef(a: &Value, b: &Value) -> Value {
        match (a, b) {
            (Value::Lef(x), Value::Lef(y)) => {
                if x.is_empty() {
                    Value::Lef(Rc::clone(y))
                } else if y.is_empty() {
                    Value::Lef(Rc::clone(x))
                } else {
                    let mut v = (**x).clone();
                    v.extend(y.iter().cloned());
                    Value::Lef(Rc::new(v))
                }
            }
            (Value::Unit, y) => y.clone(),
            (x, Value::Unit) => x.clone(),
            _ => panic!("concat_lef on non-lef values: {a:?} / {b:?}"),
        }
    }

    /// Merges message values (merge function for the `MSGS` class).
    pub fn concat_msgs(a: &Value, b: &Value) -> Value {
        Value::Msgs(Msgs::concat(a.as_msgs(), b.as_msgs()))
    }

    /// As node; panics otherwise (rule-internal contract violations are
    /// compiler bugs, not user errors).
    pub fn expect_node(&self) -> Rc<VifNode> {
        match self {
            Value::Node(n) => Rc::clone(n),
            v => panic!("expected node value, got {v:?}"),
        }
    }

    /// As environment.
    pub fn expect_env(&self) -> Env {
        match self {
            Value::Env(e) => e.clone(),
            v => panic!("expected env value, got {v:?}"),
        }
    }

    /// As token.
    pub fn expect_tok(&self) -> &SrcTok {
        match self {
            Value::Tok(t) => t,
            v => panic!("expected token value, got {v:?}"),
        }
    }

    /// As list slice.
    pub fn expect_list(&self) -> &[Value] {
        match self {
            Value::List(l) => l,
            v => panic!("expected list value, got {v:?}"),
        }
    }

    /// As integer.
    pub fn expect_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            v => panic!("expected int value, got {v:?}"),
        }
    }

    /// As string.
    pub fn expect_str(&self) -> Rc<str> {
        match self {
            Value::Str(s) => Rc::clone(s),
            v => panic!("expected str value, got {v:?}"),
        }
    }

    /// As analysis context.
    pub fn expect_ctx(&self) -> Rc<crate::analyze::Actx> {
        match self {
            Value::Ctx(c) => Rc::clone(c),
            v => panic!("expected ctx value, got {v:?}"),
        }
    }

    /// As denotation.
    pub fn expect_den(&self) -> &DenVal {
        match self {
            Value::Den(d) => d,
            v => panic!("expected den value, got {v:?}"),
        }
    }

    /// Messages view (empty for non-message values; total so merge rules
    /// can be forgiving).
    pub fn as_msgs(&self) -> &Msgs {
        const EMPTY: &Msgs = &Msgs::Empty;
        match self {
            Value::Msgs(m) => m,
            _ => EMPTY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;
    use vhdl_syntax::Pos;

    #[test]
    fn list_concat() {
        let a = Value::list(vec![Value::Int(1)]);
        let b = Value::list(vec![Value::Int(2), Value::Int(3)]);
        let c = Value::concat_lists(&a, &b);
        assert_eq!(c.expect_list().len(), 3);
        let d = Value::concat_lists(&Value::empty_list(), &a);
        assert_eq!(d.expect_list().len(), 1);
    }

    #[test]
    fn msgs_concat_total() {
        let m = Value::Msgs(Msgs::one(Msg::error(Pos::default(), "x")));
        let merged = Value::concat_msgs(&m, &Value::Unit);
        assert_eq!(merged.as_msgs().to_vec().len(), 1);
    }

    #[test]
    #[should_panic(expected = "expected node")]
    fn expect_node_panics_on_mismatch() {
        Value::Int(1).expect_node();
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).expect_int(), 4);
        assert_eq!(&*Value::Str("x".into()).expect_str(), "x");
        assert!(matches!(
            Value::Den(DenVal::Error).expect_den(),
            DenVal::Error
        ));
    }
}
