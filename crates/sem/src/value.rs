//! The attribute value type of both VHDL attribute grammars.
//!
//! Linguist attributes are dynamically typed; [`Value`] plays that role
//! here. Every semantic rule maps `&[Value] -> Value`.

use std::cell::OnceCell;
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
    /// A long list joined from two lists without copying them (see
    /// [`Value::concat_lists`]); read it with [`Value::expect_list`].
    Cat(Rc<Cat>),
    /// An environment.
    Env(Env),
    /// A LEF token (expression-grammar leaf values).
    Lef(Rc<LefTok>),
    /// Diagnostics.
    Msgs(Msgs),
    /// A source token (leaf values).
    Tok(SrcTok),
    /// A name denotation (expression AG).
    Den(DenVal),
    /// An overload candidate set of `subprog`/`enumlit` nodes (the
    /// expression AG's `CANDS`); read it with [`Value::expect_cands`].
    Cands(Rc<[Rc<VifNode>]>),
    /// Analysis context (library loader and predefined types) threaded
    /// through the principal AG as an inherited attribute.
    Ctx(Rc<crate::analyze::Actx>),
}

/// Lists up to this long are joined by copying; longer ones share their
/// parts in a [`Cat`].
const SHORT_LIST: usize = 32;

/// Two lists joined without copying either. A list that grows a level at
/// a time (`n` statements, `n` declarations) would otherwise copy about
/// `n²` elements in all; joined, it keeps one node per level and is
/// flattened once, by the first rule that reads it.
#[derive(Debug)]
pub struct Cat {
    parts: [Value; 2],
    len: usize,
    flat: OnceCell<Vec<Value>>,
}

impl Cat {
    /// The elements in order, walking nested joins without recursion
    /// (a join can be as deep as the tree that built it).
    fn flatten(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len);
        let mut todo = vec![&self.parts[1], &self.parts[0]];
        while let Some(v) = todo.pop() {
            match v {
                Value::Cat(c) => match c.flat.get() {
                    Some(flat) => out.extend_from_slice(flat),
                    None => todo.extend([&c.parts[1], &c.parts[0]]),
                },
                v => out.extend_from_slice(v.expect_list()),
            }
        }
        out
    }
}

/// Drops nested joins this one holds alone without recursing into them.
impl Drop for Cat {
    fn drop(&mut self) {
        let mut todo = Vec::new();
        let unlink = |parts: &mut [Value; 2], todo: &mut Vec<Rc<Cat>>| {
            for part in parts {
                if let Value::Cat(c) = std::mem::take(part) {
                    todo.push(c);
                }
            }
        };
        unlink(&mut self.parts, &mut todo);
        while let Some(c) = todo.pop() {
            if let Ok(mut c) = Rc::try_unwrap(c) {
                unlink(&mut c.parts, &mut todo);
            }
        }
    }
}

/// A principal-grammar leaf becomes a value when a rule demands it.
impl From<SrcTok> for Value {
    fn from(t: SrcTok) -> Value {
        Value::Tok(t)
    }
}

/// So does an expression-grammar leaf.
impl From<LefTok> for Value {
    fn from(t: LefTok) -> Value {
        Value::Lef(Rc::new(t))
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

    /// Wraps a candidate set; every empty set is one shared value.
    pub fn cands(c: Vec<Rc<VifNode>>) -> Value {
        thread_local! {
            static NONE: Rc<[Rc<VifNode>]> = Rc::new([]);
        }
        Value::Cands(if c.is_empty() {
            NONE.with(Rc::clone)
        } else {
            c.into()
        })
    }

    /// Empty list; every empty list is one shared value (no caller
    /// mutates a list in place).
    pub fn empty_list() -> Value {
        thread_local! {
            static EMPTY: Rc<Vec<Value>> = Rc::new(Vec::new());
        }
        Value::List(EMPTY.with(Rc::clone))
    }

    /// Concatenates two list values (merge function for list classes).
    /// Short results are copied into one list; long ones share `a` and
    /// `b` in a [`Cat`].
    pub fn concat_lists(a: &Value, b: &Value) -> Value {
        match (a, b) {
            (Value::Unit, y) => y.clone(),
            (x, Value::Unit) => x.clone(),
            _ => match (a.list_len(), b.list_len()) {
                (0, _) => b.clone(),
                (_, 0) => a.clone(),
                (m, n) if m + n <= SHORT_LIST => {
                    let mut v = Vec::with_capacity(m + n);
                    v.extend_from_slice(a.expect_list());
                    v.extend_from_slice(b.expect_list());
                    Value::list(v)
                }
                (m, n) => Value::Cat(Rc::new(Cat {
                    parts: [a.clone(), b.clone()],
                    len: m + n,
                    flat: OnceCell::new(),
                })),
            },
        }
    }

    /// Length of a list value; panics otherwise.
    fn list_len(&self) -> usize {
        match self {
            Value::List(l) => l.len(),
            Value::Cat(c) => c.len,
            v => panic!("expected list value, got {v:?}"),
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

    /// As list slice. A [`Cat`] is flattened on its first read.
    pub fn expect_list(&self) -> &[Value] {
        match self {
            Value::List(l) => l,
            Value::Cat(c) => c.flat.get_or_init(|| c.flatten()),
            v => panic!("expected list value, got {v:?}"),
        }
    }

    /// A list of node values as the items of a VIF list.
    pub fn node_list(&self) -> Vec<vhdl_vif::VifValue> {
        self.expect_list()
            .iter()
            .map(|v| vhdl_vif::VifValue::Node(v.expect_node()))
            .collect()
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

    /// As candidate set.
    pub fn expect_cands(&self) -> &[Rc<VifNode>] {
        match self {
            Value::Cands(c) => c,
            v => panic!("expected candidate set, got {v:?}"),
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
    fn long_joins_share_their_parts_and_flatten_in_order() {
        let n = 100_000;
        let one = |i| Value::list(vec![Value::Int(i)]);
        let mut run = Value::empty_list();
        for i in 0..n {
            run = if i % 2 == 0 {
                Value::concat_lists(&run, &one(i))
            } else {
                Value::concat_lists(&Value::concat_lists(&one(-1), &run), &one(i))
            };
        }
        assert!(matches!(run, Value::Cat(_)));
        let flat: Vec<i64> = run.expect_list().iter().map(Value::expect_int).collect();
        let want: Vec<i64> = std::iter::repeat_n(-1, n as usize / 2)
            .chain(0..n)
            .collect();
        assert_eq!(flat, want);
        let short = Value::concat_lists(&Value::concat_lists(&one(0), &one(1)), &one(2));
        assert!(matches!(short, Value::List(_)));
        drop(run);
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
