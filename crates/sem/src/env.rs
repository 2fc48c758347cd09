//! The applicative environment — `ENV` of §4.3.
//!
//! "To build a new ENV value that binds ID to some other object(s) we
//! create a new ENV node and insert it … so that the old ENV value is not
//! changed." Three interchangeable representations are provided, matching
//! the paper's discussion and the E7 experiment:
//!
//! - [`EnvKind::List`] — the simple cons list ("a tree in which each node
//!   has only one child");
//! - [`EnvKind::Tree`] — an applicative balanced search tree (a treap),
//!   the Myers-style efficient applicative data structure;
//! - [`EnvKind::MutBaseline`] — a conventional mutable hash table that
//!   must be *cloned* at every binding to preserve old values (what a
//!   non-applicative compiler pays for snapshots).
//!
//! Keys are interned [`Symbol`]s: a treap descent compares two `u32`s per
//! node instead of running `memcmp`, and `bind`/`lookup` allocate no
//! strings. Call sites may still pass `&str` (it is interned at the API
//! boundary), but the hot path — tokens out of the lexer — hands over
//! ready-made symbols.

use std::collections::HashMap;
use std::rc::Rc;

use ag_intern::{Symbol, ToSym};
use vhdl_vif::{Kind, VifNode};

/// How a binding became visible (affects homograph rules and diagnostics).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Visibility {
    /// Declared in the current declarative region.
    Local,
    /// Made visible by a `use` clause.
    UseClause,
    /// Implicitly declared (predefined operators, etc.).
    Implicit,
}

/// One denotation: a named semantic node plus how it became visible.
#[derive(Clone, Debug)]
pub struct Den {
    /// The semantic node (kind `obj`, `subprog`, `ty.*`, `enumlit`, …).
    pub node: Rc<VifNode>,
    /// Visibility provenance.
    pub vis: Visibility,
}

impl Den {
    /// Creates a locally-declared denotation.
    pub fn local(node: Rc<VifNode>) -> Den {
        Den {
            node,
            vis: Visibility::Local,
        }
    }

    /// `true` for denotations that may overload rather than hide each
    /// other: subprograms, enumeration literals, and physical units.
    pub fn overloadable(&self) -> bool {
        matches!(
            self.node.tag(),
            Kind::subprog | Kind::enumlit | Kind::physunit
        )
    }
}

impl PartialEq for Den {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.node, &other.node) && self.vis == other.vis
    }
}

/// Selects the environment representation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EnvKind {
    /// Cons list (linear search).
    List,
    /// Applicative balanced tree (treap) — the default.
    #[default]
    Tree,
    /// Mutable-table baseline, cloned per binding.
    MutBaseline,
}

#[derive(Clone, Debug)]
struct ListNode {
    name: Symbol,
    den: Den,
    next: Option<Rc<ListNode>>,
}

#[derive(Clone, Debug)]
struct TreeNode {
    name: Symbol,
    prio: u64,
    /// Denotations for this name, newest first.
    dens: Rc<Vec<Den>>,
    left: Option<Rc<TreeNode>>,
    right: Option<Rc<TreeNode>>,
}

#[derive(Clone, Debug)]
enum Repr {
    List(Option<Rc<ListNode>>),
    Tree(Option<Rc<TreeNode>>),
    Mut(Rc<HashMap<Symbol, Vec<Den>>>),
}

/// An immutable environment value. `bind` returns a *new* environment; the
/// old one keeps working — exactly the property §4.3 relies on.
#[derive(Clone, Debug)]
pub struct Env {
    repr: Repr,
    len: usize,
}

impl Env {
    /// Creates an empty environment of the given representation.
    pub fn new(kind: EnvKind) -> Env {
        let repr = match kind {
            EnvKind::List => Repr::List(None),
            EnvKind::Tree => Repr::Tree(None),
            EnvKind::MutBaseline => Repr::Mut(Rc::new(HashMap::new())),
        };
        Env { repr, len: 0 }
    }

    /// Number of bindings ever made (incl. shadowed ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing was ever bound.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Binds `name` to `den`, returning the extended environment. The
    /// receiver is unchanged.
    #[must_use = "bind returns a new environment; the old one is unchanged"]
    pub fn bind(&self, name: impl ToSym, den: Den) -> Env {
        let name = name.to_sym();
        let repr = match &self.repr {
            Repr::List(head) => Repr::List(Some(Rc::new(ListNode {
                name,
                den,
                next: head.clone(),
            }))),
            Repr::Tree(root) => Repr::Tree(Some(tree_insert(root.as_ref(), name, den))),
            Repr::Mut(map) => {
                // The baseline pays a full clone to preserve the old value.
                let mut m: HashMap<Symbol, Vec<Den>> = (**map).clone();
                m.entry(name).or_default().insert(0, den);
                Repr::Mut(Rc::new(m))
            }
        };
        Env {
            repr,
            len: self.len + 1,
        }
    }

    /// All denotations of `name`, newest first, before homograph
    /// filtering.
    fn raw_lookup(&self, name: Symbol) -> Vec<Den> {
        match &self.repr {
            Repr::List(head) => {
                let mut out = Vec::new();
                let mut cur = head.as_ref();
                while let Some(n) = cur {
                    if n.name == name {
                        out.push(n.den.clone());
                    }
                    cur = n.next.as_ref();
                }
                out
            }
            Repr::Tree(root) => {
                let mut cur = root.as_ref();
                while let Some(n) = cur {
                    match name.id().cmp(&n.name.id()) {
                        std::cmp::Ordering::Equal => return (*n.dens).clone(),
                        std::cmp::Ordering::Less => cur = n.left.as_ref(),
                        std::cmp::Ordering::Greater => cur = n.right.as_ref(),
                    }
                }
                Vec::new()
            }
            Repr::Mut(map) => map.get(&name).cloned().unwrap_or_default(),
        }
    }

    /// Looks up `name` applying the homograph rule: the newest
    /// non-overloadable binding hides everything older; overloadable
    /// bindings (subprograms, enum literals, units) accumulate until a
    /// non-overloadable one is reached.
    pub fn lookup(&self, name: impl ToSym) -> Vec<Den> {
        let raw = self.raw_lookup(name.to_sym());
        let mut out: Vec<Den> = Vec::new();
        for den in raw {
            if den.overloadable() {
                out.push(den);
            } else {
                // A non-overloadable binding: it is the sole result when it
                // is the newest, and otherwise marks the point where older
                // bindings become hidden.
                if out.is_empty() {
                    out.push(den);
                }
                break;
            }
        }
        out
    }

    /// First (newest) denotation, if any.
    pub fn lookup_one(&self, name: impl ToSym) -> Option<Den> {
        self.lookup(name).into_iter().next()
    }
}

fn tree_insert(root: Option<&Rc<TreeNode>>, name: Symbol, den: Den) -> Rc<TreeNode> {
    match root {
        None => Rc::new(TreeNode {
            name,
            prio: prio_of(name),
            dens: Rc::new(vec![den]),
            left: None,
            right: None,
        }),
        Some(n) => match name.id().cmp(&n.name.id()) {
            std::cmp::Ordering::Equal => {
                let mut dens = (*n.dens).clone();
                dens.insert(0, den);
                Rc::new(TreeNode {
                    dens: Rc::new(dens),
                    ..(**n).clone()
                })
            }
            std::cmp::Ordering::Less => {
                let left = tree_insert(n.left.as_ref(), name, den);
                rebalance(Rc::new(TreeNode {
                    left: Some(left),
                    ..(**n).clone()
                }))
            }
            std::cmp::Ordering::Greater => {
                let right = tree_insert(n.right.as_ref(), name, den);
                rebalance(Rc::new(TreeNode {
                    right: Some(right),
                    ..(**n).clone()
                }))
            }
        },
    }
}

/// Treap rotations: restore the heap property on priorities. Path copying
/// keeps all old versions intact.
fn rebalance(n: Rc<TreeNode>) -> Rc<TreeNode> {
    if let Some(l) = &n.left {
        if l.prio > n.prio {
            // Rotate right.
            let new_right = Rc::new(TreeNode {
                left: l.right.clone(),
                ..(*n).clone()
            });
            return Rc::new(TreeNode {
                right: Some(new_right),
                ..(**l).clone()
            });
        }
    }
    if let Some(r) = &n.right {
        if r.prio > n.prio {
            // Rotate left.
            let new_left = Rc::new(TreeNode {
                right: r.left.clone(),
                ..(*n).clone()
            });
            return Rc::new(TreeNode {
                left: Some(new_left),
                ..(**r).clone()
            });
        }
    }
    n
}

/// Deterministic pseudo-random priority from the symbol id (splitmix64) —
/// no bytes are hashed, so a `bind` never touches the spelling at all.
fn prio_of(name: Symbol) -> u64 {
    let mut z = (name.id() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(kind: &str, name: &str) -> Rc<VifNode> {
        VifNode::build(kind).name(name).done()
    }

    fn envs() -> Vec<Env> {
        vec![
            Env::new(EnvKind::List),
            Env::new(EnvKind::Tree),
            Env::new(EnvKind::MutBaseline),
        ]
    }

    #[test]
    fn bind_does_not_change_old_env() {
        for e0 in envs() {
            let e1 = e0.bind("x", Den::local(node("obj", "x")));
            assert!(e0.lookup("x").is_empty());
            assert_eq!(e1.lookup("x").len(), 1);
            assert_eq!(e0.len(), 0);
            assert_eq!(e1.len(), 1);
        }
    }

    #[test]
    fn newest_nonoverloadable_hides() {
        for e in envs() {
            let outer = node("obj", "x");
            let inner = node("obj", "x");
            let e = e
                .bind("x", Den::local(Rc::clone(&outer)))
                .bind("x", Den::local(Rc::clone(&inner)));
            let found = e.lookup("x");
            assert_eq!(found.len(), 1);
            assert!(Rc::ptr_eq(&found[0].node, &inner));
        }
    }

    #[test]
    fn overloadables_accumulate() {
        for e in envs() {
            let f1 = node("subprog", "f");
            let f2 = node("subprog", "f");
            let v = node("obj", "f");
            // Oldest: variable f; then two subprograms.
            let e = e
                .bind("f", Den::local(Rc::clone(&v)))
                .bind("f", Den::local(Rc::clone(&f1)))
                .bind("f", Den::local(Rc::clone(&f2)));
            let found = e.lookup("f");
            // Both subprograms visible; the older non-overloadable object
            // is hidden by them.
            assert_eq!(found.len(), 2);
            assert!(Rc::ptr_eq(&found[0].node, &f2));
            assert!(Rc::ptr_eq(&found[1].node, &f1));
        }
    }

    #[test]
    fn lookup_one_and_missing() {
        for e in envs() {
            assert!(e.lookup_one("missing").is_none());
            let e = e.bind("y", Den::local(node("obj", "y")));
            assert!(e.lookup_one("y").is_some());
            assert!(e.lookup("z").is_empty());
        }
    }

    #[test]
    fn symbol_and_str_keys_interchangeable() {
        for e in envs() {
            let e = e.bind(Symbol::intern("clk"), Den::local(node("obj", "clk")));
            assert_eq!(e.lookup("clk").len(), 1);
            assert_eq!(e.lookup(Symbol::intern("clk")).len(), 1);
            // Lexer-folded spelling reaches the same binding.
            assert_eq!(e.lookup(Symbol::intern_ci("CLK")).len(), 1);
        }
    }

    #[test]
    fn many_names_all_reprs_agree() {
        let names = ["a", "b", "c", "aa", "ab", "zz", "m", "q", "x1", "x2"];
        let mut es = envs();
        for (i, n) in names.iter().enumerate() {
            let shared = node("obj", &format!("{n}{i}"));
            for e in &mut es {
                *e = e.bind(*n, Den::local(Rc::clone(&shared)));
            }
        }
        for n in names {
            let a = es[0].lookup(n);
            let b = es[1].lookup(n);
            let c = es[2].lookup(n);
            assert_eq!(a.len(), 1);
            assert_eq!(a, b);
            assert_eq!(b, c);
        }
    }
}
