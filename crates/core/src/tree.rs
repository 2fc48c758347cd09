//! Attributed parse trees: the arena the evaluators decorate.

use ag_lalr::{Grammar, ParseTree, ProdId, SymbolId};

/// Index of a node in an [`AttrTree`].
pub type NodeId = usize;

/// One node of an attributed tree.
#[derive(Clone, Debug)]
pub struct TreeNode<V> {
    /// Production for interior nodes, `None` for terminal leaves.
    pub prod: Option<ProdId>,
    /// The grammar symbol at this node.
    pub symbol: SymbolId,
    /// Parent node and this node's occurrence index in the parent's
    /// production (1-based), `None` at the root.
    pub parent: Option<(NodeId, usize)>,
    /// Token value for leaves.
    pub token: Option<V>,
    /// This node's children: `n_kids` entries of the tree's child list
    /// from `kids_at`.
    kids_at: u32,
    n_kids: u32,
}

/// An arena-allocated parse tree ready for attribute evaluation.
///
/// Built from an [`ag_lalr::ParseTree`] in one walk; keeps parent links so
/// inherited attributes can be demanded upward. Nodes sit in one vector
/// and every node's children in one shared child list, so a tree costs
/// two allocations whatever its size.
#[derive(Clone, Debug)]
pub struct AttrTree<V> {
    nodes: Vec<TreeNode<V>>,
    kids: Vec<NodeId>,
}

impl<V: Clone> AttrTree<V> {
    /// Converts a concrete parse tree into an arena.
    pub fn from_parse_tree(g: &Grammar, tree: &ParseTree<V>) -> Self {
        AttrTree::from_parse_tree_with(g, &[], tree, V::clone)
    }
}

impl<V> AttrTree<V> {
    /// Converts a concrete parse tree into an arena in one walk, mapping
    /// every leaf value through `leaf`. The tree is first wrapped in the
    /// single-child productions `wrap`, outermost first, so a subtree
    /// (one design unit, say) can be evaluated as if it were a whole
    /// sentence of the start symbol.
    pub fn from_parse_tree_with<T>(
        g: &Grammar,
        wrap: &[ProdId],
        tree: &ParseTree<T>,
        mut leaf: impl FnMut(&T) -> V,
    ) -> Self {
        // Every node but the root is one entry of the child list.
        let n = wrap.len() + tree.size();
        let mut t = AttrTree {
            nodes: Vec::with_capacity(n),
            kids: Vec::with_capacity(n - 1),
        };
        let mut parent = None;
        for &p in wrap {
            let id = t.push(Some(p), g.lhs(p), parent, None, 1);
            // The only child is the next node pushed.
            t.kids.push(id + 1);
            parent = Some((id, 1));
        }
        t.build(g, tree, parent, &mut leaf);
        t
    }

    fn push(
        &mut self,
        prod: Option<ProdId>,
        symbol: SymbolId,
        parent: Option<(NodeId, usize)>,
        token: Option<V>,
        n_kids: usize,
    ) -> NodeId {
        self.nodes.push(TreeNode {
            prod,
            symbol,
            parent,
            token,
            kids_at: self.kids.len() as u32,
            n_kids: n_kids as u32,
        });
        self.nodes.len() - 1
    }

    /// Appends `tree` in preorder and returns its node id.
    fn build<T>(
        &mut self,
        g: &Grammar,
        tree: &ParseTree<T>,
        parent: Option<(NodeId, usize)>,
        leaf: &mut impl FnMut(&T) -> V,
    ) -> NodeId {
        match tree {
            ParseTree::Leaf { term, value } => self.push(None, *term, parent, Some(leaf(value)), 0),
            ParseTree::Node { prod, children } => {
                let at = self.kids.len();
                let id = self.push(Some(*prod), g.lhs(*prod), parent, None, children.len());
                self.kids.resize(at + children.len(), 0);
                for (i, c) in children.iter().enumerate() {
                    self.kids[at + i] = self.build(g, c, Some((id, i + 1)), leaf);
                }
                id
            }
        }
    }

    /// The root node (an interior node for the start symbol), the first
    /// in preorder.
    pub fn root(&self) -> NodeId {
        0
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &TreeNode<V> {
        &self.nodes[id]
    }

    /// The children of a node, one per RHS symbol (empty for leaves).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let n = &self.nodes[id];
        &self.kids[n.kids_at as usize..][..n.n_kids as usize]
    }

    /// The child at RHS occurrence `occ` (1-based) of an interior node.
    pub fn child(&self, id: NodeId, occ: usize) -> NodeId {
        self.children(id)[occ - 1]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes (never the case for built trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all node ids (preorder of construction).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_lalr::{GrammarBuilder, ParseTable, Parser, Token};
    use std::rc::Rc;

    #[test]
    fn arena_mirrors_parse_tree() {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        g.prod(s, &[a.into(), s.into()], "s_rec");
        g.prod(s, &[], "s_empty");
        g.start(s);
        let g = Rc::new(g.build().unwrap());
        let table = ParseTable::build(&g).unwrap();
        let parser = Parser::new(&g, &table);
        let tree = parser
            .parse(vec![Token::new(a, 1), Token::new(a, 2)])
            .unwrap();
        let at = AttrTree::from_parse_tree(&g, &tree);
        assert_eq!(at.len(), 5); // s(a, s(a, s()))
        let root = at.node(at.root());
        assert_eq!(root.symbol, s);
        assert!(root.parent.is_none());
        assert_eq!(at.children(at.root()).len(), 2);
        let leaf = at.node(at.child(at.root(), 1));
        assert_eq!(leaf.token, Some(1));
        assert_eq!(leaf.parent, Some((at.root(), 1)));
        let child = at.node(at.child(at.root(), 2));
        assert_eq!(child.parent, Some((at.root(), 2)));
        assert!(!at.is_empty());
    }

    #[test]
    fn wrapped_subtree_matches_whole_tree() {
        // top ::= mid ; mid ::= s ; s ::= a s | ε. Building the `s`
        // subtree wrapped in [top, mid] must give the arena of the whole
        // parse, with leaf values mapped.
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let top = g.nonterminal("top");
        let mid = g.nonterminal("mid");
        let s = g.nonterminal("s");
        let p_top = g.prod(top, &[mid.into()], "top_mid");
        let p_mid = g.prod(mid, &[s.into()], "mid_s");
        g.prod(s, &[a.into(), s.into()], "s_rec");
        g.prod(s, &[], "s_empty");
        g.start(top);
        let g = Rc::new(g.build().unwrap());
        let table = ParseTable::build(&g).unwrap();
        let tree = Parser::new(&g, &table)
            .parse(vec![Token::new(a, 1), Token::new(a, 2)])
            .unwrap();
        let whole = AttrTree::from_parse_tree(&g, &tree);
        let sub = &tree.children()[0].children()[0];
        let wrapped = AttrTree::from_parse_tree_with(&g, &[p_top, p_mid], sub, |v| v * 10);
        assert_eq!(wrapped.len(), whole.len());
        for n in whole.node_ids() {
            let (w, x) = (wrapped.node(n), whole.node(n));
            assert_eq!((w.prod, w.symbol, w.parent), (x.prod, x.symbol, x.parent));
            assert_eq!(w.token, x.token.map(|v| v * 10));
            assert_eq!(wrapped.children(n), whole.children(n));
        }
    }
}
