//! The parse tree the parser builds and `ag-core`'s evaluators decorate.

use crate::grammar::{ProdId, SymbolId};

/// Index of a node in a [`ParseTree`].
pub type NodeId = usize;

/// `prod` of a leaf and `parent` of the root.
const NONE: u32 = u32::MAX;

/// One node, 20 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Node {
    /// Production of an interior node, [`NONE`] for a leaf.
    prod: u32,
    symbol: SymbolId,
    /// Parent node, [`NONE`] at the root.
    parent: u32,
    /// Interior node: offset of its first child in the child list. Leaf:
    /// index of its token.
    at: u32,
    n_kids: u32,
}

/// A concrete parse tree in one arena. A shift pushes a leaf and a reduce
/// pushes the node over the last `|rhs|` subtrees (a reduce by a
/// transparent production pushes none, see [`crate::Parser::eliding`]),
/// so nodes sit in postorder: a subtree is the range of ids that ends at its root, the
/// root is last, and leaves come in source order. Children share one
/// list and tokens another: three allocations per tree. Parent links let
/// inherited attributes be demanded upward.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseTree<T> {
    nodes: Vec<Node>,
    kids: Vec<u32>,
    toks: Vec<T>,
}

impl<T> ParseTree<T> {
    /// An empty tree for `toks` tokens. Without the nodes of copy-only
    /// chain productions, VHDL trees have about 2 nodes per token: 2.0 to
    /// 2.2 for design files, 1.9 for the expressions of the cascade.
    pub(crate) fn with_capacity(toks: usize) -> Self {
        ParseTree {
            nodes: Vec::with_capacity(3 * toks + 1),
            kids: Vec::with_capacity(3 * toks),
            toks: Vec::with_capacity(toks),
        }
    }

    /// Appends a leaf (a shift).
    pub(crate) fn push_leaf(&mut self, term: SymbolId, value: T) -> u32 {
        self.toks.push(value);
        self.push(NONE, term, self.toks.len() as u32 - 1, 0)
    }

    /// Appends the interior node `prod` over the subtrees `kids` (a
    /// reduce) and points their parent links at it.
    pub(crate) fn push_node(&mut self, prod: ProdId, lhs: SymbolId, kids: &[u32]) -> u32 {
        let id = self.nodes.len() as u32;
        for &k in kids {
            self.nodes[k as usize].parent = id;
        }
        let at = self.kids.len() as u32;
        self.kids.extend_from_slice(kids);
        self.push(prod.0, lhs, at, kids.len() as u32)
    }

    fn push(&mut self, prod: u32, symbol: SymbolId, at: u32, n_kids: u32) -> u32 {
        self.nodes.push(Node {
            prod,
            symbol,
            parent: NONE,
            at,
            n_kids,
        });
        (self.nodes.len() - 1) as u32
    }

    /// The root node, the last in postorder.
    pub fn root(&self) -> NodeId {
        self.nodes.len() - 1
    }

    /// Number of nodes (interior nodes and leaves).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes (never the case for parsed trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The production of an interior node, `None` for a leaf.
    pub fn prod(&self, n: NodeId) -> Option<ProdId> {
        let p = self.nodes[n].prod;
        (p != NONE).then_some(ProdId(p))
    }

    /// The grammar symbol at a node: the production's left-hand side, or
    /// a leaf's terminal.
    pub fn symbol(&self, n: NodeId) -> SymbolId {
        self.nodes[n].symbol
    }

    /// The parent and this node's occurrence in the parent's production
    /// (1-based), `None` at the root.
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, usize)> {
        let p = self.nodes[n].parent;
        if p == NONE {
            return None;
        }
        let occ = self
            .kid_ids(p as NodeId)
            .iter()
            .position(|&k| k as NodeId == n);
        Some((p as NodeId, occ.expect("a node is its parent's child") + 1))
    }

    /// The children of a node, one per RHS symbol (none for leaves).
    pub fn children(&self, n: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.kid_ids(n).iter().map(|&k| k as NodeId)
    }

    fn kid_ids(&self, n: NodeId) -> &[u32] {
        let x = &self.nodes[n];
        if x.prod == NONE {
            return &[];
        }
        &self.kids[x.at as usize..][..x.n_kids as usize]
    }

    /// The child at RHS occurrence `occ` (1-based) of an interior node.
    pub fn child(&self, n: NodeId, occ: usize) -> NodeId {
        self.kid_ids(n)[occ - 1] as NodeId
    }

    /// The node at RHS occurrence `occ` of the production at `n`: `n`
    /// itself for 0 (the left-hand side), else the child.
    pub fn occurrence(&self, n: NodeId, occ: usize) -> NodeId {
        if occ == 0 {
            n
        } else {
            self.child(n, occ)
        }
    }

    /// A leaf's token, `None` for interior nodes.
    pub fn token(&self, n: NodeId) -> Option<&T> {
        let x = &self.nodes[n];
        (x.prod == NONE).then(|| &self.toks[x.at as usize])
    }

    /// Every leaf's token, in source order.
    pub fn leaves(&self) -> &[T] {
        &self.toks
    }

    /// The tokens of the leaves under `n`, in source order: one slice of
    /// [`ParseTree::leaves`], because a subtree is one range of nodes and
    /// leaves come in source order. Empty when no leaf is under `n`.
    pub fn leaves_of(&self, n: NodeId) -> &[T] {
        let mut leaves = self.nodes[self.first_node(n)..=n]
            .iter()
            .filter(|x| x.prod == NONE)
            .map(|x| x.at as usize);
        match leaves.next() {
            Some(first) => &self.toks[first..=leaves.next_back().unwrap_or(first)],
            None => &[],
        }
    }

    /// The first node of the subtree under `root` in postorder: its
    /// leftmost, deepest descendant.
    fn first_node(&self, root: NodeId) -> NodeId {
        let mut lo = root;
        while let Some(&first) = self.kid_ids(lo).first() {
            lo = first as NodeId;
        }
        lo
    }

    /// The subtree under `root` as a tree of its own (one design unit of
    /// a file, say). The subtree is one range of nodes, children and
    /// tokens, so this is a flat copy.
    pub fn subtree(&self, root: NodeId) -> ParseTree<T>
    where
        T: Clone,
    {
        let lo = self.first_node(root);
        // Each non-root node of the range is one child-list entry, and
        // the root's children were the last pushed.
        let r = &self.nodes[root];
        let kids = if r.prod == NONE {
            0..0
        } else {
            let end = (r.at + r.n_kids) as usize;
            end - (root - lo)..end
        };
        let mut t = ParseTree {
            nodes: Vec::with_capacity(root + 1 - lo),
            kids: Vec::with_capacity(kids.len()),
            toks: Vec::new(),
        };
        for x in &self.nodes[lo..=root] {
            let mut x = *x;
            x.parent = x.parent.wrapping_sub(lo as u32);
            if x.prod == NONE {
                t.toks.push(self.toks[x.at as usize].clone());
                x.at = (t.toks.len() - 1) as u32;
            } else {
                x.at -= kids.start as u32;
            }
            t.nodes.push(x);
        }
        t.kids
            .extend(self.kids[kids].iter().map(|&k| k - lo as u32));
        t.nodes.last_mut().expect("a subtree has its root").parent = NONE;
        t
    }
}

#[cfg(test)]
mod tests {
    use crate::{Grammar, GrammarBuilder, ParseTable, ParseTree, Parser, Token};

    #[test]
    fn arena_mirrors_parse_tree() {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        g.prod(s, &[a.into(), s.into()], "s_rec");
        g.prod(s, &[], "s_empty");
        g.start(s);
        let g = g.build().unwrap();
        let table = ParseTable::build(&g).unwrap();
        let parser = Parser::new(&g, &table);
        let at = parser
            .parse(vec![Token::new(a, 1), Token::new(a, 2)])
            .unwrap();
        assert_eq!(at.len(), 5); // s(a, s(a, s()))
        let root = at.root();
        assert_eq!(at.symbol(root), s);
        assert!(at.parent(root).is_none());
        assert_eq!(at.children(root).len(), 2);
        let leaf = at.child(root, 1);
        assert_eq!(at.token(leaf), Some(&1));
        assert_eq!(at.parent(leaf), Some((root, 1)));
        let child = at.child(root, 2);
        assert_eq!(at.parent(child), Some((root, 2)));
        assert!(!at.is_empty());
    }

    /// `file ::= units ; units ::= unit | units unit ; unit ::= b s ;
    /// s ::= a s | ε`, with the two chain productions over `units`
    /// transparent, so a one-unit file is rooted at its `unit` node; and
    /// a parser that leaves their nodes out.
    fn file_grammar() -> (Grammar, ParseTable, Vec<bool>) {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let b = g.terminal("b");
        let file = g.nonterminal("file");
        let units = g.nonterminal("units");
        let unit = g.nonterminal("unit");
        let s = g.nonterminal("s");
        let p_file = g.prod(file, &[units.into()], "file_units");
        let p_one = g.prod(units, &[unit.into()], "units_one");
        g.prod(units, &[units.into(), unit.into()], "units_more");
        g.prod(unit, &[b.into(), s.into()], "unit_b");
        g.prod(s, &[a.into(), s.into()], "s_rec");
        g.prod(s, &[], "s_empty");
        g.start(file);
        let g = g.build().unwrap();
        let table = ParseTable::build(&g).unwrap();
        let mut flags = vec![false; g.n_prods()];
        flags[p_file.index()] = true;
        flags[p_one.index()] = true;
        (g, table, flags)
    }

    fn parse_file(g: &Grammar, table: &ParseTable, flags: &[bool], src: &str) -> ParseTree<char> {
        let (a, b) = (g.symbol("a").unwrap(), g.symbol("b").unwrap());
        let toks = src
            .chars()
            .map(|c| Token::new(if c == 'b' { b } else { a }, c));
        Parser::eliding(g, table, flags).parse(toks).unwrap()
    }

    #[test]
    fn unit_sliced_from_elided_file_equals_unit_parsed_alone() {
        let (g, table, flags) = file_grammar();
        let whole = parse_file(&g, &table, &flags, "baabbaaa");
        // units_more(units_more(unit, unit), unit): no file or units_one
        // node.
        let p_more = g.prod_by_label("units_more").unwrap();
        let unit = g.symbol("unit").unwrap();
        let root = whole.root();
        assert_eq!(whole.prod(root), Some(p_more));
        let first = whole.child(root, 1);
        assert_eq!(whole.prod(first), Some(p_more));
        let parts = [
            whole.child(first, 1),
            whole.child(first, 2),
            whole.child(root, 2),
        ];
        for (n, src) in parts.into_iter().zip(["baa", "b", "baaa"]) {
            assert_eq!(whole.symbol(n), unit);
            let alone = parse_file(&g, &table, &flags, src);
            assert_eq!(alone.symbol(alone.root()), unit);
            assert_eq!(whole.subtree(n), alone, "unit {src}");
        }
        assert_eq!(whole.subtree(root), whole);
    }

    #[test]
    fn leaves_of_a_node_are_the_tokens_under_it() {
        let (g, table, flags) = file_grammar();
        let src = "baabbaaa";
        let whole = parse_file(&g, &table, &flags, src);
        let text = |t: &ParseTree<char>, n| t.leaves_of(n).iter().collect::<String>();
        // The root: every token.
        let root = whole.root();
        assert_eq!(text(&whole, root), src);
        // An interior node: the first two units.
        let first = whole.child(root, 1);
        assert_eq!(text(&whole, first), "baab");
        // The first unit stands in for the `units` node `units_one` left
        // out.
        let stand_in = whole.child(first, 1);
        assert_eq!(whole.symbol(stand_in), g.symbol("unit").unwrap());
        assert_eq!(text(&whole, stand_in), "baa");
        // A leaf: its own token.
        let leaf = whole.child(stand_in, 1);
        assert_eq!(whole.token(leaf), Some(&'b'));
        assert_eq!(text(&whole, leaf), "b");
        // Under an empty production: nothing. The second unit's `s` is
        // one.
        let empty = whole.child(whole.child(first, 2), 2);
        assert_eq!(whole.prod(empty), g.prod_by_label("s_empty"));
        assert_eq!(whole.leaves_of(empty), &[] as &[char]);
        // A unit cut out of the file keeps its run, which is the whole of
        // its own tree's tokens.
        let last = whole.child(root, 2);
        let alone = whole.subtree(last);
        assert_eq!(text(&whole, last), "baaa");
        assert_eq!(alone.leaves_of(alone.root()), whole.leaves_of(last));
        assert_eq!(alone.leaves_of(alone.root()), alone.leaves());
    }
}
