//! The design-unit dependency graph behind batch compilation.
//!
//! The paper's §2 architecture makes the VIF the separate-compilation
//! interchange format: a unit's analysis needs only the *VIF* of the units
//! it references, never their source. That is exactly the property a batch
//! scheduler needs — the graph of "which unit's VIF does this unit read"
//! is extracted here from **parsed but unanalyzed** units (token-level
//! patterns over the CST leaves), topologically staged into waves, and
//! executed by [`crate::batch`] with every wave's units analyzed in
//! parallel.
//!
//! It takes two steps. [`UnitFront::of`] reads one unit's tokens: its
//! key, its candidate dependencies and its source hash depend on nothing
//! else, so the batch driver keeps them with the file's parse. [`resolve`]
//! then stages one batch. Dependencies that name no unit in the batch
//! fall back to a library lookup, asked once per distinct key: a unit
//! already analyzed into the work library satisfies the edge without
//! scheduling anything (and contributes its VIF-text hash to the
//! dependent's incremental stamp). Names found in neither place add no
//! edge — analysis itself reports undefined references.

use std::collections::HashMap;

use vhdl_sem::analyze::src_hash;
use vhdl_syntax::{Pos, SrcTok, TokenKind};

/// What the graph needs of one parsed unit, all of it a function of the
/// unit's tokens alone: the batch driver computes it once per file text
/// and keeps it with the file's parse.
#[derive(Clone, Debug)]
pub struct UnitFront {
    /// Best-effort library key ([`header_key`]); empty when the header
    /// shape is unrecognizable (analysis will diagnose it).
    pub key: String,
    /// [`candidate_deps`], sorted and deduplicated. Read them with
    /// [`UnitFront::candidates`].
    pub(crate) cands: Cands,
    /// FNV-1a hash of the unit's token run (kind + spelling) — the source
    /// half of the incremental stamp. Whitespace and comments don't lex,
    /// so touching only those leaves the hash unchanged.
    pub src_hash: u64,
    /// Position of the unit's first token (for diagnostics).
    pub pos: Pos,
}

impl UnitFront {
    /// The front of the unit whose token run is `toks`.
    pub fn of(toks: &[SrcTok]) -> UnitFront {
        let mut cands = candidate_deps(toks);
        cands.sort_unstable();
        cands.dedup();
        UnitFront {
            key: header_key(toks),
            cands: Cands::parse(&cands.join(" ")),
            src_hash: src_hash(toks),
            pos: toks.first().map(|t| t.pos).unwrap_or_default(),
        }
    }

    /// The candidate dependency keys, in the order `cands` holds them.
    pub fn candidates(&self) -> impl Iterator<Item = &str> {
        self.cands.iter()
    }
}

/// A unit's candidate keys in one buffer: joined by single spaces, with
/// the end of each, so a unit's candidates cost two allocations however
/// many there are, and reading them scans nothing.
#[derive(Clone, Debug)]
pub(crate) struct Cands {
    text: String,
    ends: Vec<usize>,
}

impl Cands {
    /// The whitespace-separated keys of `line`.
    pub(crate) fn parse(line: &str) -> Cands {
        let mut cands = Cands {
            text: String::with_capacity(line.len()),
            ends: Vec::new(),
        };
        for key in line.split_whitespace() {
            if !cands.ends.is_empty() {
                cands.text.push(' ');
            }
            cands.text.push_str(key);
            cands.ends.push(cands.text.len());
        }
        cands
    }

    /// The keys joined by single spaces, as a `fronts` file holds them.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let key = &self.text[start..end];
            start = end + 1;
            key
        })
    }
}

/// One unit of a resolved batch, borrowing its [`UnitFront`].
#[derive(Clone, Debug)]
pub struct UnitMeta<'a> {
    /// Index of the source file in the batch's input order.
    pub file: usize,
    /// Index of the unit within its file.
    pub unit_in_file: usize,
    /// The unit's front: key, source hash, position.
    pub front: &'a UnitFront,
    /// Resolved dependency keys, sorted and deduplicated: units of this
    /// batch plus units satisfied from the library.
    pub deps: Vec<&'a str>,
}

/// The staged graph: units, wave assignment, and any dependency cycles.
#[derive(Debug)]
pub struct DepGraph<'a> {
    /// One entry per unit, in batch input order.
    pub units: Vec<UnitMeta<'a>>,
    /// Batch-internal dependency edges: `edges[i]` lists unit indices that
    /// must be committed before unit `i` is analyzed.
    pub edges: Vec<Vec<usize>>,
    /// Wave partition: `waves[w]` holds unit indices (ascending, i.e.
    /// input order) whose dependencies all lie in waves `< w`.
    pub waves: Vec<Vec<usize>>,
    /// Units trapped in dependency cycles, with a rendered cycle path per
    /// group (they are never scheduled; the driver turns each group into a
    /// diagnostic).
    pub cycles: Vec<(Vec<usize>, String)>,
}

/// Skips a context clause (`library ...;` / `use ...;` runs) and returns
/// the index of the unit header keyword.
fn skip_context_clause(toks: &[SrcTok]) -> usize {
    let mut i = 0;
    while i < toks.len() && matches!(toks[i].kind, TokenKind::KwLibrary | TokenKind::KwUse) {
        while i < toks.len() && toks[i].kind != TokenKind::Semi {
            i += 1;
        }
        i += 1; // past the ';'
    }
    i
}

fn ident(toks: &[SrcTok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokenKind::Id)
        .map(|t| t.text.as_str())
}

/// Best-effort library key of a parsed unit, from its header tokens. The
/// same keys [`vhdl_sem::analyze::unit_key`] derives after analysis —
/// deriving them *before* analysis is what lets the scheduler know what a
/// unit will provide.
pub fn header_key(toks: &[SrcTok]) -> String {
    let i = skip_context_clause(toks);
    match toks.get(i).map(|t| t.kind) {
        Some(TokenKind::KwEntity) => match ident(toks, i + 1) {
            Some(name) => format!("entity.{name}"),
            None => String::new(),
        },
        Some(TokenKind::KwArchitecture) => {
            match (
                ident(toks, i + 1),
                toks.get(i + 2).map(|t| t.kind),
                ident(toks, i + 3),
            ) {
                (Some(arch), Some(TokenKind::KwOf), Some(entity)) => {
                    format!("arch.{entity}.{arch}")
                }
                _ => String::new(),
            }
        }
        Some(TokenKind::KwPackage) => {
            if toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::KwBody) {
                match ident(toks, i + 2) {
                    Some(name) => format!("pkgbody.{name}"),
                    None => String::new(),
                }
            } else {
                match ident(toks, i + 1) {
                    Some(name) => format!("pkg.{name}"),
                    None => String::new(),
                }
            }
        }
        Some(TokenKind::KwConfiguration) => match ident(toks, i + 1) {
            Some(name) => format!("config.{name}"),
            None => String::new(),
        },
        _ => String::new(),
    }
}

/// Candidate dependency keys a unit's token run names, *before* any
/// resolution against the batch or library:
///
/// - `architecture a of e` / `configuration c of e` → `entity.e`
/// - `configuration c of e is for a` → also `arch.e.a`, the architecture
///   its block configuration names
/// - `package body p` → `pkg.p`
/// - `use lib.p` (p ≠ `all`) → `pkg.p`
/// - `entity [lib.]e(a)` (direct binding indications) → `entity.e` and
///   `arch.e.a`
/// - any identifier spelling a package name → `pkg.<id>` (covers selected
///   names like `math.square`; filtered against known packages later)
///
/// The result may repeat a key; [`UnitFront::of`] sorts and deduplicates
/// it. Identifiers are formatted once per distinct spelling, not once per
/// occurrence.
pub fn candidate_deps(toks: &[SrcTok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut ids = Vec::new();
    let header = skip_context_clause(toks);
    let mut i = 0;
    while i < toks.len() {
        match toks[i].kind {
            TokenKind::KwOf => {
                if let Some(e) = ident(toks, i + 1) {
                    out.push(format!("entity.{e}"));
                    let kind = |j: usize| toks.get(j).map(|t| t.kind);
                    if i == header + 2
                        && kind(header) == Some(TokenKind::KwConfiguration)
                        && kind(i + 2) == Some(TokenKind::KwIs)
                        && kind(i + 3) == Some(TokenKind::KwFor)
                    {
                        if let Some(a) = ident(toks, i + 4) {
                            out.push(format!("arch.{e}.{a}"));
                        }
                    }
                }
            }
            TokenKind::KwPackage if toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::KwBody) => {
                if let Some(p) = ident(toks, i + 2) {
                    out.push(format!("pkg.{p}"));
                }
            }
            TokenKind::KwUse => {
                // use <lib> . <name> [. ...] ;
                if let (Some(_lib), Some(TokenKind::Dot), Some(name)) = (
                    ident(toks, i + 1),
                    toks.get(i + 2).map(|t| t.kind),
                    ident(toks, i + 3),
                ) {
                    if name != "all" {
                        out.push(format!("pkg.{name}"));
                    }
                }
            }
            // `entity work.e(a)` in binding indications and direct
            // instantiation — but not this unit's own `entity e is` /
            // `end entity` header tokens.
            TokenKind::KwEntity
                if i != header && (i == 0 || toks[i - 1].kind != TokenKind::KwEnd) =>
            {
                let (e, after) = match (
                    ident(toks, i + 1),
                    toks.get(i + 2).map(|t| t.kind),
                    ident(toks, i + 3),
                ) {
                    (Some(_lib), Some(TokenKind::Dot), Some(e)) => (Some(e), i + 4),
                    (e, _, _) => (e, i + 2),
                };
                if let Some(e) = e {
                    out.push(format!("entity.{e}"));
                    if toks.get(after).map(|t| t.kind) == Some(TokenKind::LParen) {
                        if let (Some(a), Some(TokenKind::RParen)) =
                            (ident(toks, after + 1), toks.get(after + 2).map(|t| t.kind))
                        {
                            out.push(format!("arch.{e}.{a}"));
                        }
                    }
                }
            }
            // Any identifier that spells a package name (selected names,
            // plain calls of use-d subprograms); resolved later.
            TokenKind::Id => ids.push(toks[i].text),
            _ => {}
        }
        i += 1;
    }
    ids.sort_unstable();
    ids.dedup();
    out.extend(ids.into_iter().map(|id| format!("pkg.{}", id.as_str())));
    out
}

/// Resolves one batch's units into the staged dependency graph.
///
/// `files` holds each input file's unit fronts, in input order.
/// `in_library` answers whether a key is already satisfied by the library
/// universe (the missing-unit fallback). It is asked at most once per
/// distinct key, so the library must not change during the call.
pub fn resolve<'a>(files: &[&'a [UnitFront]], in_library: &dyn Fn(&str) -> bool) -> DepGraph<'a> {
    let units: Vec<(usize, usize, &UnitFront)> = files
        .iter()
        .enumerate()
        .flat_map(|(f, us)| us.iter().enumerate().map(move |(u, front)| (f, u, front)))
        .collect();

    // Each key's providers in the batch, in input order. A key the batch
    // does not provide gets the library's answer, asked once: an empty
    // list when the library has it, `None` when it does not.
    let mut sources: HashMap<&str, Option<Vec<usize>>> = HashMap::new();
    for (i, (_, _, front)) in units.iter().enumerate() {
        if front.key.is_empty() {
            continue;
        }
        if let Some(providers) = sources.entry(&front.key).or_insert(Some(Vec::new())) {
            providers.push(i);
        }
    }

    let mut metas = Vec::with_capacity(units.len());
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
    for (i, &(file, unit_in_file, front)) in units.iter().enumerate() {
        // Candidates are sorted and unique, so the deps come out so too.
        let mut deps: Vec<&str> = Vec::new();
        for cand in front.candidates() {
            if cand == front.key {
                continue;
            }
            // A library unit satisfies the edge with no provider to wait
            // for, but it still stamps the unit.
            let source = sources
                .entry(cand)
                .or_insert_with(|| in_library(cand).then(Vec::new));
            if let Some(providers) = source {
                deps.push(cand);
                edges[i].extend(providers.iter().copied().filter(|&p| p != i));
            }
        }
        metas.push(UnitMeta {
            file,
            unit_in_file,
            front,
            deps,
        });
    }

    // Serialization chains keep the library history deterministic:
    // recompiles of the same key, and the architectures of one entity
    // (whose relative history order decides §3.3 default binding), commit
    // in input order. An architecture's class is its key without the
    // architecture name, `arch.<entity>`, which is no unit's key.
    let mut chains: HashMap<&str, usize> = HashMap::new();
    for (i, m) in metas.iter().enumerate() {
        let key = m.front.key.as_str();
        if key.is_empty() {
            continue;
        }
        let class = if key.starts_with("arch.") {
            key.rsplit_once('.').map_or(key, |(class, _)| class)
        } else {
            key
        };
        if let Some(prev) = chains.insert(class, i) {
            edges[i].push(prev);
        }
    }
    for e in &mut edges {
        e.sort_unstable();
        e.dedup();
    }

    // Wave = longest dependency path; cycle members get no wave.
    const UNVISITED: i64 = -1;
    const VISITING: i64 = -2;
    const CYCLIC: i64 = -3;
    let mut depth = vec![UNVISITED; metas.len()];
    let mut cycles: Vec<(Vec<usize>, String)> = Vec::new();
    fn visit(
        i: usize,
        edges: &[Vec<usize>],
        metas: &[UnitMeta],
        depth: &mut [i64],
        cycles: &mut Vec<(Vec<usize>, String)>,
        stack: &mut Vec<usize>,
    ) -> i64 {
        match depth[i] {
            VISITING => {
                // Found a cycle: everything on the stack from `i` on.
                let start = stack.iter().rposition(|&s| s == i).unwrap_or(0);
                let members: Vec<usize> = stack[start..].to_vec();
                let mut path: Vec<&str> = members
                    .iter()
                    .map(|&m| metas[m].front.key.as_str())
                    .collect();
                path.push(metas[i].front.key.as_str());
                for &m in &members {
                    depth[m] = CYCLIC;
                }
                cycles.push((members, path.join(" -> ")));
                return CYCLIC;
            }
            UNVISITED => {}
            d => return d,
        }
        depth[i] = VISITING;
        stack.push(i);
        let mut d = 0i64;
        let mut cyclic = false;
        for &p in &edges[i] {
            match visit(p, edges, metas, depth, cycles, stack) {
                CYCLIC => cyclic = true,
                pd => d = d.max(pd + 1),
            }
        }
        stack.pop();
        if depth[i] == CYCLIC || cyclic {
            // Either this unit was marked as a cycle member while its
            // children were visited, or it depends on one: exclude it from
            // scheduling (analysis of dependents would see no VIF anyway).
            if depth[i] != CYCLIC {
                depth[i] = CYCLIC;
                cycles.last_mut().expect("a cycle was recorded").0.push(i);
            }
            return CYCLIC;
        }
        depth[i] = d;
        d
    }
    for i in 0..metas.len() {
        let mut stack = Vec::new();
        visit(i, &edges, &metas, &mut depth, &mut cycles, &mut stack);
    }

    let max_depth = depth
        .iter()
        .copied()
        .filter(|&d| d >= 0)
        .max()
        .unwrap_or(-1);
    let mut waves: Vec<Vec<usize>> = vec![Vec::new(); (max_depth + 1) as usize];
    for (i, &d) in depth.iter().enumerate() {
        if d >= 0 {
            waves[d as usize].push(i);
        }
    }

    DepGraph {
        units: metas,
        edges,
        waves,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_lalr::ParseTree;
    use vhdl_sem::env::EnvKind;

    fn parse(src: &str) -> Vec<ParseTree<SrcTok>> {
        let an = vhdl_sem::analyze::Analyzer::new(EnvKind::Tree);
        an.parse_units(src).expect("parses")
    }

    /// The fronts of `src`'s units, one file's worth.
    fn batch_of(src: &str) -> Vec<UnitFront> {
        parse(src)
            .iter()
            .map(|u| UnitFront::of(u.leaves()))
            .collect()
    }

    const DESIGN: &str = "
        package consts is
          constant k : integer := 3;
        end consts;
        entity e is port (q : out integer); end e;
        use work.consts.all;
        architecture rtl of e is
        begin
          q <= k;
        end rtl;
    ";

    #[test]
    fn keys_and_edges_from_headers() {
        let units = batch_of(DESIGN);
        let g = resolve(&[&units], &|_| false);
        let keys: Vec<&str> = g.units.iter().map(|m| m.front.key.as_str()).collect();
        assert_eq!(keys, ["pkg.consts", "entity.e", "arch.e.rtl"]);
        assert!(g.cycles.is_empty());
        // pkg and entity are independent (wave 0); the arch needs both.
        assert_eq!(g.waves, vec![vec![0, 1], vec![2]]);
        assert_eq!(g.units[2].deps, vec!["entity.e", "pkg.consts"]);
    }

    #[test]
    fn out_of_order_input_is_staged_correctly() {
        // Architecture first, entity last: sequential compilation would
        // fail, the scheduler reorders.
        let units = batch_of(
            "architecture rtl of e is begin q <= 1; end rtl;
             entity e is port (q : out integer); end e;",
        );
        let g = resolve(&[&units], &|_| false);
        assert_eq!(g.waves, vec![vec![1], vec![0]]);
    }

    #[test]
    fn library_fallback_and_missing_units() {
        let units = batch_of(
            "use work.oldpkg.all;
             entity e is port (q : out integer); end e;",
        );
        // `oldpkg` is not in the batch; with a library hit it becomes a
        // stamped dependency without an edge…
        let g = resolve(&[&units], &|k| k == "pkg.oldpkg");
        assert_eq!(g.units[0].deps, vec!["pkg.oldpkg"]);
        assert_eq!(g.waves, vec![vec![0]]);
        // …and with no library hit it is simply not a dependency (analysis
        // will report the undefined name).
        let g = resolve(&[&units], &|_| false);
        assert!(g.units[0].deps.is_empty());
    }

    #[test]
    fn cycle_is_reported_not_hung() {
        let units = batch_of(
            "use work.b.all;
             package a is constant x : integer := 1; end a;
             use work.a.all;
             package b is constant y : integer := 2; end b;",
        );
        let g = resolve(&[&units], &|_| false);
        assert_eq!(g.cycles.len(), 1);
        let (members, path) = &g.cycles[0];
        assert_eq!(members.len(), 2);
        assert!(path.contains("pkg.a") && path.contains("pkg.b"), "{path}");
        assert!(g.waves.iter().all(|w| w.is_empty()));
    }

    #[test]
    fn architectures_of_one_entity_serialize_in_input_order() {
        let units = batch_of(
            "entity e is end e;
             architecture a1 of e is begin end a1;
             architecture a2 of e is begin end a2;",
        );
        let g = resolve(&[&units], &|_| false);
        // a2 must land in a later wave than a1 so the history's
        // latest-architecture answer matches sequential compilation.
        let wave_of = |i: usize| g.waves.iter().position(|w| w.contains(&i)).unwrap();
        assert!(wave_of(2) > wave_of(1));
        assert!(wave_of(1) > wave_of(0));
    }

    #[test]
    fn configuration_depends_on_the_architecture_it_configures() {
        let units = batch_of(
            "entity e is end;
             architecture a of e is begin end a;
             configuration c of e is for a end for; end c;",
        );
        let g = resolve(&[&units], &|_| false);
        assert_eq!(g.units[2].deps, vec!["arch.e.a", "entity.e"]);
        assert_eq!(g.waves, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn src_hash_ignores_whitespace_only_changes() {
        let a = parse("entity e is end e;");
        let b = parse("entity   e  is\n\n  end e ;  -- comment");
        let toks = |f: &[ParseTree<SrcTok>]| f[0].leaves().to_vec();
        assert_eq!(toks(&a).len(), toks(&b).len());
        assert_eq!(src_hash(&toks(&a)), src_hash(&toks(&b)));
        let c = parse("entity f is end f;");
        assert_ne!(src_hash(&toks(&a)), src_hash(&toks(&c)));
    }

    #[test]
    fn direct_binding_indication_adds_entity_and_arch_deps() {
        let units = batch_of(
            "entity inv is port (i : in bit; o : out bit); end inv;
             architecture fast of inv is begin o <= not i; end fast;
             entity pair is end pair;
             architecture s of pair is
               component inv port (i : in bit; o : out bit); end component;
               signal a, b : bit := '0';
               for u1 : inv use entity work.inv(fast);
             begin
               u1 : inv port map (i => a, o => b);
             end s;",
        );
        let g = resolve(&[&units], &|_| false);
        let arch = &g.units[3];
        assert!(arch.deps.contains(&"entity.inv"), "{:?}", arch.deps);
        assert!(arch.deps.contains(&"arch.inv.fast"), "{:?}", arch.deps);
        let wave_of = |i: usize| g.waves.iter().position(|w| w.contains(&i)).unwrap();
        assert!(wave_of(3) > wave_of(1));
    }

    /// A unit's candidates the simple way: every identifier occurrence
    /// formatted to `pkg.<id>` (a `use` clause's or package body's `pkg.`
    /// key spells an identifier too), the other rules' keys kept, sorted
    /// and deduplicated.
    fn naive_cands(toks: &[SrcTok]) -> Vec<String> {
        let mut out: Vec<String> = candidate_deps(toks)
            .into_iter()
            .filter(|k| !k.starts_with("pkg."))
            .collect();
        for t in toks.iter().filter(|t| t.kind == TokenKind::Id) {
            out.push(format!("pkg.{}", t.text.as_str()));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn candidates_match_a_per_occurrence_reference() {
        for seed in 0..8 {
            let profile = if seed % 2 == 0 {
                vhdl_conform::Profile::Small
            } else {
                vhdl_conform::Profile::Heavy
            };
            let design =
                vhdl_conform::gen_design(&mut ag_harness::Source::from_seed(seed), profile);
            for unit in parse(&design.source) {
                let toks = unit.leaves();
                let front = UnitFront::of(toks);
                let cands: Vec<&str> = front.candidates().collect();
                assert_eq!(cands, naive_cands(toks), "seed {seed}");
            }
        }
    }

    #[test]
    fn library_is_asked_once_per_distinct_key() {
        // Two files name `oldpkg` and `k` again and again; neither is in
        // the batch.
        let a = batch_of(
            "use work.oldpkg.all;
             entity e is port (q : out integer); end e;
             use work.oldpkg.all;
             architecture rtl of e is begin q <= k + k; end rtl;",
        );
        let b = batch_of("use work.oldpkg.all; package p is constant c : integer := k; end p;");
        let asked = std::cell::RefCell::new(Vec::new());
        let g = resolve(&[&a, &b], &|key| {
            asked.borrow_mut().push(key.to_string());
            key == "pkg.oldpkg"
        });
        let mut distinct = asked.borrow().clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(asked.borrow().len(), distinct.len(), "{:?}", asked.borrow());
        assert!(distinct.contains(&"pkg.oldpkg".to_string()));
        assert!(
            !distinct.contains(&"entity.e".to_string()),
            "the batch provides it"
        );
        for m in &g.units {
            assert!(m.deps.contains(&"pkg.oldpkg"), "{:?}", m.deps);
        }
    }
}
