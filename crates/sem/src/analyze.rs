//! Analysis driver: evaluates the principal AG once per compilation unit
//! (§4.1: "the evaluator for the [principal AG] operates once per VHDL
//! compilation unit") and stores the resulting VIF in the work library.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use ag_core::{ClassId, DemandEval, EvalError};
use ag_harness::fnv1a;
use ag_lalr::ParseTree;
use vhdl_syntax::{FrontError, PrincipalGrammar, SrcTok};
use vhdl_vif::{mk, Field, Kind, LibrarySet, VifError, VifNode};

use crate::env::{Den, Env, EnvKind, Visibility};
use crate::msg::{Msg, Msgs};
use crate::principal_ag::PrincipalAg;
use crate::standard::{standard, Standard};
use crate::uid::UidScope;
use crate::value::Value;

/// Loads separately-compiled units — the foreign-reference interface the
/// principal AG's out-of-line functions use.
pub trait UnitLoader {
    /// Loads `lib.key`, e.g. `("work", "pkg.utils")`.
    fn load_unit(&self, lib: &str, key: &str) -> Option<Rc<VifNode>>;
    /// Loads `lib.key` like [`UnitLoader::load_unit`], but tells a unit
    /// that is absent (`Ok(None)`) from one that exists and cannot be read
    /// (`Err`, naming the unit). Analysis reports the second as an error
    /// of the unit being analyzed when that unit names the damaged one;
    /// the implicit `use work.all` scan skips it. A loader that cannot
    /// fail that way keeps this default.
    fn try_load_unit(&self, lib: &str, key: &str) -> Result<Option<Rc<VifNode>>, VifError> {
        Ok(self.load_unit(lib, key))
    }
    /// Latest-compiled architecture name of an entity (the §3.3 default
    /// binding rule).
    fn latest_architecture(&self, entity: &str) -> Option<String>;
    /// All unit keys of a library (for `use lib.all`-style visibility).
    fn unit_keys(&self, lib: &str) -> Vec<String>;
}

impl UnitLoader for LibrarySet {
    fn load_unit(&self, lib: &str, key: &str) -> Option<Rc<VifNode>> {
        self.try_load_unit(lib, key).ok().flatten()
    }

    /// A missing unit is an expected outcome (analysis reports the
    /// undefined reference at the use site); any other load failure — a
    /// dependency whose VIF breaks the schema, an I/O error — is the
    /// error [`LibrarySet::load`] returns, naming the damaged unit.
    fn try_load_unit(&self, lib: &str, key: &str) -> Result<Option<Rc<VifNode>>, VifError> {
        match self.load(&format!("{lib}.{key}")) {
            Ok(node) => Ok(Some(node)),
            Err(VifError::MissingUnit(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn latest_architecture(&self, entity: &str) -> Option<String> {
        self.work().latest_architecture(entity)
    }

    fn unit_keys(&self, lib: &str) -> Vec<String> {
        self.library(lib)
            .map(|l| l.keys_by_first_use())
            .unwrap_or_default()
    }
}

/// The loader one analysis reads through: it passes every load on, adds
/// up the time the loads take, and keeps the text of each distinct error
/// of a `load_unit`, which becomes an error of the unit being analyzed.
struct LoadLog {
    inner: Rc<dyn UnitLoader>,
    spent: Cell<Duration>,
    faults: RefCell<Vec<String>>,
}

impl UnitLoader for LoadLog {
    fn load_unit(&self, lib: &str, key: &str) -> Option<Rc<VifNode>> {
        self.try_load_unit(lib, key).unwrap_or_else(|e| {
            let e = e.to_string();
            let mut faults = self.faults.borrow_mut();
            if !faults.contains(&e) {
                faults.push(e);
            }
            None
        })
    }

    /// Times the load but records no fault: a caller that asks this way
    /// handles the error itself.
    fn try_load_unit(&self, lib: &str, key: &str) -> Result<Option<Rc<VifNode>>, VifError> {
        let t0 = Instant::now();
        let loaded = self.inner.try_load_unit(lib, key);
        self.spent.set(self.spent.get() + t0.elapsed());
        loaded
    }

    fn latest_architecture(&self, entity: &str) -> Option<String> {
        self.inner.latest_architecture(entity)
    }

    fn unit_keys(&self, lib: &str) -> Vec<String> {
        self.inner.unit_keys(lib)
    }
}

/// The analysis context threaded through the principal AG (`CTX`
/// attribute).
pub struct Actx {
    /// Unit loader (usually a [`LibrarySet`]).
    pub loader: Rc<dyn UnitLoader>,
    /// Predefined types.
    pub std: Rc<Standard>,
    /// Statistics: number of `expr_eval` invocations (cascade count).
    pub expr_evals: RefCell<u64>,
    /// Statistics: rule instances the expression AG ran, over every
    /// invocation.
    pub expr_rule_evals: Cell<u64>,
    /// The unit's uid scope: every declaration's uid is minted here.
    pub uids: UidScope,
}

impl std::fmt::Debug for Actx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Actx").finish_non_exhaustive()
    }
}

impl Actx {
    /// Counts one cascade invocation and the expression AG's rule
    /// instances in it.
    pub fn count_expr_eval(&self, rule_evals: u64) {
        *self.expr_evals.borrow_mut() += 1;
        self.expr_rule_evals
            .set(self.expr_rule_evals.get() + rule_evals);
    }

    /// Loads `work.<key>` for a use site that reports an absent unit
    /// itself (`Ok(None)`). A unit that exists but cannot be read is the
    /// `Err`, and it is recorded as a fault of the unit being analyzed,
    /// which names it once; the use site adds no "not found" line.
    ///
    /// # Errors
    ///
    /// The unit exists but cannot be read.
    pub fn load_work(&self, key: &str) -> Result<Option<Rc<VifNode>>, VifError> {
        self.loader.try_load_unit("work", key).inspect_err(|_| {
            // `load_unit` is the loader's recording path; a failed load is
            // not cached, so it meets the same error again.
            let _ = self.loader.load_unit("work", key);
        })
    }
}

/// One analyzed compilation unit.
#[derive(Clone, Debug)]
pub struct AnalyzedUnit {
    /// Library key (`entity.x`, `arch.x.rtl`, `pkg.p`, `pkgbody.p`,
    /// `config.c`).
    pub key: String,
    /// The unit's VIF.
    pub node: Rc<VifNode>,
    /// Diagnostics from this unit.
    pub msgs: Msgs,
    /// Number of `expr_eval` cascade invocations while analyzing it.
    pub expr_evals: u64,
    /// Rule instances both AGs ran while analyzing it.
    pub rule_evals: RuleEvals,
    /// Time spent loading library units while analyzing it.
    pub vif_read: Duration,
}

/// Rule instances the two AGs ran analyzing one unit: how much attribute
/// evaluation did, whatever the clock says.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleEvals {
    /// The principal AG's, over the unit's tree.
    pub principal: u64,
    /// The expression AG's, over every maximal expression of the unit.
    pub expr: u64,
}

impl RuleEvals {
    /// Both AGs' together.
    pub fn total(self) -> u64 {
        self.principal + self.expr
    }
}

thread_local! {
    /// `STD.STANDARD`, built once per thread and environment kind (indexed
    /// by `EnvKind as usize`) and shared by every analyzer on the thread:
    /// its nodes are immutable and its environment is persistent, so no
    /// analysis can change it.
    static STANDARDS: [OnceCell<Rc<Standard>>; 3] =
        const { [OnceCell::new(), OnceCell::new(), OnceCell::new()] };
}

/// The compiler front half: principal grammar + principal AG, reusable
/// across files.
///
/// The grammars, LALR tables and attribute grammars of both AGs are built
/// once per process and shared by every thread; only [`Standard`] (one
/// per [`EnvKind`]), whose nodes are `Rc`, is built per thread.
pub struct Analyzer {
    /// The principal grammar and parse table (shared by the process).
    pub grammar: &'static PrincipalGrammar,
    /// The principal attribute grammar (shared by the process).
    pub pag: &'static PrincipalAg,
    /// Predefined environment and types (shared per thread and kind).
    pub std: Rc<Standard>,
    /// The environment representation this analyzer was built with.
    pub env_kind: EnvKind,
}

impl Analyzer {
    /// Builds the analyzer (reuse across compilations). The first
    /// analyzer in the process builds the parse tables and both attribute
    /// grammars, and the first of each [`EnvKind`] on a thread builds
    /// `STD.STANDARD`; later ones share them.
    pub fn new(env_kind: EnvKind) -> Analyzer {
        // Build the expression AG now so the first unit's timing doesn't
        // absorb its construction.
        let _ = crate::expr_ag::ExprAg::shared();
        Analyzer {
            grammar: PrincipalGrammar::shared(),
            pag: PrincipalAg::shared(),
            std: STANDARDS.with(|s| {
                Rc::clone(s[env_kind as usize].get_or_init(|| Rc::new(standard(env_kind))))
            }),
            env_kind,
        }
    }

    /// Parses a design file into one tree per design unit, leaving out
    /// the nodes of the principal AG's transparent productions. The file
    /// is a left spine of `dus_more` nodes over its units (`df`,
    /// `dus_one`, and `design_unit` for a unit without a context clause,
    /// have no node), so a unit's root may be, say, an `entity_decl`; the
    /// root inputs still land there, because a transparent production's
    /// right-hand side has every class of its left. Each unit's leaves
    /// are its tokens.
    ///
    /// # Errors
    ///
    /// Scan/parse errors.
    pub fn parse_units(&self, src: &str) -> Result<Vec<ParseTree<SrcTok>>, FrontError> {
        let file = self.grammar.parse_eliding(src, self.pag.ag.transparent())?;
        let more = self.grammar.prod("dus_more");
        let mut roots = Vec::new();
        let mut n = file.root();
        while file.prod(n) == Some(more) {
            roots.push(file.child(n, 2));
            n = file.child(n, 1);
        }
        roots.push(n);
        Ok(roots.iter().rev().map(|&n| file.subtree(n)).collect())
    }

    /// Analyzes one design-unit tree against the libraries behind
    /// `loader` (usually a [`LibrarySet`]), returning the unit without
    /// storing it. A library unit
    /// that exists but cannot be read
    /// ([`UnitLoader::try_load_unit`]'s `Err`) is an error of this unit,
    /// at its first token, naming the damaged unit.
    pub fn analyze_unit_with_loader(
        &self,
        unit: &ParseTree<SrcTok>,
        loader: Rc<dyn UnitLoader>,
    ) -> AnalyzedUnit {
        let _t = ag_harness::trace::span("principal-ag");
        ag_harness::trace::counter("units-analyzed", 1);
        let log = Rc::new(LoadLog {
            inner: loader,
            spent: Cell::default(),
            faults: RefCell::default(),
        });
        let (actx, inputs) = self.root_inputs(unit, Rc::clone(&log) as Rc<dyn UnitLoader>);
        let _t = ag_harness::trace::span("ag-eval");
        let eval = DemandEval::new(&self.pag.ag, unit, inputs);
        let mut msgs = Msgs::none();
        let produced = match eval.root_value(self.pag.classes.units) {
            Ok(v) => v.expect_list().first().cloned(),
            Err(e @ EvalError::TooDeep { node }) => {
                // At the last token at or before the node: in postorder,
                // the end of its subtree.
                let at = (0..=node).rev().find_map(|n| unit.token(n)).map(|t| t.pos);
                msgs.push(Msg::error(at.unwrap_or_default(), e.to_string()));
                None
            }
            Err(e) => {
                msgs.push(Msg::error(Default::default(), format!("internal: {e}")));
                None
            }
        };
        let unit_msgs = eval.root_value(self.pag.classes.msgs);
        let at = unit.leaves().first().map(|t| t.pos).unwrap_or_default();
        for fault in log.faults.take() {
            msgs.push(Msg::error(
                at,
                format!("library unit cannot be read: {fault}"),
            ));
        }
        if let Ok(m) = unit_msgs {
            msgs = Msgs::concat(&msgs, m.as_msgs());
        }
        let (key, node) = match produced {
            Some(Value::Node(node)) => (unit_key(&node), node),
            _ => {
                if !msgs.has_errors() {
                    msgs.push(Msg::error(Default::default(), "no unit produced"));
                }
                (String::new(), mk::error())
            }
        };
        let expr_evals = *actx.expr_evals.borrow();
        AnalyzedUnit {
            key,
            node,
            msgs,
            expr_evals,
            rule_evals: RuleEvals {
                principal: eval.n_rule_evals() as u64,
                expr: actx.expr_rule_evals.get(),
            },
            vif_read: log.spent.get(),
        }
    }

    /// The principal AG's root inputs for `unit` (ENV, CTX, LEVEL) and the
    /// analysis context they carry.
    pub fn root_inputs(
        &self,
        unit: &ParseTree<SrcTok>,
        loader: Rc<dyn UnitLoader>,
    ) -> (Rc<Actx>, Vec<(ClassId, Value)>) {
        let actx = Rc::new(Actx {
            loader,
            std: Rc::clone(&self.std),
            expr_evals: RefCell::new(0),
            expr_rule_evals: Cell::new(0),
            uids: UidScope::unit(unit.leaves()),
        });
        let env = self.unit_start_env(&actx);
        let classes = &self.pag.classes;
        let inputs = vec![
            (classes.env, Value::Env(env)),
            (classes.ctx, Value::Ctx(Rc::clone(&actx))),
            (classes.level, Value::Int(0)),
        ];
        (actx, inputs)
    }

    /// The environment a fresh compilation unit starts with: STD.STANDARD
    /// plus the implicit `library work; use work.all;` (§3.4 footnote).
    pub fn unit_start_env(&self, actx: &Rc<Actx>) -> Env {
        let mut env = self.std.env.clone();
        env = env.bind(
            "work",
            Den {
                node: mk::library("work"),
                vis: Visibility::Implicit,
            },
        );
        // use work.all: the work library's packages become directly
        // visible by name (entities and configurations are resolved
        // through the library loader when named, so they need no eager
        // binding). This is still real library traffic per compilation —
        // the cost the paper blames for much of its compile time.
        // A package that cannot be read is left out here, not reported:
        // the unit may never name it (or may be its recompile), and a
        // unit that does name it loads it again and reports the fault.
        for key in actx.loader.unit_keys("work") {
            let visible = key.starts_with("pkg.");
            if !visible {
                continue;
            }
            if let Ok(Some(node)) = actx.loader.try_load_unit("work", &key) {
                if let Some(name) = node.name().map(str::to_string) {
                    env = env.bind(
                        &name,
                        Den {
                            node,
                            vis: Visibility::UseClause,
                        },
                    );
                }
            }
        }
        env
    }
}

/// Library key of an analyzed unit node.
pub fn unit_key(node: &VifNode) -> String {
    let name = node.name().unwrap_or("anon");
    match node.tag() {
        Kind::arch => format!("arch.{}.{name}", node.str(Field::entity_name)),
        _ => format!("{}.{name}", node.kind()),
    }
}

/// FNV-1a hash of a unit's token run (`unit.leaves()`): every token's
/// kind name and spelling, separated so adjacent tokens can't alias. It
/// scopes the unit's uids ([`UidScope`]) and is the source half of the
/// batch driver's incremental stamp.
/// Whitespace and comments don't lex, so they never perturb either.
pub fn src_hash(toks: &[SrcTok]) -> u64 {
    toks.iter().fold(0, |h, t| {
        let h = fnv1a(h, t.kind.name().as_bytes());
        let h = fnv1a(h, &[0x1f]);
        let h = fnv1a(h, t.text.as_str().as_bytes());
        fnv1a(h, &[0x1e])
    })
}
