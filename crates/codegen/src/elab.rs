//! Elaboration: turning analyzed units into a kernel [`Program`].
//!
//! Walks the design hierarchy from a top entity/architecture (or a
//! configuration unit), resolving component bindings in the §3.3
//! precedence order — explicit configuration unit, configuration
//! specification in the architecture, then the default rules, including
//! the *latest compiled architecture* drawn from the library usage
//! history.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use ag_harness::fnv1a;
use sim_kernel::{Insn, Program, SigId, Val};
use vhdl_sem::analyze::UnitLoader;
use vhdl_vif::{Field, Kind, LibrarySet, VifError, VifNode, VifValue};

use crate::lower::{default_value, static_value, CgError, FnLower, LowerCtx, Storage};

/// Elaboration errors.
#[derive(Debug)]
pub enum ElabError {
    /// A unit is missing from the libraries.
    NotFound(String),
    /// Lowering failed.
    Cg(CgError),
    /// A binding could not be resolved.
    Binding(String),
    /// A unit exists but cannot be read (a damaged library).
    Library(VifError),
}

impl std::fmt::Display for ElabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElabError::NotFound(u) => write!(f, "unit not found: {u}"),
            ElabError::Cg(e) => write!(f, "code generation: {e}"),
            ElabError::Binding(m) => write!(f, "binding: {m}"),
            ElabError::Library(e) => write!(f, "library: {e}"),
        }
    }
}

impl std::error::Error for ElabError {}

impl From<CgError> for ElabError {
    fn from(e: CgError) -> Self {
        ElabError::Cg(e)
    }
}

/// Loads `work.<key>`, naming the unit `what` when it does not exist.
fn load(
    libs: &LibrarySet,
    key: &str,
    what: impl FnOnce() -> String,
) -> Result<Rc<VifNode>, ElabError> {
    match libs.load(&format!("work.{key}")) {
        Ok(unit) => Ok(unit),
        Err(VifError::MissingUnit(_)) => Err(ElabError::NotFound(what())),
        Err(e) => Err(ElabError::Library(e)),
    }
}

/// A resolved component binding.
#[derive(Clone, Debug)]
struct CfgBind {
    /// `all`, `others`, or instance labels.
    insts: InstSel,
    /// Component name it applies to.
    comp: String,
    /// Bound entity name (empty = open: leave unbound).
    entity: String,
    /// Bound architecture name (empty = latest).
    arch: String,
}

#[derive(Clone, Debug)]
enum InstSel {
    All,
    Others,
    Names(Vec<String>),
}

impl InstSel {
    fn matches(&self, label: &str, already: bool) -> bool {
        match self {
            InstSel::All => true,
            InstSel::Others => !already,
            InstSel::Names(ns) => ns.iter().any(|n| n == label),
        }
    }
}

/// Elaborates `entity(arch)` into a runnable program. `arch = None` uses
/// the latest compiled architecture (the default-binding rule).
pub fn elaborate(
    libs: &Rc<LibrarySet>,
    entity: &str,
    arch: Option<&str>,
) -> Result<Program, ElabError> {
    let _t = ag_harness::trace::span("elaborate");
    let mut e = Elab::new(libs);
    e.collect_pkg_subprogs()?;
    let arch_name = match arch {
        Some(a) => a.to_string(),
        // The last-use history read (see `library_digest`).
        None => libs
            .latest_architecture(entity)
            .ok_or_else(|| ElabError::NotFound(format!("architecture of {entity}")))?,
    };
    e.instantiate(
        entity,
        &arch_name,
        entity,
        &HashMap::new(),
        &HashMap::new(),
        &[],
    )?;
    // Elaboration-time static sensitivity: computed once here so every
    // simulator built from this program (server re-runs)
    // skips the kernel's fallback code walk.
    e.program.finalize_sensitivity();
    Ok(e.program)
}

/// Elaborates via a configuration unit.
pub fn elaborate_config(libs: &Rc<LibrarySet>, config: &str) -> Result<Program, ElabError> {
    let _t = ag_harness::trace::span("elaborate");
    let cfg = load(libs, &format!("config.{config}"), || {
        format!("configuration {config}")
    })?;
    if cfg.tag() != Kind::config {
        return Err(ElabError::NotFound(format!("configuration {config}")));
    }
    let entity = cfg.str(Field::entity_name).to_string();
    let arch = cfg.str(Field::arch_name).to_string();
    let mut e = Elab::new(libs);
    e.collect_pkg_subprogs()?;
    let binds: Vec<CfgBind> = cfg
        .nodes(Field::bindings)
        .filter(|b| b.tag() == Kind::cfgbind)
        .map(|b| decode_cfgbind(b))
        .collect();
    e.instantiate(
        &entity,
        &arch,
        &entity,
        &HashMap::new(),
        &HashMap::new(),
        &binds,
    )?;
    e.program.finalize_sensitivity();
    Ok(e.program)
}

/// A digest of everything in `libs` that elaboration can observe: equal
/// digests and an equal top (entity and architecture, or configuration)
/// elaborate to the same program. `vhdld` keys its per-session program
/// cache with it. Elaboration reads the libraries in these ways, and the
/// digest covers each:
/// - unit contents, through [`LibrarySet::load`] (which follows foreign
///   references into any library of the set): every library's name and
///   the VIF text hash of each of its distinct units;
/// - the work library's history, in exactly two forms: the first-use
///   order, in which `Elab::collect_pkg_subprogs` indexes packages, and
///   the last-use order, from which `latest_architecture` picks the §3.3
///   default binding (in [`elaborate`] and in `Elab::conc`).
///
/// A new read of library state must extend this digest, or a cached
/// program outlives the state it was elaborated from.
///
/// # Errors
///
/// A history key whose text cannot be read (a damaged disk library): the
/// caller elaborates without the cache, and the elaborator reports it.
pub fn library_digest(libs: &LibrarySet) -> Result<u64, VifError> {
    let work = libs.work();
    let mut h = 0;
    for lib in std::iter::once(work).chain(libs.refs()) {
        h = fnv1a(h, lib.name().as_bytes());
        h = fnv1a(h, &[0]);
        for key in lib.keys_by_first_use() {
            h = fnv1a(h, key.as_bytes());
            h = fnv1a(h, &lib.text_hash(&key)?.to_le_bytes());
        }
        h = fnv1a(h, &[0]);
    }
    for key in work.keys_by_last_use() {
        h = fnv1a(h, key.as_bytes());
        h = fnv1a(h, &[0]);
    }
    Ok(h)
}

fn decode_cfgbind(b: &VifNode) -> CfgBind {
    let comp = b.str(Field::comp).to_string();
    let insts = decode_insts(b.field(Field::insts));
    let (entity, arch) = decode_binding(b.field(Field::binding));
    CfgBind {
        insts,
        comp,
        entity,
        arch,
    }
}

fn decode_insts(v: Option<&VifValue>) -> InstSel {
    let Some(VifValue::List(parts)) = v else {
        return InstSel::All;
    };
    match parts.first().and_then(|v| v.as_str()) {
        Some("others") => InstSel::Others,
        Some("all") => InstSel::All,
        Some("ids") => {
            let names = match parts.get(1) {
                Some(VifValue::List(ids)) => ids
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect(),
                _ => Vec::new(),
            };
            InstSel::Names(names)
        }
        _ => InstSel::All,
    }
}

/// Decodes a binding-indication bundle (`["entity", name-strings, arch,
/// maps]` / `["config", …]` / `["open"]` / `["default"]`).
fn decode_binding(v: Option<&VifValue>) -> (String, String) {
    let Some(VifValue::List(parts)) = v else {
        return (String::new(), String::new());
    };
    match parts.first().and_then(|v| v.as_str()) {
        Some("entity") => {
            let name = match parts.get(1) {
                Some(VifValue::List(segs)) => segs
                    .iter()
                    .filter_map(|v| v.as_str())
                    .rfind(|s| *s != "." && *s != "work")
                    .unwrap_or("")
                    .to_string(),
                _ => String::new(),
            };
            let arch = parts
                .get(2)
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string();
            (name, arch)
        }
        _ => (String::new(), String::new()),
    }
}

struct Elab<'a> {
    libs: &'a Rc<LibrarySet>,
    ctx: LowerCtx,
    program: Program,
}

impl<'a> Elab<'a> {
    fn new(libs: &'a Rc<LibrarySet>) -> Elab<'a> {
        Elab {
            libs,
            ctx: LowerCtx::new(),
            program: Program::default(),
        }
    }

    /// Indexes every subprogram in every package of the work library (and
    /// their bodies) so calls can be compiled on demand, in the order the
    /// units were first compiled. This order is one of the two history
    /// reads [`library_digest`] covers.
    fn collect_pkg_subprogs(&mut self) -> Result<(), ElabError> {
        for key in self.libs.work().keys_by_first_use() {
            if !(key.starts_with("pkg.") || key.starts_with("pkgbody.")) {
                continue;
            }
            let unit = match load(self.libs, &key, String::new) {
                Err(ElabError::NotFound(_)) => continue,
                unit => unit?,
            };
            for n in unit
                .nodes(Field::decls)
                .filter(|n| n.tag() == Kind::subprog)
            {
                self.ctx.add_subprog(n);
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn instantiate(
        &mut self,
        entity_name: &str,
        arch_name: &str,
        path: &str,
        port_actuals: &HashMap<String, SigId>,
        generic_actuals: &HashMap<String, Val>,
        cfg_binds: &[CfgBind],
    ) -> Result<(), ElabError> {
        // Each instance gets its own storage scope: the same architecture
        // instantiated twice binds its objects to different signals.
        let saved_storage = self.ctx.storage.clone();
        let result = self.instantiate_scoped(
            entity_name,
            arch_name,
            path,
            port_actuals,
            generic_actuals,
            cfg_binds,
        );
        self.ctx.storage = saved_storage;
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn instantiate_scoped(
        &mut self,
        entity_name: &str,
        arch_name: &str,
        path: &str,
        port_actuals: &HashMap<String, SigId>,
        generic_actuals: &HashMap<String, Val>,
        cfg_binds: &[CfgBind],
    ) -> Result<(), ElabError> {
        let entity = load(self.libs, &format!("entity.{entity_name}"), || {
            format!("entity {entity_name}")
        })?;
        let arch = load(
            self.libs,
            &format!("arch.{entity_name}.{arch_name}"),
            || format!("architecture {entity_name}({arch_name})"),
        )?;
        // Record the region scope for the Name Server hierarchy.
        self.program.regions.push(path.to_string());

        // Generics: actual, or default initializer.
        for gn in entity.nodes(Field::generics) {
            let name = gn.name().unwrap_or("?");
            let uid = gn.str(Field::uid).to_string();
            let v = match generic_actuals.get(name) {
                Some(v) => v.clone(),
                None => match gn.node_field(Field::init) {
                    Some(init) => static_value(&self.ctx, init)?,
                    None => {
                        return Err(ElabError::Binding(format!(
                            "generic `{name}` of {path} has no value"
                        )))
                    }
                },
            };
            self.ctx.storage.insert(uid, Storage::Const(v));
        }
        // Ports: bind to actuals or fresh local signals.
        for pn in entity.nodes(Field::ports) {
            let name = pn.name().unwrap_or("?");
            let uid = pn.str(Field::uid).to_string();
            let sig = match port_actuals.get(name) {
                Some(s) => *s,
                None => {
                    let init = match pn.node_field(Field::init) {
                        Some(i) => static_value(&self.ctx, i)?,
                        None => default_value(pn.node(Field::ty)),
                    };
                    self.program.add_signal(format!("{path}.{name}"), init)
                }
            };
            self.ctx.storage.insert(uid, Storage::Signal(sig));
        }
        // Declarations of the entity and architecture.
        for d in entity
            .list_field(Field::decls)
            .iter()
            .chain(arch.list_field(Field::decls))
        {
            let Some(dn) = d.as_node() else { continue };
            self.declare(dn, path)?;
        }
        // Configuration specs local to the architecture.
        let mut local_binds: Vec<CfgBind> = Vec::new();
        for c in arch.list_field(Field::cfgs) {
            if let VifValue::List(parts) = c {
                let insts = decode_insts(parts.first());
                let comp = match parts.get(1) {
                    Some(VifValue::List(segs)) => segs
                        .iter()
                        .filter_map(|v| v.as_str())
                        .rfind(|s| *s != ".")
                        .unwrap_or("")
                        .to_string(),
                    _ => String::new(),
                };
                let (entity, arch) = decode_binding(parts.get(2));
                local_binds.push(CfgBind {
                    insts,
                    comp,
                    entity,
                    arch,
                });
            }
        }
        // Concurrent statements.
        let mut bound_insts: Vec<String> = Vec::new();
        let concs: Vec<Rc<VifNode>> = arch.nodes(Field::concs).cloned().collect();
        for conc in concs {
            self.conc(&conc, path, cfg_binds, &local_binds, &mut bound_insts)?;
        }
        Ok(())
    }

    /// Declares one architecture/entity/block declaration at `path`.
    fn declare(&mut self, dn: &Rc<VifNode>, path: &str) -> Result<(), ElabError> {
        match dn.tag() {
            Kind::obj if dn.str(Field::class) == "signal" => {
                let ty = dn.node(Field::ty);
                let init = match dn.node_field(Field::init) {
                    Some(i) => static_value(&self.ctx, i)?,
                    None => default_value(ty),
                };
                let name = dn.name().unwrap_or("?");
                let sig = self.program.add_signal(format!("{path}.{name}"), init);
                // Resolution function from the subtype.
                if let Some(res) = vhdl_sem::types::resolution_of(ty) {
                    self.ctx.add_subprog(&res);
                    let mut fl = FnLower::new(&mut self.ctx, &mut self.program, 1);
                    let f = fl.compile_subprog(res.str(Field::uid))?;
                    self.program.signals[sig.0 as usize].resolution = Some(f);
                }
                let uid = dn.str(Field::uid).to_string();
                self.ctx.storage.insert(uid, Storage::Signal(sig));
            }
            Kind::subprog => self.ctx.add_subprog(dn),
            _ => {}
        }
        Ok(())
    }

    fn conc(
        &mut self,
        conc: &Rc<VifNode>,
        path: &str,
        cfg_binds: &[CfgBind],
        local_binds: &[CfgBind],
        bound: &mut Vec<String>,
    ) -> Result<(), ElabError> {
        match conc.tag() {
            Kind::process => self.lower_process(conc, path)?,
            Kind::block => {
                // Guard signal + guard-update process, then nested
                // concurrency.
                let bpath = format!("{path}.{}", conc.name().unwrap_or("blk"));
                self.program.regions.push(bpath.clone());
                if let (Some(gobj), Some(gexpr)) = (
                    conc.node_field(Field::guard_sig),
                    conc.node_field(Field::guard_expr),
                ) {
                    let sig = self
                        .program
                        .add_signal(format!("{bpath}.guard"), Val::Int(0));
                    let uid = gobj.str(Field::uid).to_string();
                    self.ctx.storage.insert(uid, Storage::Signal(sig));
                    self.lower_guard_process(&bpath, sig, gexpr)?;
                }
                for dn in conc.nodes(Field::decls) {
                    self.declare(dn, &bpath)?;
                }
                let mut inner_bound = Vec::new();
                let inner: Vec<Rc<VifNode>> = conc.nodes(Field::concs).cloned().collect();
                for c in inner {
                    self.conc(&c, &bpath, cfg_binds, local_binds, &mut inner_bound)?;
                }
            }
            Kind::inst => {
                let label = conc.name().unwrap_or("u").to_string();
                let comp_name = conc.node(Field::comp).name().unwrap_or("?").to_string();
                // Binding precedence: configuration unit, then local spec,
                // then defaults (§3.3).
                let find = |binds: &[CfgBind]| -> Option<(String, String)> {
                    binds
                        .iter()
                        .find(|b| b.comp == comp_name && b.insts.matches(&label, false))
                        .map(|b| (b.entity.clone(), b.arch.clone()))
                };
                let (entity, arch) = find(cfg_binds)
                    .or_else(|| find(local_binds))
                    .unwrap_or_default();
                let entity = if entity.is_empty() {
                    comp_name.clone()
                } else {
                    entity
                };
                // The last-use history read (see `library_digest`).
                let arch = if arch.is_empty() {
                    self.libs.latest_architecture(&entity).ok_or_else(|| {
                        ElabError::Binding(format!(
                            "no architecture for `{entity}` (instance {path}.{label})"
                        ))
                    })?
                } else {
                    arch
                };
                bound.push(label.clone());
                // Map actuals.
                let mut ports = HashMap::new();
                let mut generics = HashMap::new();
                for an in conc.nodes(Field::port_map) {
                    let formal = an.str(Field::formal).to_string();
                    if let Some(actual) = an.node_field(Field::actual) {
                        let sig = self.signal_of_actual(actual).ok_or_else(|| {
                            ElabError::Binding(format!(
                                "port `{formal}` of {path}.{label}: actual is not a signal"
                            ))
                        })?;
                        ports.insert(formal, sig);
                    }
                }
                for an in conc.nodes(Field::generic_map) {
                    let formal = an.str(Field::formal).to_string();
                    if let Some(actual) = an.node_field(Field::actual) {
                        generics.insert(formal, static_value(&self.ctx, actual)?);
                    }
                }
                let child_path = format!("{path}.{label}");
                self.instantiate(&entity, &arch, &child_path, &ports, &generics, cfg_binds)?;
            }
            _ => {
                let k = conc.kind();
                return Err(ElabError::Cg(CgError::Unsupported(format!(
                    "concurrent {k}"
                ))));
            }
        }
        Ok(())
    }

    fn signal_of_actual(&self, actual: &VifNode) -> Option<SigId> {
        if actual.tag() != Kind::e_ref {
            return None;
        }
        match self
            .ctx
            .storage
            .get(actual.node(Field::obj).str(Field::uid))
        {
            Some(Storage::Signal(s)) => Some(*s),
            _ => None,
        }
    }

    fn lower_process(&mut self, proc: &Rc<VifNode>, path: &str) -> Result<(), ElabError> {
        let name = format!("{path}.{}", proc.name().unwrap_or("proc"));
        let mut fl = FnLower::new(&mut self.ctx, &mut self.program, 0);
        // Declarations: variables get slots + init code; nested subprograms
        // register for on-demand compilation.
        for dn in proc.nodes(Field::decls) {
            match dn.tag() {
                Kind::obj => {
                    let slot = fl.alloc(dn.str(Field::uid));
                    fl.lower_var_init(dn, slot)?;
                }
                Kind::subprog => fl.ctx.add_subprog(dn),
                _ => {}
            }
        }
        let body_start = fl.code.len() as u32;
        for sn in proc.nodes(Field::body) {
            fl.stmt(sn)?;
        }
        // The process statement list repeats forever.
        fl.code.push(Insn::Jump(body_start));
        let (code, n_locals) = (fl.code, fl.next_slot);
        self.program.add_process(name, n_locals, code);
        Ok(())
    }

    /// The implicit process maintaining a block's GUARD signal.
    fn lower_guard_process(
        &mut self,
        path: &str,
        sig: SigId,
        expr: &Rc<VifNode>,
    ) -> Result<(), ElabError> {
        let mut fl = FnLower::new(&mut self.ctx, &mut self.program, 0);
        let mut sens = Vec::new();
        crate::lower::collect_signals(&mut fl, expr, &mut sens)?;
        sens.sort();
        sens.dedup();
        fl.expr(expr)?;
        fl.code.push(Insn::PushInt(-1));
        fl.code.push(Insn::Sched {
            sig,
            transport: false,
        });
        fl.code.push(Insn::Wait {
            sens: Arc::new(sens),
            with_timeout: false,
        });
        fl.code.push(Insn::Pop);
        fl.code.push(Insn::Jump(0));
        let (code, n_locals) = (fl.code, fl.next_slot);
        self.program
            .add_process(format!("{path}.guardproc"), n_locals, code);
        Ok(())
    }
}
