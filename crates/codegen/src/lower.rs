//! Lowering: typed IR (`e.*` / `s.*` VIF nodes) → kernel instructions.
//!
//! This is the code-generation half the paper still had to solve even
//! though it emitted C: up-level references via static links, waveform
//! scheduling, the wait-until loop, and aggregate expansion.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use sim_kernel::{FnDecl, FnId, Insn, Op, SigAttr, SigId, Val, VarAddr};
use vhdl_sem::types::{self, Dir};
use vhdl_vif::{Field, Kind, VifNode, VifValue};

/// Code-generation errors.
#[derive(Clone, Debug)]
pub enum CgError {
    /// A construct outside the supported lowering subset.
    Unsupported(String),
    /// A referenced object has no storage (analyzer/codegen mismatch).
    Unmapped(String),
    /// A value that must be static is not.
    NotStatic(String),
}

impl std::fmt::Display for CgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CgError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            CgError::Unmapped(m) => write!(f, "no storage for {m}"),
            CgError::NotStatic(m) => write!(f, "not static: {m}"),
        }
    }
}

impl std::error::Error for CgError {}

/// Where an object lives at run time.
#[derive(Clone, Debug)]
pub enum Storage {
    /// A kernel signal.
    Signal(SigId),
    /// A frame variable at a lexical level.
    Var {
        /// Owner's lexical level (0 = process).
        level: u16,
        /// Slot within the frame.
        slot: u16,
    },
    /// A compile-time constant (generic or folded constant).
    Const(Val),
}

/// Shared lowering context for one elaborated design.
pub struct LowerCtx {
    /// Object uid → storage.
    pub storage: HashMap<String, Storage>,
    /// Subprogram uid → node (bodied version preferred).
    pub subprogs: HashMap<String, Rc<VifNode>>,
    /// Subprogram uid → compiled function.
    pub compiled: HashMap<String, FnId>,
}

impl LowerCtx {
    /// Empty context.
    pub fn new() -> LowerCtx {
        LowerCtx {
            storage: HashMap::new(),
            subprogs: HashMap::new(),
            compiled: HashMap::new(),
        }
    }

    /// Registers a subprogram node, preferring ones with bodies.
    pub fn add_subprog(&mut self, node: &Rc<VifNode>) {
        let uid = node.str(Field::uid);
        let replace = match self.subprogs.get(uid) {
            Some(old) => old.field(Field::body).is_none() && node.field(Field::body).is_some(),
            None => true,
        };
        if replace {
            self.subprogs.insert(uid.to_string(), Rc::clone(node));
        }
    }
}

impl Default for LowerCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// The default initial value of a type (leftmost enum literal, left bound
/// of a range, elementwise for composites).
pub fn default_value(ty: &types::Ty) -> Val {
    let b = types::base_type(ty);
    match b.tag() {
        Kind::ty_enum | Kind::ty_int | Kind::ty_phys => {
            Val::Int(types::scalar_bounds(ty).map_or(0, |(lo, _, _)| lo))
        }
        Kind::ty_real => Val::Real(0.0),
        Kind::ty_array => match types::array_bounds(ty) {
            Some((l, r, dir)) => {
                let n = types::range_length(l, r, dir).max(0) as usize;
                let elem = default_value(b.node(Field::elem));
                Val::Arr(sim_kernel::ArrVal {
                    left: l,
                    dir: vdir(dir),
                    data: Arc::new(vec![elem; n]),
                })
            }
            None => Val::arr(0, sim_kernel::VDir::To, vec![]),
        },
        Kind::ty_record => {
            let fields = b
                .nodes(Field::elems)
                .map(|e| default_value(e.node(Field::ty)))
                .collect();
            Val::Rec(Arc::new(fields))
        }
        _ => Val::Int(0),
    }
}

fn vdir(d: Dir) -> sim_kernel::VDir {
    match d {
        Dir::To => sim_kernel::VDir::To,
        Dir::Downto => sim_kernel::VDir::Downto,
    }
}

/// Statically evaluates an expression IR to a [`Val`] using the constant
/// environment (for initial values, generics, aggregate choices).
pub fn static_value(ctx: &LowerCtx, ir: &Rc<VifNode>) -> Result<Val, CgError> {
    match ir.tag() {
        Kind::e_const => {
            if let Some(i) = ir.int_field(Field::ival) {
                return Ok(Val::Int(i));
            }
            if let Some(vhdl_vif::VifValue::Real(r)) = ir.field(Field::rval) {
                return Ok(Val::Real(*r));
            }
            let ty = vhdl_sem::ir::ty_of(ir);
            let (left, dir) = types::array_bounds(&ty)
                .map(|(l, _, d)| (l, vdir(d)))
                .unwrap_or((0, sim_kernel::VDir::To));
            let data: Vec<Val> = ir
                .list_field(Field::aval)
                .iter()
                .filter_map(|v| v.as_int().map(Val::Int))
                .collect();
            Ok(Val::Arr(sim_kernel::ArrVal {
                left,
                dir,
                data: Arc::new(data),
            }))
        }
        Kind::e_ref => {
            let obj = ir.node(Field::obj);
            match ctx.storage.get(obj.str(Field::uid)) {
                Some(Storage::Const(v)) => Ok(v.clone()),
                _ => match obj.node_field(Field::init) {
                    Some(init) if obj.str_field(Field::class) == Some("constant") => {
                        static_value(ctx, init)
                    }
                    _ => Err(CgError::NotStatic(format!(
                        "reference to `{}`",
                        obj.name().unwrap_or("?")
                    ))),
                },
            }
        }
        Kind::e_call => {
            let code = ir
                .str_field(Field::builtin)
                .ok_or_else(|| CgError::NotStatic("user call in static context".into()))?;
            let op =
                Op::decode(code).ok_or_else(|| CgError::Unsupported(format!("builtin {code}")))?;
            let args: Vec<Val> = ir
                .nodes(Field::args)
                .map(|a| static_value(ctx, a))
                .collect::<Result<_, _>>()?;
            let r = match op.arity() {
                1 => sim_kernel::rts::unop(op, &args[0]),
                _ => sim_kernel::rts::binop(op, &args[0], &args[1]),
            };
            r.map_err(|e| CgError::NotStatic(format!("static eval failed: {e}")))
        }
        Kind::e_conv => static_value(ctx, ir.node(Field::arg)),
        Kind::e_agg => expand_aggregate_static(ctx, ir, ir.node(Field::ty)),
        _ => Err(CgError::NotStatic(format!(
            "{} in static context",
            ir.kind()
        ))),
    }
}

/// Expands a static aggregate to a concrete value.
fn expand_aggregate_static(
    ctx: &LowerCtx,
    agg: &Rc<VifNode>,
    ty: &types::Ty,
) -> Result<Val, CgError> {
    if types::is_record(ty) {
        let fields = agg
            .nodes(Field::elems)
            .map(|e| static_value(ctx, e))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Val::Rec(Arc::new(fields)));
    }
    let (l, r, dir) = types::array_bounds(ty)
        .ok_or_else(|| CgError::NotStatic("aggregate for unconstrained array".into()))?;
    let n = types::range_length(l, r, dir).max(0) as usize;
    let mut data: Vec<Option<Val>> = vec![None; n];
    let off = |i: i64| -> Option<usize> {
        let o = match dir {
            Dir::To => i - l,
            Dir::Downto => l - i,
        };
        (o >= 0 && (o as usize) < n).then_some(o as usize)
    };
    for (i, e) in agg.list_field(Field::elems).iter().enumerate() {
        if let Some(node) = e.as_node() {
            if i < n {
                data[i] = Some(static_value(ctx, node)?);
            }
        }
    }
    for nn in agg.nodes(Field::named) {
        let v = static_value(ctx, nn.node(Field::value))?;
        for i in nn.int(Field::lo)..=nn.int(Field::hi) {
            if let Some(o) = off(i) {
                data[o] = Some(v.clone());
            }
        }
    }
    let others = agg
        .node_field(Field::others)
        .map(|o| static_value(ctx, o))
        .transpose()?;
    let data: Vec<Val> = data
        .into_iter()
        .map(|s| s.or_else(|| others.clone()).unwrap_or(Val::Int(0)))
        .collect();
    Ok(Val::Arr(sim_kernel::ArrVal {
        left: l,
        dir: vdir(dir),
        data: Arc::new(data),
    }))
}

/// Lowers one process or subprogram body.
pub struct FnLower<'c> {
    /// Shared design context.
    pub ctx: &'c mut LowerCtx,
    /// Program being built (functions appended on demand).
    pub program: &'c mut sim_kernel::Program,
    /// Lexical level of the code being lowered (0 = process).
    pub level: u16,
    /// Local slot assignment for this frame.
    pub slots: HashMap<String, u16>,
    /// Next free slot.
    pub next_slot: u16,
    /// Emitted code.
    pub code: Vec<Insn>,
    /// Patch lists for `exit`/`next` of enclosing loops.
    loops: Vec<LoopPatches>,
}

struct LoopPatches {
    exits: Vec<usize>,
    nexts: Vec<usize>,
}

impl<'c> FnLower<'c> {
    /// Creates a lowering for a frame at `level`.
    pub fn new(
        ctx: &'c mut LowerCtx,
        program: &'c mut sim_kernel::Program,
        level: u16,
    ) -> FnLower<'c> {
        FnLower {
            ctx,
            program,
            level,
            slots: HashMap::new(),
            next_slot: 0,
            code: Vec::new(),
            loops: Vec::new(),
        }
    }

    /// Allocates a slot for an object uid at this level.
    pub fn alloc(&mut self, uid: &str) -> u16 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.slots.insert(uid.to_string(), slot);
        self.ctx.storage.insert(
            uid.to_string(),
            Storage::Var {
                level: self.level,
                slot,
            },
        );
        slot
    }

    fn emit(&mut self, i: Insn) {
        self.code.push(i);
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Resolves storage for an object, looking constants up by folding
    /// initializers on demand.
    fn storage_of(&mut self, obj: &Rc<VifNode>) -> Result<Storage, CgError> {
        let uid = obj.str(Field::uid).to_string();
        if let Some(s) = self.ctx.storage.get(&uid) {
            return Ok(s.clone());
        }
        if obj.str_field(Field::class) == Some("constant") {
            if let Some(init) = obj.node_field(Field::init) {
                let v = static_value(self.ctx, init)?;
                self.ctx.storage.insert(uid, Storage::Const(v.clone()));
                return Ok(Storage::Const(v));
            }
        }
        Err(CgError::Unmapped(format!(
            "{} `{}` ({uid})",
            obj.str(Field::class),
            obj.name().unwrap_or("?")
        )))
    }

    /// Lowers an expression: emits code leaving its value on the stack.
    pub fn expr(&mut self, ir: &Rc<VifNode>) -> Result<(), CgError> {
        match ir.tag() {
            Kind::e_const => {
                let v = static_value(self.ctx, ir)?;
                match v {
                    Val::Int(i) => self.emit(Insn::PushInt(i)),
                    Val::Real(r) => self.emit(Insn::PushReal(r)),
                    other => self.emit(Insn::PushConst(other)),
                }
            }
            Kind::e_ref => match self.storage_of(ir.node(Field::obj))? {
                Storage::Signal(s) => self.emit(Insn::LoadSig(s)),
                Storage::Var { level, slot } => {
                    let depth = (self.level - level) as u8;
                    self.emit(Insn::LoadVar(VarAddr { depth, slot }));
                }
                Storage::Const(v) => match v {
                    Val::Int(i) => self.emit(Insn::PushInt(i)),
                    Val::Real(r) => self.emit(Insn::PushReal(r)),
                    other => self.emit(Insn::PushConst(other)),
                },
            },
            Kind::e_index => {
                self.expr(ir.node(Field::base))?;
                self.expr(ir.node(Field::idx))?;
                self.emit(Insn::Index);
            }
            Kind::e_slice => {
                self.expr(ir.node(Field::base))?;
                self.expr(ir.node(Field::lo))?;
                self.expr(ir.node(Field::hi))?;
                self.emit(Insn::Slice(vdir(Dir::decode(ir.int(Field::dir)))));
            }
            Kind::e_field => {
                self.expr(ir.node(Field::base))?;
                self.emit(Insn::Field(ir.int(Field::pos) as u16));
            }
            Kind::e_call => {
                for n in ir.nodes(Field::args) {
                    self.expr(n)?;
                }
                match ir.str_field(Field::builtin) {
                    Some(code) => {
                        let op = Op::decode(code)
                            .ok_or_else(|| CgError::Unsupported(format!("builtin {code}")))?;
                        if op.arity() == 1 {
                            self.emit(Insn::Unop(op));
                        } else {
                            self.emit(Insn::Binop(op));
                        }
                    }
                    None => {
                        let f = self.compile_subprog(ir.str(Field::sub_uid))?;
                        self.emit(Insn::Call(f));
                    }
                }
            }
            Kind::e_conv => {
                let arg = ir.node(Field::arg);
                self.expr(arg)?;
                let from = types::base_type(arg.node(Field::ty));
                let to = types::base_type(ir.node(Field::ty));
                match (from.tag(), to.tag()) {
                    (Kind::ty_int, Kind::ty_real) => self.emit(Insn::Unop(Op::ToReal)),
                    (Kind::ty_real, Kind::ty_int) => self.emit(Insn::Unop(Op::ToInt)),
                    _ => {}
                }
            }
            Kind::e_attr => {
                let attr = ir.str(Field::attr);
                let base = ir
                    .node_field(Field::base)
                    .ok_or_else(|| CgError::Unsupported(format!("attribute `{attr}`")))?;
                match attr {
                    "event" | "active" | "last_value" => {
                        let sig = self.signal_of(base)?;
                        let kind = match attr {
                            "event" => SigAttr::Event,
                            "active" => SigAttr::Active,
                            _ => SigAttr::LastValue,
                        };
                        self.emit(Insn::LoadSigAttr(sig, kind));
                    }
                    "length" | "left" | "right" | "low" | "high" => {
                        // Dynamic array bounds: evaluate the prefix value.
                        self.expr(base)?;
                        let kind = match attr {
                            "length" => sim_kernel::ArrAttrKind::Length,
                            "left" => sim_kernel::ArrAttrKind::Left,
                            "right" => sim_kernel::ArrAttrKind::Right,
                            "low" => sim_kernel::ArrAttrKind::Low,
                            _ => sim_kernel::ArrAttrKind::High,
                        };
                        self.emit(Insn::ArrAttr(kind));
                    }
                    other => return Err(CgError::Unsupported(format!("attribute `{other}`"))),
                }
            }
            Kind::e_agg => {
                // Static aggregates become constants; dynamic ones expand
                // element by element.
                if let Ok(v) = static_value(self.ctx, ir) {
                    self.emit(Insn::PushConst(v));
                } else {
                    self.dynamic_aggregate(ir)?;
                }
            }
            Kind::e_error => {
                return Err(CgError::Unsupported(
                    "analysis error survived to codegen".into(),
                ))
            }
            _ => return Err(CgError::Unsupported(format!("expression {}", ir.kind()))),
        }
        Ok(())
    }

    fn dynamic_aggregate(&mut self, ir: &Rc<VifNode>) -> Result<(), CgError> {
        let ty = ir.node(Field::ty);
        if types::is_record(ty) {
            let elems = ir.list_field(Field::elems);
            for e in elems {
                if let Some(n) = e.as_node() {
                    self.expr(n)?;
                }
            }
            self.emit(Insn::MakeRec {
                n: elems.len() as u16,
            });
            return Ok(());
        }
        let (l, r, dir) = types::array_bounds(ty)
            .ok_or_else(|| CgError::Unsupported("unconstrained aggregate".into()))?;
        let n = types::range_length(l, r, dir).max(0) as usize;
        if n > 4096 {
            return Err(CgError::Unsupported("aggregate larger than 4096".into()));
        }
        // Build per-position expressions: positional first, then named,
        // then others.
        let mut at: Vec<Option<Rc<VifNode>>> = vec![None; n];
        for (i, e) in ir.list_field(Field::elems).iter().enumerate() {
            if let (Some(node), true) = (e.as_node(), i < n) {
                at[i] = Some(Rc::clone(node));
            }
        }
        let off = |i: i64| -> Option<usize> {
            let o = match dir {
                Dir::To => i - l,
                Dir::Downto => l - i,
            };
            (o >= 0 && (o as usize) < n).then_some(o as usize)
        };
        for nn in ir.nodes(Field::named) {
            let v = nn.node(Field::value);
            for i in nn.int(Field::lo)..=nn.int(Field::hi) {
                if let Some(o) = off(i) {
                    at[o] = Some(Rc::clone(v));
                }
            }
        }
        let others = ir.node_field(Field::others).cloned();
        for slot in at {
            match slot.or_else(|| others.clone()) {
                Some(e) => self.expr(&e)?,
                None => return Err(CgError::Unsupported("incomplete aggregate".into())),
            }
        }
        self.emit(Insn::MakeArr {
            n: n as u16,
            left: l,
            dir: vdir(dir),
        });
        Ok(())
    }

    /// Resolves the signal a target/prefix IR refers to (whole-signal).
    fn signal_of(&mut self, ir: &Rc<VifNode>) -> Result<SigId, CgError> {
        match ir.tag() {
            Kind::e_ref => match self.storage_of(ir.node(Field::obj))? {
                Storage::Signal(s) => Ok(s),
                _ => Err(CgError::Unsupported("prefix is not a signal".into())),
            },
            _ => Err(CgError::Unsupported(
                "composite signal prefix in this position".into(),
            )),
        }
    }

    /// Compiles a subprogram on demand, returning its function id.
    pub fn compile_subprog(&mut self, uid: &str) -> Result<FnId, CgError> {
        if let Some(f) = self.ctx.compiled.get(uid) {
            return Ok(*f);
        }
        let node = self
            .ctx
            .subprogs
            .get(uid)
            .cloned()
            .ok_or_else(|| CgError::Unmapped(format!("subprogram {uid}")))?;
        // A body comes with its lexical level.
        let Some(level) = node.int_field(Field::level) else {
            return Err(CgError::Unmapped(format!(
                "no body for subprogram `{}`",
                node.name().unwrap_or("?")
            )));
        };
        let level = level as u16;
        // Reserve the id first so recursion terminates.
        let placeholder = self.program.add_function(FnDecl {
            name: node.name().unwrap_or("?").to_string(),
            n_params: 0,
            n_locals: 0,
            code: Arc::new(Vec::new()),
            level,
        });
        self.ctx.compiled.insert(uid.to_string(), placeholder);

        let mut sub = FnLower::new(self.ctx, self.program, level);
        // Parameters occupy the first slots.
        let params = vhdl_sem::decl::subprog_params(&node);
        for p in &params {
            sub.alloc(p.str(Field::uid));
        }
        // Locals with initializers.
        for ln in node.nodes(Field::locals) {
            match ln.tag() {
                Kind::obj => {
                    let slot = sub.alloc(ln.str(Field::uid));
                    sub.lower_var_init(ln, slot)?;
                }
                Kind::subprog => sub.ctx.add_subprog(ln),
                _ => {}
            }
        }
        for sn in node.nodes(Field::body) {
            sub.stmt(sn)?;
        }
        let (code, n_locals) = (sub.code, sub.next_slot);
        let decl = &mut self.program.functions[placeholder.0 as usize];
        decl.code = Arc::new(code);
        decl.n_params = params.len() as u16;
        decl.n_locals = n_locals;
        Ok(placeholder)
    }

    /// Emits initialization for a variable slot.
    pub fn lower_var_init(&mut self, obj: &Rc<VifNode>, slot: u16) -> Result<(), CgError> {
        match obj.node_field(Field::init) {
            Some(init) => self.expr(&Rc::clone(init))?,
            None => self.emit(Insn::PushConst(default_value(obj.node(Field::ty)))),
        }
        self.emit(Insn::StoreVar(VarAddr { depth: 0, slot }));
        Ok(())
    }

    /// The object of an `e.index`/`e.field` assignment target whose base
    /// names it directly.
    fn shallow_target(target: &VifNode) -> Result<&Rc<VifNode>, CgError> {
        let base = target.node(Field::base);
        match base.tag() {
            Kind::e_ref => Ok(base.node(Field::obj)),
            _ => Err(CgError::Unsupported("deep target".into())),
        }
    }

    /// Lowers a statement.
    pub fn stmt(&mut self, s: &Rc<VifNode>) -> Result<(), CgError> {
        match s.tag() {
            Kind::s_assign_var => {
                let target = s.node(Field::target);
                let value = s.node(Field::value);
                match target.tag() {
                    Kind::e_ref => {
                        let obj = target.node(Field::obj);
                        self.expr(value)?;
                        self.range_check(obj.node(Field::ty));
                        match self.storage_of(obj)? {
                            Storage::Var { level, slot } => {
                                let depth = (self.level - level) as u8;
                                self.emit(Insn::StoreVar(VarAddr { depth, slot }));
                            }
                            _ => return Err(CgError::Unsupported("assign to non-variable".into())),
                        }
                    }
                    Kind::e_index => {
                        let obj = Self::shallow_target(target)?;
                        self.expr(target.node(Field::idx))?;
                        self.expr(value)?;
                        match self.storage_of(obj)? {
                            Storage::Var { level, slot } => {
                                let depth = (self.level - level) as u8;
                                self.emit(Insn::StoreVarIndex(VarAddr { depth, slot }));
                            }
                            _ => return Err(CgError::Unsupported("assign to non-variable".into())),
                        }
                    }
                    Kind::e_field => {
                        let obj = Self::shallow_target(target)?;
                        self.expr(value)?;
                        let field = target.int(Field::pos) as u16;
                        match self.storage_of(obj)? {
                            Storage::Var { level, slot } => {
                                let depth = (self.level - level) as u8;
                                self.emit(Insn::StoreVarField(VarAddr { depth, slot }, field));
                            }
                            _ => return Err(CgError::Unsupported("assign to non-variable".into())),
                        }
                    }
                    _ => {
                        let k = target.kind();
                        return Err(CgError::Unsupported(format!("variable target {k}")));
                    }
                }
            }
            Kind::s_assign_sig => {
                let target = s.node(Field::target);
                let transport = s.field(Field::transport) == Some(&VifValue::Bool(true));
                for (wi, w) in s.list_field(Field::waveform).iter().enumerate() {
                    let Some(wn) = w.as_node() else { continue };
                    // Only the first waveform element preempts; the rest
                    // extend the projected output waveform (LRM §8.3).
                    let transport = transport || wi > 0;
                    let value = wn.node(Field::value);
                    let delay = wn.node_field(Field::delay);
                    match target.tag() {
                        Kind::e_ref => {
                            let sig = self.signal_of(target)?;
                            self.expr(value)?;
                            self.push_delay(delay)?;
                            self.emit(Insn::Sched { sig, transport });
                        }
                        Kind::e_index => {
                            let sig = self.signal_of(target.node(Field::base))?;
                            self.expr(target.node(Field::idx))?;
                            self.expr(value)?;
                            self.push_delay(delay)?;
                            self.emit(Insn::SchedIndex { sig, transport });
                        }
                        _ => {
                            let k = target.kind();
                            return Err(CgError::Unsupported(format!("signal target {k}")));
                        }
                    }
                }
            }
            Kind::s_if => {
                self.expr(s.node(Field::cond))?;
                let jf_at = self.code.len();
                self.emit(Insn::JumpIfFalse(0));
                for n in s.nodes(Field::then) {
                    self.stmt(n)?;
                }
                let j_end = self.code.len();
                self.emit(Insn::Jump(0));
                let else_at = self.here();
                patch(&mut self.code, jf_at, else_at);
                for n in s.nodes(Field::else_) {
                    self.stmt(n)?;
                }
                let end = self.here();
                patch(&mut self.code, j_end, end);
            }
            Kind::s_case => self.lower_case(s)?,
            Kind::s_loop => self.lower_loop(s)?,
            Kind::s_next | Kind::s_exit => {
                let is_exit = s.tag() == Kind::s_exit;
                let skip_at = match s.node_field(Field::cond) {
                    Some(c) => {
                        self.expr(c)?;
                        let at = self.code.len();
                        self.emit(Insn::JumpIfFalse(0));
                        Some(at)
                    }
                    None => None,
                };
                let lp = self
                    .loops
                    .last_mut()
                    .ok_or_else(|| CgError::Unsupported("next/exit outside a loop".into()))?;
                let at = self.code.len();
                if is_exit {
                    lp.exits.push(at);
                } else {
                    lp.nexts.push(at);
                }
                self.emit(Insn::Jump(0));
                if let Some(at) = skip_at {
                    let here = self.here();
                    patch(&mut self.code, at, here);
                }
            }
            Kind::s_wait => self.lower_wait(s)?,
            Kind::s_assert => {
                self.expr(s.node(Field::cond))?;
                match s.node_field(Field::report) {
                    Some(r) => self.expr(r)?,
                    None => {
                        let msg: Vec<Val> = "Assertion violation."
                            .chars()
                            .map(|c| Val::Int(c as i64 - 32))
                            .collect();
                        self.emit(Insn::PushConst(Val::arr(1, sim_kernel::VDir::To, msg)));
                    }
                }
                match s.node_field(Field::severity) {
                    Some(sv) => self.expr(sv)?,
                    None => self.emit(Insn::PushInt(2)),
                }
                self.emit(Insn::Assert);
            }
            // Procedures leave nothing on the stack.
            Kind::s_call => self.expr(s.node(Field::call))?,
            Kind::s_return => {
                let has_value = match s.node_field(Field::value) {
                    Some(v) => {
                        self.expr(v)?;
                        true
                    }
                    None => false,
                };
                self.emit(Insn::Ret { has_value });
            }
            Kind::s_null => {}
            _ => return Err(CgError::Unsupported(format!("statement {}", s.kind()))),
        }
        Ok(())
    }

    fn push_delay(&mut self, delay: Option<&Rc<VifNode>>) -> Result<(), CgError> {
        match delay {
            Some(d) => self.expr(d)?,
            None => self.emit(Insn::PushInt(-1)),
        }
        Ok(())
    }

    fn range_check(&mut self, ty: &types::Ty) {
        if types::is_discrete(ty) || types::base_type(ty).tag() == Kind::ty_phys {
            if let Some((lo, hi, dir)) = types::scalar_bounds(ty) {
                let (lo, hi) = match dir {
                    Dir::To => (lo, hi),
                    Dir::Downto => (hi, lo),
                };
                // Skip the degenerate full ranges of the base types.
                if lo > i32::MIN as i64 || hi < i32::MAX as i64 {
                    self.emit(Insn::RangeCheck { lo, hi });
                }
            }
        }
    }

    fn lower_case(&mut self, s: &Rc<VifNode>) -> Result<(), CgError> {
        // Evaluate the selector into a scratch slot.
        let scratch = self.next_slot;
        self.next_slot += 1;
        self.expr(s.node(Field::sel))?;
        self.emit(Insn::StoreVar(VarAddr {
            depth: 0,
            slot: scratch,
        }));
        let mut end_jumps = Vec::new();
        for an in s.nodes(Field::alts) {
            // Match tests: one per choice, OR-ed by jumping into the body.
            let mut into_body = Vec::new();
            let mut next_choice: Option<usize> = None;
            let choices = an.list_field(Field::choices);
            let is_others = choices
                .iter()
                .any(|c| c.as_node().is_some_and(|n| n.tag() == Kind::ch_others));
            if !is_others {
                for (ci, c) in choices.iter().enumerate() {
                    let Some(cn) = c.as_node() else { continue };
                    if let Some(at) = next_choice.take() {
                        let here = self.here();
                        patch(&mut self.code, at, here);
                    }
                    match cn.tag() {
                        Kind::ch_val => {
                            self.emit(Insn::LoadVar(VarAddr {
                                depth: 0,
                                slot: scratch,
                            }));
                            self.emit(Insn::PushInt(cn.int(Field::val)));
                            self.emit(Insn::Binop(Op::Eq));
                        }
                        Kind::ch_range => {
                            let (lo, hi) = (cn.int(Field::lo), cn.int(Field::hi));
                            self.emit(Insn::LoadVar(VarAddr {
                                depth: 0,
                                slot: scratch,
                            }));
                            self.emit(Insn::PushInt(lo));
                            self.emit(Insn::Binop(Op::Ge));
                            self.emit(Insn::LoadVar(VarAddr {
                                depth: 0,
                                slot: scratch,
                            }));
                            self.emit(Insn::PushInt(hi));
                            self.emit(Insn::Binop(Op::Le));
                            self.emit(Insn::Binop(Op::And));
                        }
                        _ => return Err(CgError::Unsupported(format!("choice {}", cn.kind()))),
                    }
                    if ci + 1 < choices.len() {
                        // On false, try the next choice; on true, fall into
                        // a jump to the body.
                        let at = self.code.len();
                        self.emit(Insn::JumpIfFalse(0));
                        next_choice = Some(at);
                        let at = self.code.len();
                        into_body.push(at);
                        self.emit(Insn::Jump(0));
                    } else {
                        // Last choice: on false, skip the body.
                        let at = self.code.len();
                        self.emit(Insn::JumpIfFalse(0));
                        next_choice = Some(at);
                    }
                }
                for at in into_body {
                    let here = self.here();
                    patch(&mut self.code, at, here);
                }
            }
            for n in an.nodes(Field::body) {
                self.stmt(n)?;
            }
            let at = self.code.len();
            end_jumps.push(at);
            self.emit(Insn::Jump(0));
            if let Some(at) = next_choice {
                let here = self.here();
                patch(&mut self.code, at, here);
            }
        }
        let end = self.here();
        for at in end_jumps {
            patch(&mut self.code, at, end);
        }
        Ok(())
    }

    fn lower_loop(&mut self, s: &Rc<VifNode>) -> Result<(), CgError> {
        let kind = s.str(Field::kind);
        // A `while` or `for` loop without its condition or variable is
        // well-formed VIF but no loop the analyzer makes.
        let missing = |what: &str| CgError::Unsupported(format!("`{kind}` loop without {what}"));
        match kind {
            "forever" | "while" => {
                let start = self.here();
                self.loops.push(LoopPatches {
                    exits: Vec::new(),
                    nexts: Vec::new(),
                });
                let cond_jump = if kind == "while" {
                    self.expr(
                        s.node_field(Field::cond)
                            .ok_or_else(|| missing("a condition"))?,
                    )?;
                    let at = self.code.len();
                    self.emit(Insn::JumpIfFalse(0));
                    Some(at)
                } else {
                    None
                };
                for n in s.nodes(Field::body) {
                    self.stmt(n)?;
                }
                self.emit(Insn::Jump(start));
                let end = self.here();
                if let Some(at) = cond_jump {
                    patch(&mut self.code, at, end);
                }
                let lp = self.loops.pop().expect("pushed above");
                for at in lp.exits {
                    patch(&mut self.code, at, end);
                }
                for at in lp.nexts {
                    patch(&mut self.code, at, start);
                }
            }
            "for" => {
                let var = s
                    .node_field(Field::var)
                    .ok_or_else(|| missing("a variable"))?;
                let range = s
                    .node_field(Field::cond)
                    .ok_or_else(|| missing("a range"))?;
                if range.tag() != Kind::e_range {
                    return Err(missing("a range"));
                }
                let dir = Dir::decode(range.int(Field::dir));
                let slot = self.alloc(var.str(Field::uid));
                let bound = self.next_slot;
                self.next_slot += 1;
                // var := left; bound := right.
                self.expr(range.node(Field::left))?;
                self.emit(Insn::StoreVar(VarAddr { depth: 0, slot }));
                self.expr(range.node(Field::right))?;
                self.emit(Insn::StoreVar(VarAddr {
                    depth: 0,
                    slot: bound,
                }));
                // loop: if var beyond bound → end
                let start = self.here();
                self.loops.push(LoopPatches {
                    exits: Vec::new(),
                    nexts: Vec::new(),
                });
                self.emit(Insn::LoadVar(VarAddr { depth: 0, slot }));
                self.emit(Insn::LoadVar(VarAddr {
                    depth: 0,
                    slot: bound,
                }));
                self.emit(Insn::Binop(match dir {
                    Dir::To => Op::Le,
                    Dir::Downto => Op::Ge,
                }));
                let at_end = self.code.len();
                self.emit(Insn::JumpIfFalse(0));
                for n in s.nodes(Field::body) {
                    self.stmt(n)?;
                }
                // Increment. (`next` jumps here via LoopPatches.start set
                // to the check — approximation: next re-checks without
                // increment would loop forever, so point start at the
                // increment instead.)
                let incr = self.here();
                self.emit(Insn::LoadVar(VarAddr { depth: 0, slot }));
                self.emit(Insn::PushInt(1));
                self.emit(Insn::Binop(match dir {
                    Dir::To => Op::Add,
                    Dir::Downto => Op::Sub,
                }));
                self.emit(Insn::StoreVar(VarAddr { depth: 0, slot }));
                self.emit(Insn::Jump(start));
                let end = self.here();
                patch(&mut self.code, at_end, end);
                let lp = self.loops.pop().expect("pushed above");
                for at in lp.exits {
                    patch(&mut self.code, at, end);
                }
                // `next` in a for-loop proceeds to the increment.
                for at in lp.nexts {
                    patch(&mut self.code, at, incr);
                }
            }
            k => return Err(CgError::Unsupported(format!("loop kind {k}"))),
        }
        Ok(())
    }

    fn lower_wait(&mut self, s: &Rc<VifNode>) -> Result<(), CgError> {
        let mut sens: Vec<SigId> = Vec::new();
        for n in s.nodes(Field::sens) {
            sens.push(self.signal_of_deep(n)?);
        }
        let cond = s.node_field(Field::cond).cloned();
        // `wait until c` without an explicit sensitivity waits on the
        // signals of c.
        if sens.is_empty() {
            if let Some(c) = &cond {
                collect_signals(self, c, &mut sens)?;
            }
        }
        sens.sort();
        sens.dedup();
        let sens = Arc::new(sens);
        let timeout = s.node_field(Field::timeout).cloned();
        let start = self.here();
        if let Some(t) = &timeout {
            self.expr(t)?;
        }
        self.emit(Insn::Wait {
            sens: Arc::clone(&sens),
            with_timeout: timeout.is_some(),
        });
        match cond {
            None => self.emit(Insn::Pop),
            Some(c) => {
                // timed_out on stack: if timed out, proceed; otherwise
                // re-check the condition and re-suspend when false.
                self.emit(Insn::Unop(Op::Not));
                let to_end = self.code.len();
                self.emit(Insn::JumpIfFalse(0));
                self.expr(&c)?;
                self.emit(Insn::JumpIfFalse(start));
                let end = self.here();
                patch(&mut self.code, to_end, end);
            }
        }
        Ok(())
    }

    /// Signal of a sensitivity entry (whole signal even for indexed
    /// prefixes).
    fn signal_of_deep(&mut self, ir: &Rc<VifNode>) -> Result<SigId, CgError> {
        match ir.tag() {
            Kind::e_ref => self.signal_of(ir),
            Kind::e_index | Kind::e_slice | Kind::e_field => {
                self.signal_of_deep(ir.node(Field::base))
            }
            _ => Err(CgError::Unsupported(format!("sensitivity {}", ir.kind()))),
        }
    }
}

fn patch(code: &mut [Insn], at: usize, target: u32) {
    match &mut code[at] {
        Insn::Jump(t) | Insn::JumpIfFalse(t) => *t = target,
        _ => unreachable!("patching a non-jump"),
    }
}

/// Collects signals read by an expression (for implicit wait
/// sensitivities).
pub fn collect_signals(
    fl: &mut FnLower<'_>,
    ir: &Rc<VifNode>,
    out: &mut Vec<SigId>,
) -> Result<(), CgError> {
    if ir.tag() == Kind::e_ref {
        let obj = ir.node(Field::obj);
        if obj.str(Field::class) == "signal" {
            if let Ok(Storage::Signal(s)) = fl.storage_of(obj) {
                out.push(s);
            }
        }
        return Ok(());
    }
    for (_, v) in ir.fields() {
        collect_signals_value(fl, v, out)?;
    }
    Ok(())
}

fn collect_signals_value(
    fl: &mut FnLower<'_>,
    v: &VifValue,
    out: &mut Vec<SigId>,
) -> Result<(), CgError> {
    match v {
        VifValue::Node(n) if vhdl_vif::kinds::is_expr(n.kind_sym()) => collect_signals(fl, n, out),
        VifValue::List(l) => {
            for v in l.iter() {
                collect_signals_value(fl, v, out)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}
