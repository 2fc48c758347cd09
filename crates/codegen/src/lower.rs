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
use vhdl_vif::VifNode;

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
        let Some(uid) = node.str_field("uid") else {
            return;
        };
        let replace = match self.subprogs.get(uid) {
            Some(old) => old.field("body").is_none() && node.field("body").is_some(),
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
    match b.kind() {
        "ty.enum" => Val::Int(types::scalar_bounds(ty).map_or(0, |(lo, _, _)| lo)),
        "ty.int" | "ty.phys" => Val::Int(types::scalar_bounds(ty).map_or(0, |(l, _, _)| l)),
        "ty.real" => Val::Real(0.0),
        "ty.array" => match types::array_bounds(ty) {
            Some((l, r, dir)) => {
                let n = types::range_length(l, r, dir).max(0) as usize;
                let elem = types::elem_type(ty)
                    .map(|e| default_value(&e))
                    .unwrap_or(Val::Int(0));
                Val::Arr(sim_kernel::ArrVal {
                    left: l,
                    dir: vdir(dir),
                    data: Arc::new(vec![elem; n]),
                })
            }
            None => Val::arr(0, sim_kernel::VDir::To, vec![]),
        },
        "ty.record" => {
            let fields = b
                .list_field("elems")
                .iter()
                .filter_map(|v| v.as_node())
                .map(|e| e.node_field("ty").map(default_value).unwrap_or(Val::Int(0)))
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
    match ir.kind() {
        "e.const" => {
            if let Some(i) = ir.int_field("ival") {
                return Ok(Val::Int(i));
            }
            if let Some(vhdl_vif::VifValue::Real(r)) = ir.field("rval") {
                return Ok(Val::Real(*r));
            }
            let ty = vhdl_sem::ir::ty_of(ir);
            let (left, dir) = types::array_bounds(&ty)
                .map(|(l, _, d)| (l, vdir(d)))
                .unwrap_or((0, sim_kernel::VDir::To));
            let data: Vec<Val> = ir
                .list_field("aval")
                .iter()
                .filter_map(|v| v.as_int().map(Val::Int))
                .collect();
            Ok(Val::Arr(sim_kernel::ArrVal {
                left,
                dir,
                data: Arc::new(data),
            }))
        }
        "e.ref" => {
            let obj = ir.node_field("obj").expect("ref has obj");
            let uid = obj.str_field("uid").unwrap_or("?");
            match ctx.storage.get(uid) {
                Some(Storage::Const(v)) => Ok(v.clone()),
                _ => match obj.node_field("init") {
                    Some(init) if obj.str_field("class") == Some("constant") => {
                        static_value(ctx, init)
                    }
                    _ => Err(CgError::NotStatic(format!(
                        "reference to `{}`",
                        obj.name().unwrap_or("?")
                    ))),
                },
            }
        }
        "e.call" => {
            let code = ir
                .str_field("builtin")
                .ok_or_else(|| CgError::NotStatic("user call in static context".into()))?;
            let op =
                Op::decode(code).ok_or_else(|| CgError::Unsupported(format!("builtin {code}")))?;
            let args: Vec<Val> = ir
                .list_field("args")
                .iter()
                .filter_map(|v| v.as_node())
                .map(|a| static_value(ctx, a))
                .collect::<Result<_, _>>()?;
            let r = match op.arity() {
                1 => sim_kernel::rts::unop(op, &args[0]),
                _ => sim_kernel::rts::binop(op, &args[0], &args[1]),
            };
            r.map_err(|e| CgError::NotStatic(format!("static eval failed: {e}")))
        }
        "e.conv" => static_value(ctx, ir.node_field("arg").expect("conv arg")),
        "e.agg" => {
            let ty = vhdl_sem::ir::ty_of(ir);
            expand_aggregate_static(ctx, ir, &ty)
        }
        k => Err(CgError::NotStatic(format!("{k} in static context"))),
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
            .list_field("elems")
            .iter()
            .filter_map(|v| v.as_node())
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
    for (i, e) in agg.list_field("elems").iter().enumerate() {
        if let Some(node) = e.as_node() {
            if i < n {
                data[i] = Some(static_value(ctx, node)?);
            }
        }
    }
    for nv in agg.list_field("named") {
        let Some(nn) = nv.as_node() else { continue };
        let (lo, hi) = (
            nn.int_field("lo").unwrap_or(0),
            nn.int_field("hi").unwrap_or(0),
        );
        let v = static_value(ctx, nn.node_field("value").expect("named value"))?;
        for i in lo..=hi {
            if let Some(o) = off(i) {
                data[o] = Some(v.clone());
            }
        }
    }
    let others = agg
        .node_field("others")
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
        let uid = obj.str_field("uid").unwrap_or("?").to_string();
        if let Some(s) = self.ctx.storage.get(&uid) {
            return Ok(s.clone());
        }
        if obj.str_field("class") == Some("constant") {
            if let Some(init) = obj.node_field("init") {
                let v = static_value(self.ctx, init)?;
                self.ctx.storage.insert(uid, Storage::Const(v.clone()));
                return Ok(Storage::Const(v));
            }
        }
        Err(CgError::Unmapped(format!(
            "{} `{}` ({uid})",
            obj.str_field("class").unwrap_or("object"),
            obj.name().unwrap_or("?")
        )))
    }

    /// Lowers an expression: emits code leaving its value on the stack.
    pub fn expr(&mut self, ir: &Rc<VifNode>) -> Result<(), CgError> {
        match ir.kind() {
            "e.const" => {
                let v = static_value(self.ctx, ir)?;
                match v {
                    Val::Int(i) => self.emit(Insn::PushInt(i)),
                    Val::Real(r) => self.emit(Insn::PushReal(r)),
                    other => self.emit(Insn::PushConst(other)),
                }
            }
            "e.ref" => {
                let obj = Rc::clone(ir.node_field("obj").expect("ref has obj"));
                match self.storage_of(&obj)? {
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
                }
            }
            "e.index" => {
                self.expr(ir.node_field("base").expect("index base"))?;
                self.expr(ir.node_field("idx").expect("index idx"))?;
                self.emit(Insn::Index);
            }
            "e.slice" => {
                self.expr(ir.node_field("base").expect("slice base"))?;
                self.expr(ir.node_field("lo").expect("slice lo"))?;
                self.expr(ir.node_field("hi").expect("slice hi"))?;
                let dir = Dir::decode(ir.int_field("dir").unwrap_or(0));
                self.emit(Insn::Slice(vdir(dir)));
            }
            "e.field" => {
                self.expr(ir.node_field("base").expect("field base"))?;
                self.emit(Insn::Field(ir.int_field("pos").unwrap_or(0) as u16));
            }
            "e.call" => {
                for a in ir.list_field("args") {
                    if let Some(n) = a.as_node() {
                        self.expr(n)?;
                    }
                }
                match ir.str_field("builtin") {
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
                        let uid = ir.str_field("sub_uid").unwrap_or("?").to_string();
                        let f = self.compile_subprog(&uid)?;
                        self.emit(Insn::Call(f));
                    }
                }
            }
            "e.conv" => {
                let arg = ir.node_field("arg").expect("conv arg");
                self.expr(arg)?;
                let from = types::base_type(&vhdl_sem::ir::ty_of(arg));
                let to = types::base_type(&vhdl_sem::ir::ty_of(ir));
                match (from.kind(), to.kind()) {
                    ("ty.int", "ty.real") => self.emit(Insn::Unop(Op::ToReal)),
                    ("ty.real", "ty.int") => self.emit(Insn::Unop(Op::ToInt)),
                    _ => {}
                }
            }
            "e.attr" => {
                let attr = ir.str_field("attr").unwrap_or("?");
                let base = ir
                    .node_field("base")
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
            "e.agg" => {
                // Static aggregates become constants; dynamic ones expand
                // element by element.
                if let Ok(v) = static_value(self.ctx, ir) {
                    self.emit(Insn::PushConst(v));
                } else {
                    self.dynamic_aggregate(ir)?;
                }
            }
            "e.error" => {
                return Err(CgError::Unsupported(
                    "analysis error survived to codegen".into(),
                ))
            }
            k => return Err(CgError::Unsupported(format!("expression {k}"))),
        }
        Ok(())
    }

    fn dynamic_aggregate(&mut self, ir: &Rc<VifNode>) -> Result<(), CgError> {
        let ty = vhdl_sem::ir::ty_of(ir);
        if types::is_record(&ty) {
            let elems = ir.list_field("elems");
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
        let (l, r, dir) = types::array_bounds(&ty)
            .ok_or_else(|| CgError::Unsupported("unconstrained aggregate".into()))?;
        let n = types::range_length(l, r, dir).max(0) as usize;
        if n > 4096 {
            return Err(CgError::Unsupported("aggregate larger than 4096".into()));
        }
        // Build per-position expressions: positional first, then named,
        // then others.
        let mut at: Vec<Option<Rc<VifNode>>> = vec![None; n];
        for (i, e) in ir.list_field("elems").iter().enumerate() {
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
        for nv in ir.list_field("named") {
            let Some(nn) = nv.as_node() else { continue };
            let v = Rc::clone(nn.node_field("value").expect("named value"));
            for i in nn.int_field("lo").unwrap_or(0)..=nn.int_field("hi").unwrap_or(0) {
                if let Some(o) = off(i) {
                    at[o] = Some(Rc::clone(&v));
                }
            }
        }
        let others = ir.node_field("others").cloned();
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
        match ir.kind() {
            "e.ref" => {
                let obj = Rc::clone(ir.node_field("obj").expect("ref"));
                match self.storage_of(&obj)? {
                    Storage::Signal(s) => Ok(s),
                    _ => Err(CgError::Unsupported("prefix is not a signal".into())),
                }
            }
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
        if node.field("body").is_none() {
            return Err(CgError::Unmapped(format!(
                "no body for subprogram `{}`",
                node.name().unwrap_or("?")
            )));
        }
        // Reserve the id first so recursion terminates.
        let placeholder = self.program.add_function(FnDecl {
            name: node.name().unwrap_or("?").to_string(),
            n_params: 0,
            n_locals: 0,
            code: Arc::new(Vec::new()),
            level: node.int_field("level").unwrap_or(1) as u16,
        });
        self.ctx.compiled.insert(uid.to_string(), placeholder);

        let level = node.int_field("level").unwrap_or(1) as u16;
        let mut sub = FnLower::new(self.ctx, self.program, level);
        // Parameters occupy the first slots.
        let params = vhdl_sem::decl::subprog_params(&node);
        for p in &params {
            sub.alloc(p.str_field("uid").unwrap_or("?"));
        }
        // Locals with initializers.
        for l in node.list_field("locals") {
            let Some(ln) = l.as_node() else { continue };
            if ln.kind_sym() == vhdl_vif::kinds::obj() {
                let slot = sub.alloc(ln.str_field("uid").unwrap_or("?"));
                sub.lower_var_init(ln, slot)?;
            } else if ln.kind_sym() == vhdl_vif::kinds::subprog() {
                sub.ctx.add_subprog(&Rc::clone(ln));
            }
        }
        for s in node.list_field("body") {
            if let Some(sn) = s.as_node() {
                sub.stmt(sn)?;
            }
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
        match obj.node_field("init") {
            Some(init) => self.expr(&Rc::clone(init))?,
            None => {
                let ty = vhdl_sem::decl::obj_ty(obj).expect("typed obj");
                self.emit(Insn::PushConst(default_value(&ty)));
            }
        }
        self.emit(Insn::StoreVar(VarAddr { depth: 0, slot }));
        Ok(())
    }

    /// Lowers a statement.
    pub fn stmt(&mut self, s: &Rc<VifNode>) -> Result<(), CgError> {
        match s.kind() {
            "s.assign_var" => {
                let target = s.node_field("target").expect("target");
                let value = Rc::clone(s.node_field("value").expect("value"));
                match target.kind() {
                    "e.ref" => {
                        let obj = Rc::clone(target.node_field("obj").expect("ref"));
                        self.expr(&value)?;
                        self.range_check(&vhdl_sem::decl::obj_ty(&obj).expect("ty"));
                        match self.storage_of(&obj)? {
                            Storage::Var { level, slot } => {
                                let depth = (self.level - level) as u8;
                                self.emit(Insn::StoreVar(VarAddr { depth, slot }));
                            }
                            _ => return Err(CgError::Unsupported("assign to non-variable".into())),
                        }
                    }
                    "e.index" => {
                        let base = target.node_field("base").expect("base");
                        let obj = Rc::clone(
                            base.node_field("obj")
                                .ok_or_else(|| CgError::Unsupported("deep target".into()))?,
                        );
                        self.expr(target.node_field("idx").expect("idx"))?;
                        self.expr(&value)?;
                        match self.storage_of(&obj)? {
                            Storage::Var { level, slot } => {
                                let depth = (self.level - level) as u8;
                                self.emit(Insn::StoreVarIndex(VarAddr { depth, slot }));
                            }
                            _ => return Err(CgError::Unsupported("assign to non-variable".into())),
                        }
                    }
                    "e.field" => {
                        let base = target.node_field("base").expect("base");
                        let obj = Rc::clone(
                            base.node_field("obj")
                                .ok_or_else(|| CgError::Unsupported("deep target".into()))?,
                        );
                        self.expr(&value)?;
                        let field = target.int_field("pos").unwrap_or(0) as u16;
                        match self.storage_of(&obj)? {
                            Storage::Var { level, slot } => {
                                let depth = (self.level - level) as u8;
                                self.emit(Insn::StoreVarField(VarAddr { depth, slot }, field));
                            }
                            _ => return Err(CgError::Unsupported("assign to non-variable".into())),
                        }
                    }
                    k => return Err(CgError::Unsupported(format!("variable target {k}"))),
                }
            }
            "s.assign_sig" => {
                let target = s.node_field("target").expect("target");
                let transport = s.field("transport") == Some(&vhdl_vif::VifValue::Bool(true));
                for (wi, w) in s.list_field("waveform").iter().enumerate() {
                    let Some(wn) = w.as_node() else { continue };
                    // Only the first waveform element preempts; the rest
                    // extend the projected output waveform (LRM §8.3).
                    let transport = transport || wi > 0;
                    let value = Rc::clone(wn.node_field("value").expect("wv value"));
                    let delay = wn.node_field("delay").cloned();
                    match target.kind() {
                        "e.ref" => {
                            let sig = self.signal_of(target)?;
                            self.expr(&value)?;
                            self.push_delay(delay.as_ref())?;
                            self.emit(Insn::Sched { sig, transport });
                        }
                        "e.index" => {
                            let base = target.node_field("base").expect("base");
                            let sig = self.signal_of(base)?;
                            self.expr(target.node_field("idx").expect("idx"))?;
                            self.expr(&value)?;
                            self.push_delay(delay.as_ref())?;
                            self.emit(Insn::SchedIndex { sig, transport });
                        }
                        k => return Err(CgError::Unsupported(format!("signal target {k}"))),
                    }
                }
            }
            "s.if" => {
                self.expr(s.node_field("cond").expect("cond"))?;
                let jf_at = self.code.len();
                self.emit(Insn::JumpIfFalse(0));
                for st in s.list_field("then") {
                    if let Some(n) = st.as_node() {
                        self.stmt(n)?;
                    }
                }
                let j_end = self.code.len();
                self.emit(Insn::Jump(0));
                let else_at = self.here();
                patch(&mut self.code, jf_at, else_at);
                for st in s.list_field("else") {
                    if let Some(n) = st.as_node() {
                        self.stmt(n)?;
                    }
                }
                let end = self.here();
                patch(&mut self.code, j_end, end);
            }
            "s.case" => self.lower_case(s)?,
            "s.loop" => self.lower_loop(s)?,
            "s.next" | "s.exit" => {
                let is_exit = s.kind_sym() == vhdl_vif::kinds::s_exit();
                let skip_at = match s.node_field("cond") {
                    Some(c) => {
                        self.expr(&Rc::clone(c))?;
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
            "s.wait" => self.lower_wait(s)?,
            "s.assert" => {
                self.expr(s.node_field("cond").expect("cond"))?;
                match s.node_field("report") {
                    Some(r) => self.expr(&Rc::clone(r))?,
                    None => {
                        let msg: Vec<Val> = "Assertion violation."
                            .chars()
                            .map(|c| Val::Int(c as i64 - 32))
                            .collect();
                        self.emit(Insn::PushConst(Val::arr(1, sim_kernel::VDir::To, msg)));
                    }
                }
                match s.node_field("severity") {
                    Some(sv) => self.expr(&Rc::clone(sv))?,
                    None => self.emit(Insn::PushInt(2)),
                }
                self.emit(Insn::Assert);
            }
            "s.call" => {
                self.expr(s.node_field("call").expect("call"))?;
                // Procedures leave nothing on the stack.
            }
            "s.return" => {
                let has_value = match s.node_field("value") {
                    Some(v) => {
                        self.expr(&Rc::clone(v))?;
                        true
                    }
                    None => false,
                };
                self.emit(Insn::Ret { has_value });
            }
            "s.null" => {}
            k => return Err(CgError::Unsupported(format!("statement {k}"))),
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
        if types::is_discrete(ty) || types::base_type(ty).kind_sym() == vhdl_vif::kinds::ty_phys() {
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
        self.expr(s.node_field("sel").expect("sel"))?;
        self.emit(Insn::StoreVar(VarAddr {
            depth: 0,
            slot: scratch,
        }));
        let mut end_jumps = Vec::new();
        for alt in s.list_field("alts") {
            let Some(an) = alt.as_node() else { continue };
            // Match tests: one per choice, OR-ed by jumping into the body.
            let mut into_body = Vec::new();
            let mut next_choice: Option<usize> = None;
            let choices = an.list_field("choices");
            let is_others = choices.iter().any(|c| {
                c.as_node()
                    .is_some_and(|n| n.kind_sym() == vhdl_vif::kinds::ch_others())
            });
            if !is_others {
                for (ci, c) in choices.iter().enumerate() {
                    let Some(cn) = c.as_node() else { continue };
                    if let Some(at) = next_choice.take() {
                        let here = self.here();
                        patch(&mut self.code, at, here);
                    }
                    match cn.kind() {
                        "ch.val" => {
                            self.emit(Insn::LoadVar(VarAddr {
                                depth: 0,
                                slot: scratch,
                            }));
                            self.emit(Insn::PushInt(cn.int_field("val").unwrap_or(0)));
                            self.emit(Insn::Binop(Op::Eq));
                        }
                        "ch.range" => {
                            let lo = cn.int_field("lo").unwrap_or(0);
                            let hi = cn.int_field("hi").unwrap_or(0);
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
                        k => return Err(CgError::Unsupported(format!("choice {k}"))),
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
            for st in an.list_field("body") {
                if let Some(n) = st.as_node() {
                    self.stmt(n)?;
                }
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
        let kind = s.str_field("kind").unwrap_or("forever");
        match kind {
            "forever" | "while" => {
                let start = self.here();
                self.loops.push(LoopPatches {
                    exits: Vec::new(),
                    nexts: Vec::new(),
                });
                let cond_jump = if kind == "while" {
                    self.expr(s.node_field("cond").expect("cond"))?;
                    let at = self.code.len();
                    self.emit(Insn::JumpIfFalse(0));
                    Some(at)
                } else {
                    None
                };
                for st in s.list_field("body") {
                    if let Some(n) = st.as_node() {
                        self.stmt(n)?;
                    }
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
                let var = s.node_field("var").expect("loop var");
                let range = s.node_field("cond").expect("loop range");
                let dir = Dir::decode(range.int_field("dir").unwrap_or(0));
                let slot = self.alloc(var.str_field("uid").unwrap_or("?"));
                let bound = self.next_slot;
                self.next_slot += 1;
                // var := left; bound := right.
                self.expr(range.node_field("left").expect("left"))?;
                self.emit(Insn::StoreVar(VarAddr { depth: 0, slot }));
                self.expr(range.node_field("right").expect("right"))?;
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
                for st in s.list_field("body") {
                    if let Some(n) = st.as_node() {
                        self.stmt(n)?;
                    }
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
        for sv in s.list_field("sens") {
            if let Some(n) = sv.as_node() {
                sens.push(self.signal_of_deep(n)?);
            }
        }
        let cond = s.node_field("cond").cloned();
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
        let timeout = s.node_field("timeout").cloned();
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
        match ir.kind() {
            "e.ref" => self.signal_of(ir),
            "e.index" | "e.slice" | "e.field" => {
                self.signal_of_deep(ir.node_field("base").expect("base"))
            }
            k => Err(CgError::Unsupported(format!("sensitivity {k}"))),
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
    if ir.kind_sym() == vhdl_vif::kinds::e_ref() {
        let obj = ir.node_field("obj").expect("ref");
        if obj.str_field("class") == Some("signal") {
            if let Ok(Storage::Signal(s)) = fl.storage_of(&Rc::clone(obj)) {
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
    v: &vhdl_vif::VifValue,
    out: &mut Vec<SigId>,
) -> Result<(), CgError> {
    match v {
        vhdl_vif::VifValue::Node(n) if vhdl_vif::kinds::is_expr(n.kind_sym()) => {
            collect_signals(fl, n, out)
        }
        vhdl_vif::VifValue::List(l) => {
            for v in l.iter() {
                collect_signals_value(fl, v, out)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}
