//! VIF text serialization.
//!
//! The on-disk form is a numbered node table, so graph sharing survives a
//! round trip (environment chains and type graphs share heavily — naive
//! tree serialization would blow up quadratically):
//!
//! ```text
//! VIF1
//! #0 (signal "clk" (type #1) (line 12))
//! #1 (type "bit")
//! root #0
//! ```
//!
//! Foreign references are written as `@"lib.unit"` and resolved through a
//! caller-supplied loader while reading — the "reads the VIF from disk,
//! resolving any nested foreign references" step of §2.2.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use ag_harness::fnv1a;

use crate::node::{VifNode, VifValue};
use crate::schema::SchemaFault;

/// Errors while reading VIF text or loading library units.
#[derive(Debug)]
pub enum VifError {
    /// Malformed input.
    Syntax {
        /// Byte offset.
        at: usize,
        /// Description.
        msg: String,
    },
    /// A foreign reference could not be resolved.
    Unresolved(String),
    /// Underlying I/O problem (from library operations).
    Io(std::io::Error),
    /// A requested unit does not exist.
    MissingUnit(String),
    /// A node of a library unit breaks the VIF schema
    /// ([`crate::schema::check_node`]); a load wraps it in
    /// [`VifError::InUnit`] naming the unit.
    Schema {
        /// The node's kind tag.
        kind: String,
        /// The offending field (empty for an unknown kind).
        field: String,
        /// What is wrong.
        fault: SchemaFault,
    },
    /// An error attributed to the library unit whose bytes were being
    /// read — so a malformed dependency names the offending unit, not
    /// just a byte offset into anonymous text.
    InUnit {
        /// Full unit reference, `lib.unit_key`.
        unit: String,
        /// The underlying problem.
        source: Box<VifError>,
    },
}

impl VifError {
    /// Wraps syntax and schema errors — errors about *this unit's
    /// bytes* — with the unit they occurred in. Errors that already name
    /// their subject (missing units, unresolved references, nested
    /// `InUnit`) pass through unchanged.
    pub fn in_unit(self, unit: impl Into<String>) -> VifError {
        match self {
            e @ (VifError::Syntax { .. } | VifError::Schema { .. }) => VifError::InUnit {
                unit: unit.into(),
                source: Box::new(e),
            },
            e => e,
        }
    }
}

impl fmt::Display for VifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VifError::Syntax { at, msg } => write!(f, "vif syntax error at byte {at}: {msg}"),
            VifError::Unresolved(r) => write!(f, "unresolved foreign reference `{r}`"),
            VifError::Io(e) => write!(f, "vif i/o error: {e}"),
            VifError::MissingUnit(u) => write!(f, "no such unit `{u}` in library"),
            VifError::InUnit { unit, source } => write!(f, "in unit `{unit}`: {source}"),
            VifError::Schema { kind, field, fault } if field.is_empty() => {
                write!(f, "`{kind}` node: {fault}")
            }
            VifError::Schema { kind, field, fault } => {
                write!(f, "`{kind}` node, field `{field}`: {fault}")
            }
        }
    }
}

impl std::error::Error for VifError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VifError::Io(e) => Some(e),
            VifError::InUnit { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for VifError {
    fn from(e: std::io::Error) -> Self {
        VifError::Io(e)
    }
}

/// Serializes a node graph to VIF text, preserving sharing.
pub fn write_vif(root: &Rc<VifNode>) -> String {
    let _t = ag_harness::trace::span("vif-write");
    let mut out = String::new();
    print_vif(root, &mut out);
    ag_harness::trace::counter("vif-bytes-written", out.len() as u64);
    out
}

/// FNV-1a of the node graph's VIF text, computed by streaming the printer
/// into the hash: equal to `fnv1a(0, write_vif(root).as_bytes())`, but no
/// text is made.
pub(crate) fn vif_text_hash(root: &Rc<VifNode>) -> u64 {
    /// A `fmt::Write` sink that folds every piece into the hash.
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = fnv1a(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut h = Fnv(0);
    print_vif(root, &mut h);
    h.0
}

/// Prints a node graph's VIF text into `out`.
fn print_vif(root: &Rc<VifNode>, out: &mut impl fmt::Write) {
    // Number nodes by first (depth-first) encounter.
    let mut ids: HashMap<*const VifNode, usize> = HashMap::new();
    let mut order: Vec<Rc<VifNode>> = Vec::new();
    number(root, &mut ids, &mut order);
    let _ = out.write_str("VIF1\n");
    for (i, n) in order.iter().enumerate() {
        let _ = write!(out, "#{i} ({}", n.kind());
        if let Some(name) = n.name() {
            let _ = out.write_char(' ');
            write_quoted(out, name);
        }
        for (fname, v) in n.fields() {
            let _ = write!(out, " ({fname} ");
            write_value(out, v, &ids);
            let _ = out.write_char(')');
        }
        let _ = out.write_str(")\n");
    }
    let _ = writeln!(out, "root #{}", ids[&Rc::as_ptr(root)]);
}

fn number(n: &Rc<VifNode>, ids: &mut HashMap<*const VifNode, usize>, order: &mut Vec<Rc<VifNode>>) {
    if ids.contains_key(&Rc::as_ptr(n)) {
        return;
    }
    ids.insert(Rc::as_ptr(n), order.len());
    order.push(Rc::clone(n));
    for (_, v) in n.fields() {
        number_value(v, ids, order);
    }
}

fn number_value(
    v: &VifValue,
    ids: &mut HashMap<*const VifNode, usize>,
    order: &mut Vec<Rc<VifNode>>,
) {
    match v {
        VifValue::Node(n) => number(n, ids, order),
        VifValue::List(l) => {
            for v in l.iter() {
                number_value(v, ids, order);
            }
        }
        _ => {}
    }
}

fn write_value(out: &mut impl fmt::Write, v: &VifValue, ids: &HashMap<*const VifNode, usize>) {
    let _ = match v {
        VifValue::Nil => out.write_str("nil"),
        VifValue::Bool(b) => write!(out, "{b}"),
        VifValue::Int(i) => write!(out, "{i}"),
        VifValue::Real(r) => write!(out, "r{r:?}"),
        VifValue::Str(s) => {
            write_quoted(out, s);
            Ok(())
        }
        VifValue::Node(n) => write!(out, "#{}", ids[&Rc::as_ptr(n)]),
        VifValue::List(l) => {
            let _ = out.write_char('[');
            for (i, v) in l.iter().enumerate() {
                if i > 0 {
                    let _ = out.write_char(' ');
                }
                write_value(out, v, ids);
            }
            out.write_char(']')
        }
        VifValue::Foreign(r) => {
            let _ = out.write_char('@');
            write_quoted(out, r);
            Ok(())
        }
    };
}

fn write_quoted(out: &mut impl fmt::Write, s: &str) {
    let _ = out.write_char('"');
    for c in s.chars() {
        let _ = match c {
            '"' => out.write_str("\\\""),
            '\\' => out.write_str("\\\\"),
            '\n' => out.write_str("\\n"),
            c => out.write_char(c),
        };
    }
    let _ = out.write_char('"');
}

/// Resolver callback for foreign references encountered during reading.
pub type Resolver<'a> = dyn FnMut(&str) -> Result<Rc<VifNode>, VifError> + 'a;

/// Parses VIF text back into a node graph, resolving `@"lib.unit"` foreign
/// references through `resolve`.
///
/// # Errors
///
/// [`VifError::Syntax`] on malformed text, or whatever `resolve` returns
/// for an unknown reference.
pub fn read_vif(src: &str, resolve: &mut Resolver<'_>) -> Result<Rc<VifNode>, VifError> {
    read(src, resolve, false)
}

/// [`read_vif`], and when `checked` each node it builds is checked against
/// the schema ([`crate::schema::check_node`]): the library's load path.
/// Nodes that foreign references resolve to were checked when their unit
/// loaded.
pub(crate) fn read(
    src: &str,
    resolve: &mut Resolver<'_>,
    checked: bool,
) -> Result<Rc<VifNode>, VifError> {
    let _t = ag_harness::trace::span("vif-read");
    ag_harness::trace::counter("vif-bytes-read", src.len() as u64);
    let mut p = P {
        src: src.as_bytes(),
        i: 0,
    };
    p.expect_word("VIF1")?;
    // First pass: parse node table into raw entries; node refs are patched
    // afterwards (two-pass because `#k` may be a forward reference).
    struct RawNode {
        kind: String,
        name: Option<String>,
        fields: Vec<(String, Raw)>,
        /// Byte offset of the node's `#id` table entry, so second-pass
        /// diagnostics can still point into the text.
        at: usize,
    }
    enum Raw {
        Val(VifValue),
        Ref(usize),
        List(Vec<Raw>),
    }
    let mut raw: Vec<RawNode> = Vec::new();
    loop {
        p.skip_ws();
        if p.looking_at("root") {
            break;
        }
        let entry_at = p.i;
        p.expect(b'#')?;
        let id = p.number()? as usize;
        if id != raw.len() {
            return Err(p.err("node ids must be dense and in order"));
        }
        p.expect(b'(')?;
        let kind = p.word()?;
        p.skip_ws();
        let name = if p.peek() == Some(b'"') {
            Some(p.string()?)
        } else {
            None
        };
        let mut fields = Vec::new();
        loop {
            p.skip_ws();
            if p.peek() == Some(b')') {
                p.i += 1;
                break;
            }
            p.expect(b'(')?;
            let fname = p.word()?;
            fn value(p: &mut P, resolve: &mut Resolver<'_>) -> Result<Raw, VifError> {
                p.skip_ws();
                match p.peek() {
                    Some(b'#') => {
                        p.i += 1;
                        Ok(Raw::Ref(p.number()? as usize))
                    }
                    Some(b'[') => {
                        p.i += 1;
                        let mut items = Vec::new();
                        loop {
                            p.skip_ws();
                            if p.peek() == Some(b']') {
                                p.i += 1;
                                break;
                            }
                            items.push(value(p, resolve)?);
                        }
                        Ok(Raw::List(items))
                    }
                    Some(b'"') => Ok(Raw::Val(VifValue::str(p.string()?))),
                    Some(b'@') => {
                        p.i += 1;
                        // Resolve eagerly: nested foreign references
                        // load their units right here.
                        Ok(Raw::Val(VifValue::Node(resolve(&p.string()?)?)))
                    }
                    Some(b'r') => {
                        p.i += 1;
                        let n = p.float()?;
                        Ok(Raw::Val(VifValue::Real(n)))
                    }
                    Some(c) if c == b'-' || c.is_ascii_digit() => {
                        Ok(Raw::Val(VifValue::Int(p.number()?)))
                    }
                    _ => {
                        let w = p.word()?;
                        match w.as_str() {
                            "nil" => Ok(Raw::Val(VifValue::Nil)),
                            "true" => Ok(Raw::Val(VifValue::Bool(true))),
                            "false" => Ok(Raw::Val(VifValue::Bool(false))),
                            other => Err(p.err(format!("unexpected word `{other}`"))),
                        }
                    }
                }
            }
            let v = value(&mut p, resolve)?;
            p.skip_ws();
            p.expect(b')')?;
            fields.push((fname, v));
        }
        raw.push(RawNode {
            kind,
            name,
            fields,
            at: entry_at,
        });
    }
    p.expect_word("root")?;
    p.skip_ws();
    let root_at = p.i;
    p.expect(b'#')?;
    let root_id = p.number()? as usize;

    // Second pass: build real nodes bottom-up. Because ids are assigned
    // depth-first on write, a node only references nodes that appear later
    // OR earlier; handle arbitrary order by memoized recursion.
    let mut built: Vec<Option<Rc<VifNode>>> = vec![None; raw.len()];
    fn build(
        id: usize,
        raw: &[RawNode],
        built: &mut Vec<Option<Rc<VifNode>>>,
        depth: usize,
        checked: bool,
    ) -> Result<Rc<VifNode>, VifError> {
        if let Some(n) = &built[id] {
            return Ok(Rc::clone(n));
        }
        if depth > raw.len() {
            return Err(VifError::Syntax {
                at: raw[id].at,
                msg: "cyclic node table".into(),
            });
        }
        fn conv(
            r: &Raw,
            raw: &[RawNode],
            built: &mut Vec<Option<Rc<VifNode>>>,
            depth: usize,
            checked: bool,
        ) -> Result<VifValue, VifError> {
            Ok(match r {
                Raw::Val(v) => v.clone(),
                Raw::Ref(id) => VifValue::Node(build(*id, raw, built, depth + 1, checked)?),
                Raw::List(items) => VifValue::list(
                    items
                        .iter()
                        .map(|r| conv(r, raw, built, depth, checked))
                        .collect::<Result<Vec<_>, _>>()?,
                ),
            })
        }
        let rn = &raw[id];
        let mut b = VifNode::build(rn.kind.as_str());
        if let Some(n) = &rn.name {
            b = b.name(n.as_str());
        }
        for (fname, r) in &rn.fields {
            b = b.field(fname.as_str(), conv(r, raw, built, depth, checked)?);
        }
        let node = b.done();
        if checked {
            crate::schema::check_node(&node)?;
        }
        built[id] = Some(Rc::clone(&node));
        Ok(node)
    }
    if root_id >= raw.len() {
        return Err(VifError::Syntax {
            at: root_at,
            msg: "root id out of range".into(),
        });
    }
    build(root_id, &raw, &mut built, 0, checked)
}

struct P<'a> {
    src: &'a [u8],
    i: usize,
}

impl P<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\n') | Some(b'\t') | Some(b'\r')
        ) {
            self.i += 1;
        }
    }

    fn err(&self, msg: impl Into<String>) -> VifError {
        VifError::Syntax {
            at: self.i,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), VifError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn looking_at(&self, word: &str) -> bool {
        self.src[self.i..].starts_with(word.as_bytes())
    }

    fn expect_word(&mut self, w: &str) -> Result<(), VifError> {
        self.skip_ws();
        if self.looking_at(w) {
            self.i += w.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{w}`")))
        }
    }

    fn word(&mut self) -> Result<String, VifError> {
        self.skip_ws();
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
        {
            self.i += 1;
        }
        if start == self.i {
            return Err(self.err("expected word"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.i]).into_owned())
    }

    fn number(&mut self) -> Result<i64, VifError> {
        self.skip_ws();
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        std::str::from_utf8(&self.src[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("expected number"))
    }

    fn float(&mut self) -> Result<f64, VifError> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.src[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("expected real"))
    }

    fn string(&mut self) -> Result<String, VifError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'n') => out.push('\n'),
                        Some(c) => out.push(c as char),
                        None => return Err(self.err("unterminated escape")),
                    }
                    self.i += 1;
                }
                Some(c) => {
                    out.push(c as char);
                    self.i += 1;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::VifNode;

    fn no_foreign(r: &str) -> Result<Rc<VifNode>, VifError> {
        Err(VifError::Unresolved(r.to_string()))
    }

    #[test]
    fn round_trip_preserves_structure_and_sharing() {
        let shared = VifNode::build("type")
            .name("bit")
            .int_field("width", 1)
            .done();
        let a = VifNode::build("port")
            .name("clk")
            .node_field("type", Rc::clone(&shared))
            .done();
        let root = VifNode::build("entity")
            .name("e")
            .list_field(
                "ports",
                vec![
                    VifValue::Node(Rc::clone(&a)),
                    VifValue::Node(Rc::clone(&shared)),
                ],
            )
            .field("flag", VifValue::Bool(true))
            .field("ratio", VifValue::Real(2.5))
            .field("none", VifValue::Nil)
            .str_field("note", "say \"hi\"\nline2")
            .done();
        let text = write_vif(&root);
        let back = read_vif(&text, &mut no_foreign).unwrap();
        assert_eq!(back, root);
        // Sharing preserved: the type node reachable through the port and
        // through the list is the same allocation.
        let port = back.list_field("ports")[0].as_node().unwrap();
        let ty1 = port.node_field("type").unwrap();
        let ty2 = back.list_field("ports")[1].as_node().unwrap();
        assert!(Rc::ptr_eq(ty1, ty2));
        assert_eq!(back.reachable_size(), 3);
    }

    #[test]
    fn foreign_references_resolved() {
        let root = VifNode::build("arch")
            .name("rtl")
            .field("entity", VifValue::Foreign("work.entity.e".into()))
            .done();
        let text = write_vif(&root);
        assert!(text.contains("@\"work.entity.e\""));
        let mut calls = Vec::new();
        let back = read_vif(&text, &mut |r| {
            calls.push(r.to_string());
            Ok(VifNode::build("entity").name("e").done())
        })
        .unwrap();
        assert_eq!(calls, vec!["work.entity.e"]);
        assert_eq!(back.node_field("entity").unwrap().name(), Some("e"));
    }

    #[test]
    fn unresolved_foreign_is_error() {
        let root = VifNode::build("x")
            .field("r", VifValue::Foreign("nowhere.y".into()))
            .done();
        let text = write_vif(&root);
        let err = read_vif(&text, &mut no_foreign).unwrap_err();
        assert!(err.to_string().contains("nowhere.y"));
    }

    #[test]
    fn syntax_errors_reported() {
        assert!(read_vif("garbage", &mut no_foreign).is_err());
        assert!(read_vif("VIF1\n#0 (k (f", &mut no_foreign).is_err());
        assert!(read_vif("VIF1\nroot #5", &mut no_foreign).is_err());
        let e = read_vif("VIF1\n#1 (k)\nroot #1", &mut no_foreign).unwrap_err();
        assert!(e.to_string().contains("dense"));
    }

    #[test]
    fn second_pass_errors_carry_positions() {
        // Out-of-range root: the offset points at the `#` of `root #5`.
        let text = "VIF1\n#0 (k)\nroot #5";
        match read_vif(text, &mut no_foreign).unwrap_err() {
            VifError::Syntax { at, .. } => assert_eq!(&text[at..at + 2], "#5"),
            e => panic!("expected syntax error, got {e}"),
        }
        // Hand-made cyclic table: the offset points at a node entry.
        let text = "VIF1\n#0 (a (x #1))\n#1 (b (y #0))\nroot #0";
        match read_vif(text, &mut no_foreign).unwrap_err() {
            VifError::Syntax { at, msg } => {
                assert!(msg.contains("cyclic"));
                assert_eq!(&text[at..at + 1], "#");
            }
            e => panic!("expected syntax error, got {e}"),
        }
    }

    #[test]
    fn in_unit_wrapping_names_the_unit() {
        let inner = VifError::Syntax {
            at: 7,
            msg: "expected word".into(),
        };
        let wrapped = inner.in_unit("work.pkg.mid");
        let text = wrapped.to_string();
        assert!(text.contains("work.pkg.mid"), "{text}");
        assert!(text.contains("byte 7"), "{text}");
        // Already-attributed errors pass through unchanged.
        let missing = VifError::MissingUnit("work.entity.e".into()).in_unit("work.arch.e.rtl");
        assert!(matches!(missing, VifError::MissingUnit(_)));
        let nested = wrapped.in_unit("work.other");
        match nested {
            VifError::InUnit { unit, .. } => assert_eq!(unit, "work.pkg.mid"),
            e => panic!("double wrap: {e}"),
        }
    }

    #[test]
    fn negative_ints_and_reals() {
        let root = VifNode::build("k")
            .int_field("a", -42)
            .field("b", VifValue::Real(-0.5))
            .done();
        let back = read_vif(&write_vif(&root), &mut no_foreign).unwrap();
        assert_eq!(back.int_field("a"), Some(-42));
        assert_eq!(back.field("b"), Some(&VifValue::Real(-0.5)));
    }
}
