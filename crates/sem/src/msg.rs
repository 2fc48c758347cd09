//! Diagnostic messages — the ubiquitous `MSGS` attribute class of §4.2.
//!
//! Messages are collected applicatively: every production's `MSGS` is the
//! concatenation of its children's (an implicit merge rule), so the list
//! type is a persistent rope that concatenates in O(1).

use std::fmt;
use std::rc::Rc;

use vhdl_syntax::Pos;

/// Severity of a diagnostic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum Severity {
    /// Informational.
    Note,
    /// Suspicious but not fatal.
    Warning,
    /// Analysis error; the unit is not stored.
    Error,
}

/// One diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Msg {
    /// Severity.
    pub severity: Severity,
    /// Source position.
    pub pos: Pos,
    /// Text.
    pub text: String,
}

impl Msg {
    /// Creates an error message.
    pub fn error(pos: Pos, text: impl Into<String>) -> Msg {
        Msg {
            severity: Severity::Error,
            pos,
            text: text.into(),
        }
    }

    /// Creates a warning.
    pub fn warning(pos: Pos, text: impl Into<String>) -> Msg {
        Msg {
            severity: Severity::Warning,
            pos,
            text: text.into(),
        }
    }
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{}: {sev}: {}", self.pos, self.text)
    }
}

/// A persistent message list with O(1) concatenation (a rope).
#[derive(Clone, Debug, Default)]
pub enum Msgs {
    /// No messages — the class's unit element.
    #[default]
    Empty,
    /// One message.
    One(Rc<Msg>),
    /// Concatenation — the class's merge function.
    Cat(Rc<Msgs>, Rc<Msgs>),
}

impl Msgs {
    /// The empty list.
    pub fn none() -> Msgs {
        Msgs::Empty
    }

    /// A single message.
    pub fn one(m: Msg) -> Msgs {
        Msgs::One(Rc::new(m))
    }

    /// Concatenates two lists in O(1) — the `concatMsgs` merge function of
    /// §4.2.
    pub fn concat(a: &Msgs, b: &Msgs) -> Msgs {
        match (a, b) {
            (Msgs::Empty, x) | (x, Msgs::Empty) => x.clone(),
            (a, b) => Msgs::Cat(Rc::new(a.clone()), Rc::new(b.clone())),
        }
    }

    /// Appends a message.
    pub fn push(&mut self, m: Msg) {
        *self = Msgs::concat(self, &Msgs::one(m));
    }

    /// Flattens to a vector, in source order of collection.
    pub fn to_vec(&self) -> Vec<Msg> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<Msg>) {
        match self {
            Msgs::Empty => {}
            Msgs::One(m) => out.push((**m).clone()),
            Msgs::Cat(a, b) => {
                a.collect(out);
                b.collect(out);
            }
        }
    }

    /// `true` if any message is an error.
    pub fn has_errors(&self) -> bool {
        match self {
            Msgs::Empty => false,
            Msgs::One(m) => m.severity == Severity::Error,
            Msgs::Cat(a, b) => a.has_errors() || b.has_errors(),
        }
    }

    /// `true` if there are no messages at all.
    pub fn is_empty(&self) -> bool {
        matches!(self, Msgs::Empty)
    }
}

impl fmt::Display for Msgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in self.to_vec() {
            writeln!(f, "{m}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(line: u32) -> Pos {
        Pos { line, col: 1 }
    }

    #[test]
    fn concat_preserves_order() {
        let a = Msgs::one(Msg::error(at(1), "first"));
        let b = Msgs::one(Msg::warning(at(2), "second"));
        let c = Msgs::concat(&a, &b);
        let v = c.to_vec();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].text, "first");
        assert_eq!(v[1].text, "second");
        assert!(c.has_errors());
        assert!(!b.has_errors());
    }

    #[test]
    fn empty_is_unit() {
        let a = Msgs::one(Msg::error(at(1), "x"));
        let l = Msgs::concat(&Msgs::none(), &a);
        let r = Msgs::concat(&a, &Msgs::none());
        assert_eq!(l.to_vec(), r.to_vec());
        assert!(Msgs::none().is_empty());
        assert!(!l.is_empty());
    }

    #[test]
    fn push_and_display() {
        let mut m = Msgs::none();
        m.push(Msg::error(at(3), "bad thing"));
        let shown = m.to_string();
        assert!(shown.contains("3:1: error: bad thing"));
    }
}
