//! VHDL token kinds and source tokens.

use std::fmt;

use ag_intern::{Symbol, ToSym};

/// Declares [`TokenKind`] from one table of `Kind => "name"` entries.
///
/// The table generates the enum, [`TokenKind::name`], [`TokenKind::all`]
/// in declaration order and the reserved-word lookup
/// [`TokenKind::keyword`]: the `keywords` section holds the reserved
/// words, whose terminal names are also their spellings.
macro_rules! token_kinds {
    (
        literals { $($(#[$lm:meta])* $lit:ident => $lname:literal,)* }
        keywords { $($kw:ident => $word:literal,)* }
        delimiters { $($(#[$dm:meta])* $delim:ident => $dname:literal,)* }
    ) => {
        /// Every lexical token kind of the supported VHDL-87 subset.
        ///
        /// The `name` of each kind doubles as the terminal name in the
        /// principal grammar, which registers the kinds first, in
        /// declaration order: a kind's discriminant is its terminal's
        /// symbol index.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub enum TokenKind {
            $($(#[$lm])* $lit,)*
            $(#[doc = concat!("The reserved word `", $word, "`.")] $kw,)*
            $($(#[$dm])* $delim,)*
        }

        impl TokenKind {
            /// Grammar terminal name for this kind.
            pub fn name(self) -> &'static str {
                match self {
                    $(TokenKind::$lit => $lname,)*
                    $(TokenKind::$kw => $word,)*
                    $(TokenKind::$delim => $dname,)*
                }
            }

            /// All token kinds, in declaration order (used to register
            /// grammar terminals).
            pub fn all() -> &'static [TokenKind] {
                &[$(TokenKind::$lit,)* $(TokenKind::$kw,)* $(TokenKind::$delim,)*]
            }

            /// Looks up the reserved word for a (lower-cased) identifier.
            pub fn keyword(text: &str) -> Option<TokenKind> {
                match text {
                    $($word => Some(TokenKind::$kw),)*
                    _ => None,
                }
            }

            /// The `keywords` section, for the tests.
            #[cfg(test)]
            const KEYWORDS: &'static [TokenKind] = &[$(TokenKind::$kw,)*];
        }
    };
}

token_kinds! {
    literals {
        /// A (case-insensitive) identifier, normalized to lower case.
        Id => "id",
        /// Integer literal, possibly based or with exponent (`16#FF#`, `1E3`).
        IntLit => "int_lit",
        /// Real literal (`3.14`, `1.0E-9`).
        RealLit => "real_lit",
        /// Character literal (`'x'`).
        CharLit => "char_lit",
        /// String literal (`"hello"`), also operator symbols (`"and"`).
        StringLit => "string_lit",
        /// Bit-string literal (`B"1010"`, `X"F"`).
        BitStringLit => "bit_string_lit",
    }
    // The reserved words of the VHDL-87 subset.
    keywords {
        KwAbs => "abs",
        KwAfter => "after",
        KwAlias => "alias",
        KwAll => "all",
        KwAnd => "and",
        KwArchitecture => "architecture",
        KwArray => "array",
        KwAssert => "assert",
        KwAttribute => "attribute",
        KwBegin => "begin",
        KwBlock => "block",
        KwBody => "body",
        KwBuffer => "buffer",
        KwBus => "bus",
        KwCase => "case",
        KwComponent => "component",
        KwConfiguration => "configuration",
        KwConstant => "constant",
        KwDisconnect => "disconnect",
        KwDownto => "downto",
        KwElse => "else",
        KwElsif => "elsif",
        KwEnd => "end",
        KwEntity => "entity",
        KwExit => "exit",
        KwFor => "for",
        KwFunction => "function",
        KwGeneric => "generic",
        KwGuarded => "guarded",
        KwIf => "if",
        KwIn => "in",
        KwInout => "inout",
        KwIs => "is",
        KwLibrary => "library",
        KwLinkage => "linkage",
        KwLoop => "loop",
        KwMap => "map",
        KwMod => "mod",
        KwNand => "nand",
        KwNew => "new",
        KwNext => "next",
        KwNor => "nor",
        KwNot => "not",
        KwNull => "null",
        KwOf => "of",
        KwOn => "on",
        KwOpen => "open",
        KwOr => "or",
        KwOthers => "others",
        KwOut => "out",
        KwPackage => "package",
        KwPort => "port",
        KwProcedure => "procedure",
        KwProcess => "process",
        KwRange => "range",
        KwRecord => "record",
        KwRegister => "register",
        KwRem => "rem",
        KwReport => "report",
        KwReturn => "return",
        KwSelect => "select",
        KwSeverity => "severity",
        KwSignal => "signal",
        KwSubtype => "subtype",
        KwThen => "then",
        KwTo => "to",
        KwTransport => "transport",
        KwType => "type",
        KwUnits => "units",
        KwUntil => "until",
        KwUse => "use",
        KwVariable => "variable",
        KwWait => "wait",
        KwWhen => "when",
        KwWhile => "while",
        KwWith => "with",
        KwXor => "xor",
    }
    delimiters {
        /// `(`
        LParen => "'('",
        /// `)`
        RParen => "')'",
        /// `;`
        Semi => "';'",
        /// `:`
        Colon => "':'",
        /// `,`
        Comma => "','",
        /// `.`
        Dot => "'.'",
        /// `'` (attribute/qualification tick; character literals are [`TokenKind::CharLit`])
        Tick => "tick",
        /// `&`
        Amp => "'&'",
        /// `+`
        Plus => "'+'",
        /// `-`
        Minus => "'-'",
        /// `*`
        Star => "'*'",
        /// `/`
        Slash => "'/'",
        /// `**`
        DoubleStar => "'**'",
        /// `=`
        Eq => "'='",
        /// `/=`
        Neq => "'/='",
        /// `<`
        Lt => "'<'",
        /// `<=`
        Lte => "'<='",
        /// `>`
        Gt => "'>'",
        /// `>=`
        Gte => "'>='",
        /// `:=`
        Assign => "':='",
        /// `=>`
        Arrow => "'=>'",
        /// `<>`
        Box => "'<>'",
        /// `|`
        Bar => "'|'",
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Source position (1-based line and column).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash, PartialOrd, Ord)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexed source token: kind, normalized text, and position.
///
/// The text is an interned [`Symbol`], so a token is three words of
/// `Copy` data and name comparisons downstream (environment keys,
/// overload resolution) are integer compares. `Symbol` derefs to `str`,
/// so `&t.text` still coerces wherever a `&str` is expected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SrcTok {
    /// The lexical category.
    pub kind: TokenKind,
    /// Normalized text: identifiers and reserved words lower-cased,
    /// literal tokens kept verbatim (string/char literals without quotes).
    pub text: Symbol,
    /// Where the token starts.
    pub pos: Pos,
}

impl SrcTok {
    /// Creates a token. Accepts a [`Symbol`] (free) or any string type
    /// (interned verbatim on entry).
    pub fn new(kind: TokenKind, text: impl ToSym, pos: Pos) -> Self {
        SrcTok {
            kind,
            text: text.to_sym(),
            pos,
        }
    }
}

impl fmt::Display for SrcTok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.text, self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in TokenKind::all() {
            assert!(
                seen.insert(k.name()),
                "duplicate terminal name {}",
                k.name()
            );
        }
    }

    /// Upper case and alternating case (`eNtItY`).
    fn spellings(word: &str) -> [String; 2] {
        let mixed = word
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 1 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        [word.to_ascii_uppercase(), mixed]
    }

    #[test]
    fn every_keyword_round_trips_through_lookup_and_lexer() {
        assert_eq!(TokenKind::KEYWORDS.len(), 77);
        for &k in TokenKind::KEYWORDS {
            assert_eq!(TokenKind::keyword(k.name()), Some(k));
            for spelling in spellings(k.name()) {
                let toks = crate::lex(&spelling).unwrap();
                assert_eq!(toks.len(), 1, "{spelling}");
                assert_eq!(toks[0].kind, k, "{spelling}");
                assert_eq!(toks[0].text.as_str(), k.name(), "{spelling}");
            }
        }
    }

    #[test]
    fn no_other_name_is_a_keyword() {
        assert_eq!(TokenKind::all().len(), 106);
        for &k in TokenKind::all() {
            if !TokenKind::KEYWORDS.contains(&k) {
                assert_eq!(TokenKind::keyword(k.name()), None, "{}", k.name());
            }
        }
        assert_eq!(TokenKind::keyword("nonsense"), None);
    }

    #[test]
    fn display_and_pos() {
        let t = SrcTok::new(TokenKind::Id, "clk", Pos { line: 3, col: 7 });
        assert_eq!(t.to_string(), "clk@3:7");
        assert_eq!(TokenKind::Lte.to_string(), "'<='");
    }
}
