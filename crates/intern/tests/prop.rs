//! Property tests for the interner, driven by the in-repo `ag-harness`
//! framework: intern → resolve round-trips, case folding matches the
//! lexer's `to_ascii_lowercase` rule, symbol equality coincides with
//! folded-string equality, and symbols stay stable across large batches
//! of random identifiers.

use ag_harness::{check, check_eq, forall, Config, Source};
use ag_intern::Symbol;

/// A random VHDL-shaped identifier: a letter, then letters, digits and
/// underscores, in mixed case so folding has work to do.
fn ident(s: &mut Source) -> String {
    s.string_from("abcXYZqrS", "abcXYZqrS019_", 12)
}

/// `Symbol::intern` resolves back to exactly the text that was interned.
#[test]
fn verbatim_round_trip() {
    forall!(Config::new("verbatim_round_trip").cases(256), |s| {
        let text = ident(s);
        let sym = Symbol::intern(&text);
        check_eq!(sym.as_str(), text.as_str());
        // Resolving via id round-trips too.
        check_eq!(Symbol::from_id(sym.id()), Some(sym));
    });
}

/// `Symbol::intern_ci` resolves to the ASCII-lowercase folding of its
/// input — the exact rule the lexer applies to VHDL identifiers.
#[test]
fn ci_folding_matches_lexer_rule() {
    forall!(
        Config::new("ci_folding_matches_lexer_rule").cases(256),
        |s| {
            let text = ident(s);
            let sym = Symbol::intern_ci(&text);
            let folded = text.to_ascii_lowercase();
            check_eq!(sym.as_str(), folded.as_str());
            // Folding is idempotent: interning the folded text verbatim or
            // case-insensitively lands on the same symbol.
            check_eq!(Symbol::intern_ci(sym.as_str()), sym);
            check_eq!(Symbol::intern(&text.to_ascii_lowercase()), sym);
        }
    );
}

/// Two identifiers intern (case-insensitively) to the same symbol exactly
/// when their ASCII-lowercase foldings are equal.
#[test]
fn symbol_eq_iff_folded_eq() {
    forall!(Config::new("symbol_eq_iff_folded_eq").cases(256), |s| {
        let a = ident(s);
        // Half the cases perturb `a` (often only in case) so equal pairs
        // actually occur; the rest draw an independent identifier.
        let b = if s.bool() {
            a.chars()
                .map(|c| {
                    if s.bool() {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect()
        } else {
            ident(s)
        };
        let same_sym = Symbol::intern_ci(&a) == Symbol::intern_ci(&b);
        let same_folded = a.eq_ignore_ascii_case(&b);
        check_eq!(same_sym, same_folded, "a={a:?} b={b:?}");
    });
}

/// Symbols are stable: re-interning any of a large batch of identifiers
/// (cumulatively well past 10^4 across the run) yields the same id and
/// the same resolved text, and distinct folded texts keep distinct ids.
#[test]
fn stability_across_many_identifiers() {
    forall!(
        Config::new("stability_across_many_identifiers").cases(32),
        |s| {
            let batch: Vec<String> = s.vec(320, 400, ident);
            let first: Vec<Symbol> = batch.iter().map(|t| Symbol::intern_ci(t)).collect();
            // Interning a disjoint pile in between must not move anything.
            for i in 0..64u64 {
                Symbol::intern(&format!("churn_{i}_{}", s.u64_in(0, u64::MAX)));
            }
            for (text, sym) in batch.iter().zip(&first) {
                let again = Symbol::intern_ci(text);
                check_eq!(again, *sym, "re-intern of {text:?} moved");
                let folded = text.to_ascii_lowercase();
                check_eq!(again.as_str(), folded.as_str());
            }
            // Injectivity within the batch: distinct foldings ⇒ distinct ids.
            for (i, a) in batch.iter().enumerate() {
                for (b, sb) in batch[..i].iter().zip(&first) {
                    if !a.eq_ignore_ascii_case(b) {
                        check!(first[i] != *sb, "collision: {a:?} vs {b:?}");
                    }
                }
            }
        }
    );
}

/// The interner only ever grows, and every id below `stats().symbols`
/// resolves without panicking.
#[test]
fn stats_monotone_and_ids_dense() {
    forall!(Config::new("stats_monotone_and_ids_dense").cases(64), |s| {
        let before = ag_intern::stats();
        let text = ident(s);
        let sym = Symbol::intern_ci(&text);
        let after = ag_intern::stats();
        check!(after.symbols >= before.symbols);
        check!(after.bytes >= before.bytes);
        check!(u64::from(sym.id()) < after.symbols);
        // Dense ids: the last allocated id resolves and round-trips,
        // and the first never-allocated id does not.
        let last = Symbol::from_id((after.symbols - 1) as u32);
        check!(last.is_some());
        check_eq!(Symbol::from_id(last.expect("in range").id()), last);
        check!(Symbol::from_id(u32::MAX).is_none());
    });
}
