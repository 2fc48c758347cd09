//! Corpus files: persisted choice streams plus golden digests.
//!
//! A corpus case is the complete description of one conformance run — a
//! generator profile, the recorded choice stream (replaying it through
//! [`crate::gen::gen_design`] reproduces the VHDL text byte for byte),
//! and the golden digest of the agreed matrix snapshot. The file format
//! is line-oriented and hand-editable:
//!
//! ```text
//! # vhdl-conform corpus case
//! note <one line of free text>
//! profile small
//! stream 0x1a,0x2,0x0
//! digest 0x9c4f...
//! ```
//!
//! `digest` is optional: a freshly filed divergence reproducer has no
//! agreed snapshot yet. Replaying a digest-less case only checks matrix
//! agreement; replaying a digested case also pins the semantics.

use std::path::{Path, PathBuf};

use ag_harness::{parse_stream, render_stream, Source};
use sim_kernel::oracle::{Divergence, MatrixOutcome};
use sim_kernel::TestFault;

use crate::gen::{gen_design, Design, Profile};
use crate::oracle::{run_matrix, ConformError};

/// One corpus case.
#[derive(Clone, Debug)]
pub struct Case {
    /// File stem (diagnostics only).
    pub name: String,
    /// One-line triage/provenance note.
    pub note: String,
    /// Generator profile.
    pub profile: Profile,
    /// The recorded choice stream.
    pub stream: Vec<u64>,
    /// Golden digest of the agreed matrix snapshot, when established.
    pub digest: Option<u64>,
}

impl Case {
    /// Regenerates this case's design from its stream.
    pub fn design(&self) -> Design {
        let mut s = Source::of_stream(self.stream.clone());
        gen_design(&mut s, self.profile)
    }

    /// Renders the file body.
    pub fn render(&self) -> String {
        let mut out = String::from("# vhdl-conform corpus case\n");
        if !self.note.is_empty() {
            out.push_str("note ");
            out.push_str(&self.note);
            out.push('\n');
        }
        out.push_str("profile ");
        out.push_str(self.profile.name());
        out.push('\n');
        out.push_str("stream ");
        out.push_str(&render_stream(&self.stream));
        out.push('\n');
        if let Some(d) = self.digest {
            out.push_str(&format!("digest {d:#x}\n"));
        }
        out
    }

    /// Parses a corpus file body.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(name: &str, text: &str) -> Result<Case, String> {
        let mut note = String::new();
        let mut profile = None;
        let mut stream = None;
        let mut digest = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "note" => note = rest.trim().to_string(),
                "profile" => {
                    profile =
                        Some(Profile::parse(rest.trim()).ok_or(format!("bad profile `{rest}`"))?);
                }
                "stream" => {
                    stream = Some(parse_stream(rest.trim()).ok_or(format!("bad stream `{rest}`"))?);
                }
                "digest" => {
                    let v = rest.trim();
                    let v = v.strip_prefix("0x").ok_or(format!("bad digest `{rest}`"))?;
                    digest = Some(
                        u64::from_str_radix(v, 16).map_err(|_| format!("bad digest `{rest}`"))?,
                    );
                }
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        Ok(Case {
            name: name.to_string(),
            note,
            profile: profile.ok_or("missing profile")?,
            stream: stream.ok_or("missing stream")?,
            digest,
        })
    }

    /// Loads a corpus case from a file.
    ///
    /// # Errors
    ///
    /// I/O or parse problems, as text.
    pub fn load(path: &Path) -> Result<Case, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        Case::parse(&name, &text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Loads every `*.case` file under `dir`, sorted by name for
/// deterministic replay order.
///
/// # Errors
///
/// I/O or parse problems, as text.
pub fn load_dir(dir: &Path) -> Result<Vec<Case>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    paths.iter().map(|p| Case::load(p)).collect()
}

/// How one replayed case went.
#[derive(Debug)]
pub enum CaseVerdict {
    /// Matrix agreed; digest matched (or none was pinned).
    Pass {
        /// The agreed digest of this replay.
        digest: u64,
    },
    /// Matrix agreed but the snapshot digest drifted from the golden —
    /// the kernel's observable semantics changed.
    DigestDrift {
        /// Pinned golden digest.
        want: u64,
        /// Digest this replay produced.
        got: u64,
    },
    /// Two configuration cells disagreed.
    Diverged(Divergence, MatrixOutcome),
    /// The pipeline rejected the design or a checkpoint failed.
    Error(ConformError),
}

/// Replays one case through the full matrix.
pub fn replay(case: &Case, fault: Option<TestFault>) -> CaseVerdict {
    let design = case.design();
    match run_matrix(&design, fault) {
        Err(e) => CaseVerdict::Error(e),
        Ok(out) => match &out.divergence {
            Some(d) => {
                let d = d.clone();
                CaseVerdict::Diverged(d, out)
            }
            None => {
                let got = out.digest();
                match case.digest {
                    Some(want) if want != got => CaseVerdict::DigestDrift { want, got },
                    _ => CaseVerdict::Pass { digest: got },
                }
            }
        },
    }
}
