//! VHDL I/O: the report sink and VCD waveform dump (§2.1's "VHDL I/O"
//! module, adapted to a simulator without a host filesystem contract).

use std::fmt::Write as _;

use crate::isa::SigId;
use crate::value::{Time, Val};

/// Accumulates value changes into VCD (Value Change Dump) text.
///
/// # Example
///
/// ```
/// use sim_kernel::io::Vcd;
/// let mut vcd = Vcd::new("1fs");
/// vcd.change(sim_kernel::value::Time::ZERO, sim_kernel::isa::SigId(0), "top.clk",
///            &sim_kernel::value::Val::Int(1));
/// let text = vcd.finish();
/// assert!(text.contains("$var"));
/// assert!(text.contains("#0"));
/// ```
pub struct Vcd {
    timescale: String,
    /// Each signal's position in `vars`, indexed by `SigId` (`u32::MAX`:
    /// no change seen yet).
    slots: Vec<u32>,
    /// Identifier code and name of each signal, in first-change order.
    vars: Vec<(String, String)>,
    body: String,
    last_time: Option<Time>,
}

/// No `vars` entry yet.
const NO_SLOT: u32 = u32::MAX;

/// The identifier code of the `n`th signal: bijective base 94 over the
/// printable ASCII characters `!` to `~`, least significant digit first,
/// so the first 94 signals get one character each and every code is
/// distinct.
fn code(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push(char::from(b'!' + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            return s;
        }
        n -= 1;
    }
}

impl Vcd {
    /// Creates a writer with the given timescale string (e.g. `"1fs"`).
    pub fn new(timescale: &str) -> Vcd {
        Vcd {
            timescale: timescale.to_string(),
            slots: Vec::new(),
            vars: Vec::new(),
            body: String::new(),
            last_time: None,
        }
    }

    /// Records a value change.
    pub fn change(&mut self, t: Time, sig: SigId, name: &str, v: &Val) {
        let si = sig.0 as usize;
        if si >= self.slots.len() {
            self.slots.resize(si + 1, NO_SLOT);
        }
        if self.slots[si] == NO_SLOT {
            self.slots[si] = self.vars.len() as u32;
            self.vars.push((code(self.vars.len()), name.to_string()));
        }
        let code = &self.vars[self.slots[si] as usize].0;
        if self.last_time != Some(t) {
            let _ = writeln!(self.body, "#{}", t.fs);
            self.last_time = Some(t);
        }
        // Values are written byte by byte: this runs once per signal
        // event, and the formatting machinery would cost more than the
        // rest of the call.
        let body = &mut self.body;
        match v {
            Val::Int(i @ (0 | 1)) => body.push(if *i == 1 { '1' } else { '0' }),
            Val::Int(i) => {
                let n = i.unsigned_abs();
                body.push('b');
                for bit in (0..u64::BITS - n.leading_zeros()).rev() {
                    body.push(if n >> bit & 1 == 1 { '1' } else { '0' });
                }
                body.push(' ');
            }
            Val::Real(r) => {
                let _ = write!(body, "r{r} ");
            }
            Val::Arr(a) => {
                body.push('b');
                for e in a.data.iter() {
                    body.push(if e.as_int() != 0 { '1' } else { '0' });
                }
                body.push(' ');
            }
            Val::Rec(_) => body.push_str("bx "),
        }
        body.push_str(code);
        body.push('\n');
    }

    /// Serializes the writer's full state (signal table, body, time
    /// cursor) into a snapshot encoder, so a checkpointed session's
    /// waveform continues byte-identically after restore. Codes are not
    /// stored: they follow from first-change order.
    pub fn encode(&self, e: &mut crate::snapshot::Enc) {
        e.str(&self.timescale);
        e.len(self.vars.len());
        for (_, name) in &self.vars {
            e.str(name);
        }
        e.len(self.slots.len());
        for &slot in &self.slots {
            e.u32(slot);
        }
        e.str(&self.body);
        match self.last_time {
            None => e.u8(0),
            Some(t) => {
                e.u8(1);
                e.u64(t.fs);
                e.u32(t.delta);
            }
        }
    }

    /// Rebuilds a writer from [`Vcd::encode`]'s output. Both tables are
    /// bounded by the entries actually present in the input, so hostile
    /// bytes cannot force a large allocation.
    ///
    /// # Errors
    ///
    /// Any [`crate::snapshot::SnapshotError`]; hostile bytes never panic.
    pub fn decode(d: &mut crate::snapshot::Dec<'_>) -> Result<Vcd, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let timescale = d.str()?;
        let n = d.len(4)?;
        let mut vars = Vec::with_capacity(n);
        for k in 0..n {
            vars.push((code(k), d.str()?));
        }
        let n_slots = d.len(4)?;
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let slot = d.u32()?;
            if slot != NO_SLOT && slot as usize >= n {
                return Err(SnapshotError::Corrupt(format!("VCD slot {slot} of {n}")));
            }
            slots.push(slot);
        }
        let body = d.str()?;
        let last_time = match d.u8()? {
            0 => None,
            1 => {
                let fs = d.u64()?;
                let delta = d.u32()?;
                Some(Time { fs, delta })
            }
            t => return Err(SnapshotError::Corrupt(format!("bad last-time tag {t}"))),
        };
        Ok(Vcd {
            timescale,
            slots,
            vars,
            body,
            last_time,
        })
    }

    /// Renders the complete VCD file.
    pub fn finish(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$timescale {} $end", self.timescale);
        for (code, name) in &self.vars {
            let _ = writeln!(out, "$var wire 1 {code} {name} $end");
        }
        let _ = writeln!(out, "$enddefinitions $end");
        out.push_str(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::VDir;

    #[test]
    fn vcd_format() {
        let mut vcd = Vcd::new("1fs");
        vcd.change(Time::ZERO, SigId(0), "clk", &Val::Int(0));
        vcd.change(Time::fs(5), SigId(0), "clk", &Val::Int(1));
        vcd.change(
            Time::fs(5),
            SigId(1),
            "bus",
            &Val::arr(1, VDir::Downto, vec![Val::Int(1), Val::Int(0)]),
        );
        let text = vcd.finish();
        assert!(text.contains("$timescale 1fs $end"));
        assert!(text.contains("$var wire 1 ! clk $end"));
        assert!(text.contains("#0\n0!"));
        assert!(text.contains("#5\n1!"));
        assert!(text.contains("b10 \""));
    }

    /// Golden test: the complete output text, byte for byte. The VCD
    /// format is consumed by external waveform viewers, so any drift in
    /// header layout, code assignment, or change encoding is a
    /// compatibility break, not a cosmetic change.
    #[test]
    fn vcd_golden_text() {
        let mut vcd = Vcd::new("1fs");
        vcd.change(Time::ZERO, SigId(0), "tb.clk", &Val::Int(0));
        vcd.change(Time::ZERO, SigId(1), "tb.count", &Val::Int(5));
        vcd.change(Time::fs(5), SigId(0), "tb.clk", &Val::Int(1));
        vcd.change(
            Time::fs(5),
            SigId(2),
            "tb.bus",
            &Val::arr(1, VDir::Downto, vec![Val::Int(1), Val::Int(0)]),
        );
        vcd.change(Time::fs(12), SigId(3), "tb.temp", &Val::Real(2.5));
        vcd.change(Time::fs(12), SigId(0), "tb.clk", &Val::Int(0));
        let golden = "\
$timescale 1fs $end
$var wire 1 ! tb.clk $end
$var wire 1 \" tb.count $end
$var wire 1 # tb.bus $end
$var wire 1 $ tb.temp $end
$enddefinitions $end
#0
0!
b101 \"
#5
1!
b10 #
#12
r2.5 $
0!
";
        assert_eq!(vcd.finish(), golden);
    }

    /// Integers other than 0 and 1 dump as the binary digits of their
    /// magnitude, as `{:b}` prints them.
    #[test]
    fn integers_dump_their_magnitude_in_binary() {
        let values = [2, 5, -1, -6, 12_345, i64::MAX, i64::MIN];
        let mut vcd = Vcd::new("1fs");
        for (t, v) in values.iter().enumerate() {
            vcd.change(Time::fs(t as u64), SigId(0), "x", &Val::Int(*v));
        }
        let text = vcd.finish();
        for v in values {
            let line = format!("b{:b} !", v.unsigned_abs());
            assert!(text.lines().any(|l| l == line), "{v}: no `{line}`");
        }
    }

    /// Past the 94 one-character codes the codes grow a character, and
    /// stay distinct and printable: 300 signals, each changed twice, get
    /// 300 distinct codes over `!`..`~`, and each signal keeps its own.
    #[test]
    fn codes_stay_distinct_and_printable_past_94_signals() {
        let mut vcd = Vcd::new("1fs");
        for round in 0..2 {
            for si in (0..300).rev() {
                vcd.change(
                    Time::fs(round),
                    SigId(si),
                    &format!("s{si}"),
                    &Val::Int(round as i64),
                );
            }
        }
        let text = vcd.finish();
        let vars: Vec<(&str, &str)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("$var wire 1 "))
            .map(|l| {
                let mut w = l.split(' ');
                (w.next().unwrap(), w.next().unwrap())
            })
            .collect();
        assert_eq!(vars.len(), 300);
        let codes: std::collections::HashSet<&str> = vars.iter().map(|(c, _)| *c).collect();
        assert_eq!(codes.len(), 300, "codes are not distinct");
        assert!(codes
            .iter()
            .all(|c| !c.is_empty() && c.bytes().all(|b| (33..=126).contains(&b))));
        assert_eq!((vars[0].0, vars[93].0, vars[94].0), ("!", "~", "!!"));
        // Signal 299 changed first and got `!`; each line of the second
        // round names the code its signal got in the first.
        assert_eq!(vars[0].1, "s299");
        for (code, name) in &vars {
            let value = format!("1{code}");
            assert!(
                text.lines().any(|l| l == value),
                "{name} lost its code {code}"
            );
        }
    }

    /// The writer round-trips through its snapshot encoding, and a table
    /// length larger than the input is refused before anything is
    /// allocated for it.
    #[test]
    fn snapshot_round_trips_and_refuses_oversized_tables() {
        use crate::snapshot::{Dec, Enc, SnapshotError};
        let mut vcd = Vcd::new("1fs");
        vcd.change(Time::ZERO, SigId(7), "tb.a", &Val::Int(1));
        vcd.change(Time::fs(3), SigId(2), "tb.b", &Val::Int(0));
        let mut e = Enc::new();
        vcd.encode(&mut e);
        let bytes = e.into_bytes();
        let mut back = Vcd::decode(&mut Dec::new(&bytes)).expect("decodes");
        back.change(Time::fs(4), SigId(7), "tb.a", &Val::Int(0));
        vcd.change(Time::fs(4), SigId(7), "tb.a", &Val::Int(0));
        assert_eq!(back.finish(), vcd.finish());

        let mut e = Enc::new();
        e.str("1fs");
        e.len(0);
        e.u32(u32::MAX); // a slot table of 4 G entries
        assert_eq!(
            Vcd::decode(&mut Dec::new(e.bytes())).err(),
            Some(SnapshotError::Truncated)
        );
        // A slot naming no entry is corrupt.
        let mut e = Enc::new();
        e.str("1fs");
        e.len(1);
        e.str("tb.a");
        e.len(2);
        e.u32(0);
        e.u32(1);
        e.str("");
        e.u8(0);
        assert!(matches!(
            Vcd::decode(&mut Dec::new(e.bytes())),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
