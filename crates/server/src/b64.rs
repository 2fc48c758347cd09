//! Standard base64 (RFC 4648, with padding), hand-rolled: session
//! snapshots are binary, the protocol frames are JSON text, and the
//! workspace is hermetic — no external codec crates.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The sextet of each byte of [`ALPHABET`]; [`INVALID`] for every other
/// byte, `=` included.
const SEXTET: [u8; 256] = {
    let mut t = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        t[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// A [`SEXTET`] entry outside the alphabet.
const INVALID: u8 = 0xff;

/// Encodes `bytes` as padded base64 text, a 3-byte group at a time.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let digit = |n: u32, shift: u32| ALPHABET[(n >> shift) as usize & 0x3f];
    let mut groups = bytes.chunks_exact(3);
    for g in &mut groups {
        let n = (u32::from(g[0]) << 16) | (u32::from(g[1]) << 8) | u32::from(g[2]);
        out.extend_from_slice(&[digit(n, 18), digit(n, 12), digit(n, 6), digit(n, 0)]);
    }
    match *groups.remainder() {
        [a] => {
            let n = u32::from(a) << 16;
            out.extend_from_slice(&[digit(n, 18), digit(n, 12), b'=', b'=']);
        }
        [a, b] => {
            let n = (u32::from(a) << 16) | (u32::from(b) << 8);
            out.extend_from_slice(&[digit(n, 18), digit(n, 12), digit(n, 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// Decodes padded base64 text, a 4-byte group at a time.
///
/// # Errors
///
/// A diagnostic string for any malformed input (bad length, characters
/// outside the alphabet, padding in the wrong place); never panics.
pub fn decode(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    let (body, last) = bytes.split_at(bytes.len().saturating_sub(4));
    for group in body.chunks_exact(4) {
        let n = group_value(group)?;
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    if !last.is_empty() {
        let pad = last.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 {
            return Err("too much base64 padding".to_string());
        }
        // Padding reads as `A`, the zero sextet.
        let mut group = [b'A'; 4];
        group[..4 - pad].copy_from_slice(&last[..4 - pad]);
        let n = group_value(&group)?;
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8][..3 - pad]);
    }
    Ok(out)
}

/// The 24 bits of one 4-byte group without padding.
fn group_value(group: &[u8]) -> Result<u32, String> {
    let s = [group[0], group[1], group[2], group[3]].map(|c| u32::from(SEXTET[usize::from(c)]));
    if (s[0] | s[1] | s[2] | s[3]) > 0x3f {
        return Err(group_error(group));
    }
    Ok((s[0] << 18) | (s[1] << 12) | (s[2] << 6) | s[3])
}

/// The diagnostic for a group that holds a byte outside the alphabet: a
/// `=` before the final padding, or else the first such byte.
#[cold]
fn group_error(group: &[u8]) -> String {
    if group.contains(&b'=') {
        return "base64 padding inside data".to_string();
    }
    let c = group.iter().find(|&&c| SEXTET[usize::from(c)] == INVALID);
    format!("invalid base64 byte 0x{:02x}", c.copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_harness::{check_eq, forall, Config};

    #[test]
    fn round_trips() {
        for len in 0..64usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let text = encode(&data);
            assert_eq!(decode(&text).unwrap(), data, "len {len}");
            assert_eq!(text.len() % 4, 0);
        }
        assert_eq!(
            encode(b"any carnal pleasure."),
            "YW55IGNhcm5hbCBwbGVhc3VyZS4="
        );
        assert_eq!(decode("TWFu").unwrap(), b"Man");
    }

    #[test]
    fn malformed_inputs_are_diagnostics() {
        assert!(decode("abc").is_err(), "bad length");
        assert!(decode("ab=c").is_err(), "padding inside data");
        assert!(decode("a\nbc").is_err(), "character outside alphabet");
        assert!(decode("====").is_err(), "all padding");
        assert!(decode("").unwrap().is_empty());
    }

    /// The decoder as it was before groups went through [`SEXTET`]: a
    /// `match` per character. The corruption property holds the decoder
    /// to it, diagnostics included.
    fn reference_decode(text: &str) -> Result<Vec<u8>, String> {
        let bytes = text.as_bytes();
        if !bytes.len().is_multiple_of(4) {
            return Err(format!(
                "base64 length {} is not a multiple of 4",
                bytes.len()
            ));
        }
        fn val(c: u8) -> Result<u32, String> {
            match c {
                b'A'..=b'Z' => Ok(u32::from(c - b'A')),
                b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
                b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
                b'+' => Ok(62),
                b'/' => Ok(63),
                _ => Err(format!("invalid base64 byte 0x{c:02x}")),
            }
        }
        let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
        for (i, chunk) in bytes.chunks(4).enumerate() {
            let last = (i + 1) * 4 == bytes.len();
            let pad = if last {
                chunk.iter().rev().take_while(|&&c| c == b'=').count()
            } else {
                0
            };
            if pad > 2 {
                return Err("too much base64 padding".to_string());
            }
            if chunk[..4 - pad].contains(&b'=') {
                return Err("base64 padding inside data".to_string());
            }
            let mut n = 0u32;
            for &c in &chunk[..4 - pad] {
                n = (n << 6) | val(c)?;
            }
            n <<= 6 * pad as u32;
            let full = [(n >> 16) as u8, (n >> 8) as u8, n as u8];
            out.extend_from_slice(&full[..3 - pad]);
        }
        Ok(out)
    }

    #[test]
    fn every_length_round_trips() {
        for len in 0..=300usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 151 + len) as u8).collect();
            let text = encode(&data);
            assert_eq!(text.len(), len.div_ceil(3) * 4, "len {len}");
            assert_eq!(decode(&text).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn corrupted_text_decodes_as_the_reference_decoder_does() {
        forall!(
            Config::new("b64::corrupted_text_decodes_as_the_reference_decoder_does").cases(512),
            |s| {
                let data = s.vec(0, 40, |s| s.u64_in(0, 255) as u8);
                let mut text = encode(&data).into_bytes();
                if !text.is_empty() {
                    // One byte replaced by an ASCII byte, or by `µ`, a
                    // two-byte character.
                    let at = s.usize_in(0, text.len() - 1);
                    if s.u64_in(0, 15) == 0 {
                        text.splice(at..=at, "µ".bytes());
                    } else {
                        text[at] = if s.bool() {
                            *s.pick(b"=A/+z9\0\n -_.")
                        } else {
                            s.u64_in(0, 127) as u8
                        };
                    }
                }
                let text = String::from_utf8(text).expect("ASCII or µ");
                check_eq!(decode(&text), reference_decode(&text), "{text:?}");
            }
        );
    }
}
