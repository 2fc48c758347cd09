//! The wire framing of `vhdld`: a 4-byte big-endian length prefix
//! followed by that many bytes of UTF-8 JSON.
//!
//! The length-prefix form (rather than newline-delimited JSON) keeps the
//! protocol 8-bit clean — VIF text and VCD dumps travel inside frames —
//! and makes overload rejection cheap: a frame whose advertised length
//! exceeds [`MAX_FRAME`] is refused before any payload is read.

use std::io::{self, Read, Write};

/// Upper bound on one frame's payload (16 MiB). Larger advertisements are
/// protocol errors, not allocations.
pub const MAX_FRAME: usize = 16 << 20;

/// Outcome of one framed read.
pub enum FrameRead {
    /// A complete frame.
    Frame(String),
    /// Clean end of stream before any header byte.
    Eof,
    /// The read timed out before any header byte arrived (the connection
    /// is idle; the caller polls its shutdown flag and retries).
    Idle,
}

/// Reads one frame. A timeout is only tolerated *before* the first header
/// byte — once a frame has started, a stall is a protocol error (frames
/// are written whole, so the remainder must already be in flight).
///
/// # Errors
///
/// I/O errors, oversized frames, non-UTF-8 payloads, mid-frame stalls.
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameRead> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(FrameRead::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(FrameRead::Idle)
            }
            Err(e) => return Err(e),
        }
    }
    let mut rest = [0u8; 3];
    r.read_exact(&mut rest)?;
    let len = u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    Ok(FrameRead::Frame(text))
}

/// Writes one frame and flushes.
///
/// # Errors
///
/// I/O errors; payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, text: &str) -> io::Result<()> {
    if text.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds the size limit",
        ));
    }
    // One gathered write: a separate header write would leave the
    // payload write behind Nagle's algorithm waiting on a delayed ACK
    // (~40ms per response on loopback TCP).
    let mut frame = Vec::with_capacity(4 + text.len());
    frame.extend_from_slice(&(text.len() as u32).to_be_bytes());
    frame.extend_from_slice(text.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"stats\"}").unwrap();
        write_frame(&mut buf, "second µ frame").unwrap();
        let mut r = &buf[..];
        let f1 = match read_frame(&mut r).unwrap() {
            FrameRead::Frame(t) => t,
            _ => panic!("expected frame"),
        };
        assert_eq!(f1, "{\"op\":\"stats\"}");
        let f2 = match read_frame(&mut r).unwrap() {
            FrameRead::Frame(t) => t,
            _ => panic!("expected frame"),
        };
        assert_eq!(f2, "second µ frame");
        assert!(matches!(read_frame(&mut r).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn oversized_header_is_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"whatever");
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "complete").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
