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
    // One read asks for the whole header; `read_exact` fetches what it
    // did not deliver (nothing, in the usual case).
    let mut head = [0u8; 4];
    let got = loop {
        match r.read(&mut head) {
            Ok(0) => return Ok(FrameRead::Eof),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(FrameRead::Idle)
            }
            Err(e) => return Err(e),
        }
    };
    r.read_exact(&mut head[got..])?;
    let len = u32::from_be_bytes(head) as usize;
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

    /// Yields at most `chunk` bytes per call, then, once `data` is spent,
    /// a timeout (a socket with a read timeout) or end of stream.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
        time_out: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.data.is_empty() && self.time_out {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.chunk).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_byte_at_a_time_still_reads_whole_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"stats\"}").unwrap();
        write_frame(&mut buf, "second µ frame").unwrap();
        let mut r = Trickle {
            data: &buf,
            chunk: 1,
            time_out: false,
        };
        for want in ["{\"op\":\"stats\"}", "second µ frame"] {
            match read_frame(&mut r).unwrap() {
                FrameRead::Frame(t) => assert_eq!(t, want),
                _ => panic!("expected a frame"),
            }
        }
        assert!(matches!(read_frame(&mut r).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn a_timeout_inside_the_header_is_an_error_not_idle() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "complete").unwrap();
        let mut r = Trickle {
            data: &buf[..2],
            chunk: 4,
            time_out: true,
        };
        assert!(read_frame(&mut r).is_err());
        // Before the first header byte, the same timeout is `Idle`.
        assert!(matches!(read_frame(&mut r).unwrap(), FrameRead::Idle));
    }
}
