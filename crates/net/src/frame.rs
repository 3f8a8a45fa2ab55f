//! Length-prefixed framing over a byte stream.
//!
//! Every message on the wire is one frame: a 4-byte little-endian
//! payload length followed by the payload (whose first byte is the
//! message tag, see [`crate::wire`]). The frame layer enforces a
//! maximum payload size on both ends — a malformed or hostile peer can
//! cost at most `max_frame` bytes of buffering, never an unbounded
//! allocation.
//!
//! [`append_frame`] is the one encoder and [`FrameDecoder`] the one
//! decoder, used by the server's event loop and by the client's
//! per-connection read buffer alike: bytes are fed in as a read returns
//! them, and complete frames are popped out, however the peer happened
//! to fragment or coalesce them on the wire (both ends routinely pack
//! many pipelined frames into one segment).

use orion_types::{DbError, DbResult};
use std::io::Read;

/// Default maximum frame payload (16 MiB) — large enough for any
/// realistic query result, small enough to bound per-connection memory.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Append one frame to an in-memory buffer (the server's write path:
/// frames accumulate here and drain to the socket as it accepts them).
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Incremental frame decoder for nonblocking reads: [`feed`] appends
/// whatever the socket produced, [`next`] pops complete frames until
/// it returns `None` (more bytes needed). The internal buffer holds at
/// most one partial frame plus whatever complete frames have not been
/// popped yet; consumed bytes are compacted away so a long-lived
/// connection does not accrete memory.
///
/// [`feed`]: FrameDecoder::feed
/// [`next`]: FrameDecoder::next
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame: usize,
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// A decoder enforcing `max_frame` on every payload length.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder { max_frame, buf: Vec::new(), pos: 0 }
    }

    /// Append bytes read from the wire.
    pub fn feed(&mut self, data: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(data);
    }

    /// One `read` from `r`, straight into the buffer (no intermediate
    /// chunk to keep or copy from). It reads into the buffer's spare
    /// capacity: 4 KiB for a connection that only sees small frames,
    /// more as large ones make the buffer grow. Returns what `read`
    /// returned: the byte count, 0 at EOF.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        self.compact();
        let filled = self.buf.len();
        let room = (self.buf.capacity() - filled).clamp(4 * 1024, 64 * 1024);
        self.buf.resize(filled + room, 0);
        let read = r.read(&mut self.buf[filled..]);
        self.buf.truncate(filled + *read.as_ref().unwrap_or(&0));
        read
    }

    /// Before growing: everything before `pos` is consumed.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Pop the next complete frame payload, or `None` if the buffer
    /// holds only a partial frame (feed more and retry). A length
    /// prefix over `max_frame` is a protocol error; the connection is
    /// beyond recovery (the decoder cannot resynchronize) and must be
    /// closed.
    pub fn next_frame(&mut self) -> DbResult<Option<Vec<u8>>> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4].try_into().expect("4 bytes"),
        ) as usize;
        if len > self.max_frame {
            return Err(DbError::Protocol(format!(
                "frame of {len} bytes exceeds the {}-byte cap",
                self.max_frame
            )));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// True when a frame has started but not finished — the input for
    /// the server's mid-frame stall clock (as opposed to the idle
    /// clock, which runs when this is false).
    pub fn mid_frame(&self) -> bool {
        self.buf.len() > self.pos
    }
}

/// Map an I/O failure into the facade's error vocabulary.
pub fn io_err(context: &str, e: &std::io::Error) -> DbError {
    DbError::Net(format!("{context}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Every frame `r` holds, read through one decoder to EOF.
    fn read_all(r: &mut impl Read, max_frame: usize) -> DbResult<Vec<Vec<u8>>> {
        let mut dec = FrameDecoder::new(max_frame);
        let mut frames = Vec::new();
        loop {
            while let Some(f) = dec.next_frame()? {
                frames.push(f);
            }
            if dec.read_from(r).expect("read") == 0 {
                assert!(!dec.mid_frame(), "EOF inside a frame");
                return Ok(frames);
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"hello");
        append_frame(&mut buf, b"");
        let frames = read_all(&mut Cursor::new(buf), MAX_FRAME).unwrap();
        assert_eq!(frames, vec![b"hello".to_vec(), Vec::new()], "then clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        append_frame(&mut buf, &[0u8; 64]);
        assert!(read_all(&mut Cursor::new(buf), 63).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"hello world");
        buf.truncate(buf.len() - 3);
        let (mut r, mut dec) = (Cursor::new(buf), FrameDecoder::new(MAX_FRAME));
        while dec.read_from(&mut r).expect("read") > 0 {}
        assert_eq!(dec.next_frame().unwrap(), None, "no frame from a truncated one");
        assert!(dec.mid_frame(), "the cut is visible to the stall clock");
    }

    #[test]
    fn decoder_handles_arbitrary_fragmentation() {
        let mut wire = Vec::new();
        append_frame(&mut wire, b"alpha");
        append_frame(&mut wire, b"");
        append_frame(&mut wire, b"beta-gamma");
        // Feed one byte at a time: worst-case fragmentation.
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut frames = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().expect("decode") {
                frames.push(f);
            }
        }
        assert_eq!(frames, vec![b"alpha".to_vec(), Vec::new(), b"beta-gamma".to_vec()]);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn decoder_pops_coalesced_frames_from_one_feed() {
        let mut wire = Vec::new();
        for i in 0..100u8 {
            append_frame(&mut wire, &[i; 3]);
        }
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.feed(&wire);
        let mut n = 0u8;
        while let Some(f) = dec.next_frame().expect("decode") {
            assert_eq!(f, vec![n; 3]);
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn decoder_reads_straight_from_a_stream() {
        let mut wire = Vec::new();
        append_frame(&mut wire, b"alpha");
        append_frame(&mut wire, &[7u8; 40_000]); // spans several reads
        let mut r = Cursor::new(wire);
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut frames = Vec::new();
        while dec.read_from(&mut r).expect("read") > 0 {
            while let Some(f) = dec.next_frame().expect("decode") {
                frames.push(f);
            }
        }
        assert_eq!(frames, vec![b"alpha".to_vec(), vec![7u8; 40_000]]);
        assert!(!dec.mid_frame(), "EOF left nothing behind");
    }

    #[test]
    fn decoder_rejects_oversized_length_prefix() {
        let mut dec = FrameDecoder::new(16);
        dec.feed(&1024u32.to_le_bytes());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_mid_frame_tracks_partial_input() {
        let mut dec = FrameDecoder::new(MAX_FRAME);
        assert!(!dec.mid_frame());
        dec.feed(&[5, 0]);
        assert!(dec.mid_frame(), "half a header is mid-frame");
        dec.feed(&[0, 0, b'a', b'b', b'c']);
        assert!(dec.next_frame().expect("decode").is_none(), "payload incomplete");
        dec.feed(b"de");
        assert_eq!(dec.next_frame().expect("decode").unwrap(), b"abcde");
        assert!(!dec.mid_frame());
    }
}
