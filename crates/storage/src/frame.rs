//! The `len (u32) | crc32 (u32) | body` frame every log on disk is made
//! of — the WAL and the 2PC coordinator's decision log — and the one
//! scanner that reads such a log back.
//!
//! A torn or rotted frame is *detected*, never replayed as garbage, and
//! the scanner tells the two kinds of damage apart the ARIES way: a
//! damaged frame with nothing valid after it is the torn tail a crash
//! mid-append leaves (end of log, which the owner truncates); a damaged
//! frame *followed by* a valid one means the log's interior is damaged,
//! which is unrecoverable and a hard [`DbError::Corruption`].

use crate::fault::crc32;
use orion_types::{DbError, DbResult};

/// Bytes of frame overhead per record: length prefix + body CRC.
pub const FRAME_HEADER: usize = 8;

/// Append `body` as one frame.
pub fn put_frame(out: &mut Vec<u8>, body: &[u8]) {
    out.reserve(FRAME_HEADER + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// The end offset and CRC the frame header at `at` claims, if the
/// header is whole.
fn header(log: &[u8], at: usize) -> Option<(usize, u32)> {
    let (len, rest) = log.get(at..)?.split_first_chunk::<4>()?;
    let (crc, _) = rest.split_first_chunk::<4>()?;
    Some((at + FRAME_HEADER + u32::from_le_bytes(*len) as usize, u32::from_le_bytes(*crc)))
}

/// Where the frame starting at `at` ends, if its header is whole.
pub fn frame_end(log: &[u8], at: usize) -> Option<usize> {
    header(log, at).map(|(end, _)| end)
}

/// Scan `log` from its start, decoding each frame's body with `decode`.
///
/// Returns the records with their offsets, and the length of the valid
/// prefix. A frame that is torn, fails its CRC or does not decode ends
/// that prefix when nothing valid follows it: the torn tail, for the
/// caller to truncate. Followed by a valid frame it is interior damage,
/// and the scan fails with [`DbError::Corruption`].
pub fn scan<T>(
    log: &[u8],
    decode: impl Fn(&[u8]) -> DbResult<T>,
) -> DbResult<(Vec<(usize, T)>, usize)> {
    let read = |at: usize| {
        let (end, crc) = header(log, at)?;
        let body = log.get(at + FRAME_HEADER..end).filter(|body| crc32(body) == crc)?;
        Some((decode(body).ok()?, end))
    };
    let mut records = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let Some((rec, end)) = read(at) else {
            // Damaged. Tail or interior? Framing past it, as long as the
            // length fields hold, tells.
            let mut cursor = at;
            while let Some(next) = frame_end(log, cursor).filter(|&end| end <= log.len()) {
                if cursor > at && read(cursor).is_some() {
                    return Err(DbError::Corruption(format!(
                        "log record at offset {at} is corrupt but later records are intact: \
                         log interior damaged"
                    )));
                }
                cursor = next;
            }
            return Ok((records, at));
        };
        records.push((at, rec));
        at = end;
    }
    Ok((records, at))
}
