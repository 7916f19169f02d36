//! Frame extraction and whole-frame writes.
//!
//! [`FrameBuf`] is the incremental reassembly buffer of the server and of
//! [`Pipe`](crate::Pipe): bytes arrive in arbitrary chunks, and
//! [`FrameBuf::next_frame`] hands back complete frame bodies without
//! copying them out. [`write_frame`] writes whole frames: the replica
//! sink's HELLO and ACKs.

use std::io::{self, Write};

use crate::{WireError, MAX_FRAME};

/// Incremental frame reassembly over a byte stream.
///
/// Consumed bytes are compacted away lazily so steady-state operation
/// reuses one allocation.
///
/// An **oversized** frame (a well-formed header declaring more than
/// [`MAX_FRAME`] bytes) is reported once as [`WireError::TooLarge`] and
/// then *skipped*: the declared bytes are discarded as they arrive — never
/// buffered — and extraction resynchronizes at the next frame boundary.
/// The connection survives; only a structurally corrupt header (length 0)
/// is unrecoverable.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    /// Bytes of an oversized frame body still to be discarded.
    skip: usize,
}

impl FrameBuf {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-consumed bytes.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact(&mut self) {
        // Only pay the memmove once the dead prefix dominates.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Extracts the next complete frame body, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    /// [`WireError::TooLarge`] is returned *once* per oversized frame and
    /// is recoverable: the frame's declared bytes are discarded and
    /// subsequent calls resume at the next frame boundary.
    /// [`WireError::Malformed`] (length 0) is unrecoverable — there is no
    /// way to resynchronize a corrupt length prefix.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        if self.skip > 0 {
            self.discard_skipped();
            if self.skip > 0 {
                return Ok(None);
            }
        }
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len == 0 {
            return Err(WireError::Malformed("zero-length frame"));
        }
        if len > MAX_FRAME {
            // Consume the header, arm skip mode for the declared body, and
            // report the violation exactly once. The body is discarded as
            // it arrives, so an oversized frame costs no buffering.
            self.start += 4;
            self.skip = len;
            self.discard_skipped();
            return Err(WireError::TooLarge);
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body_start = self.start + 4;
        self.start = body_start + len;
        Ok(Some(&self.buf[body_start..body_start + len]))
    }

    /// Whether [`FrameBuf::next_frame`] would return something other than
    /// `Ok(None)`: a whole frame, or a header it rejects.
    pub(crate) fn ready(&self) -> bool {
        let Some(avail) = self.buf[self.start..].get(self.skip..) else {
            return false;
        };
        match avail.get(..4) {
            Some(header) => {
                let len = u32::from_le_bytes(header.try_into().unwrap()) as usize;
                len == 0 || len > MAX_FRAME || avail.len() >= 4 + len
            }
            None => false,
        }
    }

    fn discard_skipped(&mut self) {
        let eat = (self.buf.len() - self.start).min(self.skip);
        self.start += eat;
        self.skip -= eat;
        self.compact();
    }
}

/// Writes one already-encoded frame (or batch of frames) and flushes.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_request_any, encode_request_v2, Request};

    fn decode(body: &[u8]) -> Request<'_> {
        decode_request_any(body).unwrap().req
    }

    #[test]
    fn reassembles_across_arbitrary_chunking() {
        let mut wire = Vec::new();
        encode_request_v2(&Request::Get { key: b"chunky" }, None, &mut wire);
        encode_request_v2(&Request::Scan { limit: 5 }, None, &mut wire);
        // Feed one byte at a time.
        let mut fb = FrameBuf::new();
        let mut seen = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(body) = fb.next_frame().unwrap() {
                seen.push(body.to_vec());
            }
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(decode(&seen[0]), Request::Get { key: b"chunky" });
        assert_eq!(decode(&seen[1]), Request::Scan { limit: 5 });
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn rejects_corrupt_headers() {
        let mut fb = FrameBuf::new();
        fb.extend(&[0, 0, 0, 0]);
        assert_eq!(
            fb.next_frame(),
            Err(WireError::Malformed("zero-length frame"))
        );
        let mut fb = FrameBuf::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert_eq!(fb.next_frame(), Err(WireError::TooLarge));
    }

    #[test]
    fn oversized_frame_resynchronizes_at_next_boundary() {
        // A valid frame, then an oversized one (header + declared body),
        // then another valid frame, fed one byte at a time. The oversized
        // frame must surface TooLarge exactly once, its body must be
        // discarded as it arrives (never buffered), and both valid frames
        // must decode.
        let mut before = Vec::new();
        encode_request_v2(&Request::Get { key: b"before" }, None, &mut before);
        let oversized_len = (MAX_FRAME + 3) as u32;
        let mut wire = before.clone();
        wire.extend_from_slice(&oversized_len.to_le_bytes());
        wire.resize(wire.len() + oversized_len as usize, 0xAB);
        let after_start = wire.len();
        encode_request_v2(&Request::Scan { limit: 9 }, None, &mut wire);

        let mut fb = FrameBuf::new();
        let mut seen = Vec::new();
        let mut too_large = 0;
        for (i, &b) in wire.iter().enumerate() {
            fb.extend(&[b]);
            loop {
                match fb.next_frame() {
                    Ok(Some(body)) => seen.push(body.to_vec()),
                    Ok(None) => break,
                    Err(WireError::TooLarge) => too_large += 1,
                    Err(e) => panic!("unexpected error {e:?} at byte {i}"),
                }
            }
            // The oversized body must be discarded incrementally, never
            // accumulated: pending stays bounded by one small frame.
            assert!(fb.pending() <= 64, "buffered {} bytes", fb.pending());
            if i >= after_start {
                assert_eq!(too_large, 1, "TooLarge must fire before resync");
            }
        }
        assert_eq!(too_large, 1, "TooLarge must surface exactly once");
        assert_eq!(seen.len(), 2);
        assert_eq!(decode(&seen[0]), Request::Get { key: b"before" });
        assert_eq!(decode(&seen[1]), Request::Scan { limit: 9 });
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn oversized_skip_survives_chunked_delivery() {
        // Same scenario with coarse chunks, including chunks that span the
        // oversized body's end and the next frame's header.
        let mut wire = Vec::new();
        encode_request_v2(
            &Request::Set {
                key: b"k",
                value: 1,
                ttl: 0,
            },
            None,
            &mut wire,
        );
        let oversized_len = (MAX_FRAME + 1000) as u32;
        wire.extend_from_slice(&oversized_len.to_le_bytes());
        wire.resize(wire.len() + oversized_len as usize, 0xCD);
        encode_request_v2(&Request::Del { key: b"k" }, None, &mut wire);

        let mut fb = FrameBuf::new();
        let mut seen = Vec::new();
        let mut too_large = 0;
        for chunk in wire.chunks(striding_prime()) {
            fb.extend(chunk);
            loop {
                match fb.next_frame() {
                    Ok(Some(body)) => seen.push(body.to_vec()),
                    Ok(None) => break,
                    Err(WireError::TooLarge) => too_large += 1,
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
        }
        assert_eq!(too_large, 1);
        assert_eq!(seen.len(), 2);
        assert!(matches!(decode(&seen[1]), Request::Del { .. }));
    }

    fn striding_prime() -> usize {
        // A chunk size coprime to the frame sizes involved so chunk
        // boundaries drift across header/body boundaries.
        977
    }

    #[test]
    fn compaction_preserves_partial_frames() {
        let mut wire = Vec::new();
        for i in 0..200u64 {
            encode_request_v2(
                &Request::Set {
                    key: b"somewhat-long-key-for-compaction",
                    value: i,
                    ttl: 0,
                },
                None,
                &mut wire,
            );
        }
        let mut fb = FrameBuf::new();
        let mut count = 0;
        // Feed in 7-byte chunks so frames straddle every boundary and the
        // >4096-byte compaction threshold is crossed repeatedly.
        for chunk in wire.chunks(7) {
            fb.extend(chunk);
            while let Some(body) = fb.next_frame().unwrap() {
                assert!(matches!(decode(body), Request::Set { .. }));
                count += 1;
            }
        }
        assert_eq!(count, 200);
    }
}
