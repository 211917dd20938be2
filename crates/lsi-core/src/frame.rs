//! Bounded, CRC-framed byte envelopes — the one framing codec behind the
//! write-ahead journal's disk records and the shard RPC transport's wire
//! messages.
//!
//! Every journal record (`lsi_core::journal`) and every RPC message
//! (`lsi-serve`) is one frame of
//!
//! ```text
//! | len: u32 le | payload: len bytes | crc: u32 le |
//! ```
//!
//! where the CRC-32 covers the length prefix *and* the payload, so neither
//! a flipped length byte nor flipped payload bytes can pass. Decoding is
//! incremental ([`scan_frame`] over an accumulation buffer) so a reader
//! can interleave bounded socket reads with frame scans without ever
//! trusting a declared length: a length prefix above [`MAX_FRAME`] is
//! rejected *before* any allocation, and scanning itself allocates
//! nothing (a complete frame's payload is borrowed from the buffer).
//!
//! # Examples
//!
//! ```
//! use lsi_core::frame::{encode_frame, scan_frame, FrameScan};
//!
//! let wire = encode_frame(b"hello");
//! match scan_frame(&wire).unwrap() {
//!     FrameScan::Complete { payload, consumed } => {
//!         assert_eq!(payload, b"hello");
//!         assert_eq!(consumed, wire.len());
//!     }
//!     FrameScan::Incomplete => unreachable!("whole frame present"),
//! }
//! // A prefix of the wire bytes is merely incomplete, never an error.
//! assert!(matches!(
//!     scan_frame(&wire[..3]).unwrap(),
//!     FrameScan::Incomplete
//! ));
//! ```

use crate::storage::Crc32;

/// Upper bound on one frame payload (a journal record body or an RPC
/// message), rejected before any allocation so a corrupt or hostile length
/// prefix cannot drive memory use.
pub const MAX_FRAME: usize = 1 << 24;

/// Frame-level overhead: the `u32` length prefix plus the `u32` CRC
/// trailer.
pub const FRAME_OVERHEAD: usize = 8;

/// Why a byte sequence is not a valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix declares a payload above [`MAX_FRAME`].
    TooLarge {
        /// The declared payload length.
        len: usize,
        /// The enforced maximum ([`MAX_FRAME`]).
        max: usize,
    },
    /// The CRC-32 trailer does not match the length prefix + payload.
    ChecksumMismatch {
        /// CRC stored in the frame trailer.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload length {len} exceeds the {max}-byte cap")
            }
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Outcome of scanning an accumulation buffer for one complete frame.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameScan<'a> {
    /// A complete, checksum-valid frame sat at the front of the buffer.
    Complete {
        /// The frame's payload bytes, borrowed from the scanned buffer.
        payload: &'a [u8],
        /// Total bytes the frame occupied (drain this many from the
        /// buffer before scanning for the next frame).
        consumed: usize,
    },
    /// The buffer holds only a prefix of a frame; read more bytes and
    /// scan again.
    Incomplete,
}

/// Wraps `payload` in a complete frame: length prefix, payload, CRC-32
/// trailer over both.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME`] bytes — callers own the
/// encode side and must keep messages bounded.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME,
        "frame payload of {} bytes exceeds MAX_FRAME",
        payload.len()
    );
    let len = payload.len() as u32;
    let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    let mut crc = Crc32::new();
    crc.update(&len.to_le_bytes());
    crc.update(payload);
    frame.extend_from_slice(&crc.finalize().to_le_bytes());
    frame
}

/// The payload length declared by the frame at the front of `buf`, once
/// its whole length prefix is present. Unchecked: [`scan_frame`] bounds it
/// against [`MAX_FRAME`] before trusting it.
pub(crate) fn declared_len(buf: &[u8]) -> Option<usize> {
    let prefix: [u8; 4] = buf.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(prefix) as usize)
}

/// Scans the front of `buf` for one complete frame.
///
/// Returns [`FrameScan::Incomplete`] while the buffer holds only a frame
/// prefix, the payload (borrowed, never copied) once the whole frame is
/// present and its checksum holds, or a typed
/// [`FrameError`] when the bytes can never become a valid frame (length
/// above [`MAX_FRAME`], or a checksum mismatch).
///
/// # Errors
/// [`FrameError::TooLarge`] for an over-cap length prefix;
/// [`FrameError::ChecksumMismatch`] when the CRC trailer disagrees with
/// the received length prefix + payload.
pub fn scan_frame(buf: &[u8]) -> Result<FrameScan<'_>, FrameError> {
    let Some(len) = declared_len(buf) else {
        return Ok(FrameScan::Incomplete);
    };
    // Bound the declared length before any allocation or arithmetic that
    // depends on it (the S2 discipline: never trust wire lengths).
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    let total = len + FRAME_OVERHEAD;
    if buf.len() < total {
        return Ok(FrameScan::Incomplete);
    }
    let payload = &buf[4..4 + len];
    let stored = u32::from_le_bytes([
        buf[4 + len],
        buf[4 + len + 1],
        buf[4 + len + 2],
        buf[4 + len + 3],
    ]);
    let mut crc = Crc32::new();
    crc.update(&buf[0..4]);
    crc.update(payload);
    let computed = crc.finalize();
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    Ok(FrameScan::Complete {
        payload,
        consumed: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_consumed_length() {
        for payload in [&b""[..], b"x", b"a longer payload with bytes \x00\xff"] {
            let wire = encode_frame(payload);
            assert_eq!(wire.len(), payload.len() + FRAME_OVERHEAD);
            match scan_frame(&wire).unwrap() {
                FrameScan::Complete {
                    payload: got,
                    consumed,
                } => {
                    assert_eq!(got, payload);
                    assert_eq!(consumed, wire.len());
                }
                FrameScan::Incomplete => panic!("complete frame reported incomplete"),
            }
        }
    }

    #[test]
    fn every_strict_prefix_is_incomplete() {
        let wire = encode_frame(b"prefix-sweep");
        for cut in 0..wire.len() {
            assert_eq!(
                scan_frame(&wire[..cut]).unwrap(),
                FrameScan::Incomplete,
                "prefix of {cut} bytes must be incomplete"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_left_for_the_next_scan() {
        let mut wire = encode_frame(b"one");
        let second = encode_frame(b"two");
        wire.extend_from_slice(&second);
        let FrameScan::Complete { payload, consumed } = scan_frame(&wire).unwrap() else {
            panic!("first frame complete");
        };
        assert_eq!(payload, b"one");
        let FrameScan::Complete { payload, .. } = scan_frame(&wire[consumed..]).unwrap() else {
            panic!("second frame complete");
        };
        assert_eq!(payload, b"two");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = encode_frame(b"ok");
        wire[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            scan_frame(&wire),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let wire = encode_frame(b"flip-sweep payload");
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x01;
            match scan_frame(&bad) {
                Ok(FrameScan::Complete { payload, .. }) => {
                    panic!("flip at {i} decoded as {payload:?}")
                }
                // A flip in the length prefix can shrink/grow the frame:
                // incomplete and too-large are honest outcomes; a checksum
                // mismatch is the usual one.
                Ok(FrameScan::Incomplete) | Err(_) => {}
            }
        }
    }
}
