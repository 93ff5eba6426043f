//! The wire protocol: a small length-prefixed binary framing.
//!
//! Every frame on the wire is a little-endian `u32` payload length
//! followed by exactly that many payload bytes. Payloads are fixed
//! layouts (no varints, no optional fields) so encode/decode are a
//! handful of `to_le_bytes`/`from_le_bytes` calls into stack buffers —
//! the steady-state server writes responses without allocating.
//!
//! ## Request payload (`tag = 0x01`)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 1    | tag (`0x01`) |
//! | 1      | 1    | protocol version (`1` or `2`) |
//! | 2      | 2    | flags (`u16` LE): bit 0 = field-vector, bit 1 = no-cache |
//! | 4      | 8    | request id (`u64` LE, echoed in the response) |
//! | 12     | 8    | noise seed (`u64` LE) |
//! | 20     | 4    | deadline (`u32` LE, milliseconds; 0 = none) |
//! | 24     | 8/16 | heading truth (`f64` LE) **or** `h_x`,`h_y` (`f64` LE ×2) |
//!
//! Unknown flag bits (reserved for future versions) are rejected with a
//! typed [`ProtocolError::BadFlags`] — a v3 client talking to a v2
//! server gets a clean `BadRequest`, never a silently misread request.
//!
//! ## Response payload (`tag = 0x02`)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 1    | tag (`0x02`) |
//! | 1      | 1    | protocol version (echoes the request's) |
//! | 2      | 1    | status (`u8`, see [`Status`]) |
//! | 3      | 1    | flags: bit 0 = cache hit, bit 1 = V-I clipped, bits 2–3 = fix quality (v2+) |
//! | 4      | 8    | request id (`u64` LE) |
//! | 12     | 8    | heading (`f64` LE, degrees in `[0, 360)`) |
//! | 20     | 8    | X duty cycle (`f64` LE) |
//! | 28     | 8    | Y duty cycle (`f64` LE) |
//! | 36     | 8    | X counter output (`i64` LE) |
//! | 44     | 8    | Y counter output (`i64` LE) |
//!
//! Failure responses ([`Status::Overloaded`] and friends) carry zeros in
//! the measurement fields. [`Status::Unmeasurable`] (v2) is the one
//! exception: the fix ran but failed its health checks, and the heading
//! field carries the worker's held last-good heading (duties/counts
//! zero, quality [`FixQuality::Invalid`]).
//!
//! ## Version gating
//!
//! Version 2 added the fix-quality flag bits and `Unmeasurable`. A v1
//! request gets a v1 response: quality bits stay zero and decoders
//! infer `Good`/`Invalid` from the status alone. Status bytes are *not*
//! gated — a v1 client confronted with an `Unmeasurable` fix receives
//! the unknown status byte and fails with a typed
//! [`ProtocolError::BadStatus`] instead of trusting a held heading it
//! cannot know is held.

use fluxcomp_compass::FixQuality;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Newest protocol version spoken by this crate.
pub const WIRE_VERSION: u8 = 2;

/// Oldest protocol version still accepted.
pub const MIN_WIRE_VERSION: u8 = 1;

/// Request payload tag byte.
pub const REQUEST_TAG: u8 = 0x01;

/// Response payload tag byte.
pub const RESPONSE_TAG: u8 = 0x02;

/// Upper bound on an accepted frame payload, far above any legal frame —
/// a hostile or corrupt length prefix is rejected before any read of
/// that size is attempted.
pub const MAX_FRAME: usize = 1024;

/// Request flag: the payload carries an explicit `(h_x, h_y)` field
/// vector instead of a true heading.
pub const FLAG_FIELD_VECTOR: u16 = 1 << 0;

/// Request flag: bypass the server's fix cache (no lookup, no insert).
pub const FLAG_NO_CACHE: u16 = 1 << 1;

/// Response flag: the fix was served from the cache.
pub const RESP_FLAG_CACHE_HIT: u8 = 1 << 0;

/// Response flag: the V-I converter clipped on at least one axis.
pub const RESP_FLAG_CLIPPED: u8 = 1 << 1;

/// Bit offset of the fix-quality field in the response flags (v2+).
pub const RESP_QUALITY_SHIFT: u8 = 2;

/// Mask of the fix-quality field in the response flags (v2+):
/// `0` = Good, `1` = Degraded, `2` = Invalid.
pub const RESP_QUALITY_MASK: u8 = 0b11 << RESP_QUALITY_SHIFT;

/// Request flag bits this version understands; anything else is
/// [`ProtocolError::BadFlags`].
const REQUEST_FLAGS_KNOWN: u16 = FLAG_FIELD_VECTOR | FLAG_NO_CACHE;

const REQUEST_HEAD: usize = 24;

/// Encoded size of a heading-truth request payload.
pub const REQUEST_LEN_HEADING: usize = REQUEST_HEAD + 8;

/// Encoded size of a field-vector request payload.
pub const REQUEST_LEN_VECTOR: usize = REQUEST_HEAD + 16;

/// Encoded size of a response payload.
pub const RESPONSE_LEN: usize = 52;

/// What the client wants measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldSpec {
    /// A true platform heading in degrees; the server derives the axial
    /// fields from its configured magnetic environment.
    HeadingTruth(f64),
    /// Explicit axial fields in A/m, bypassing the earth-field model.
    FieldVector {
        /// X-axis external field (A/m).
        hx: f64,
        /// Y-axis external field (A/m).
        hy: f64,
    },
}

/// One fix request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixRequest {
    /// Client-chosen id echoed back in the response.
    pub id: u64,
    /// Noise seed for the measurement (same seed → bit-identical fix).
    pub seed: u64,
    /// Response deadline in milliseconds from arrival; 0 disables.
    pub deadline_ms: u32,
    /// Bypass the fix cache.
    pub no_cache: bool,
    /// What to measure.
    pub field: FieldSpec,
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u8)]
pub enum Status {
    /// The fix completed; measurement fields are valid.
    Ok = 0,
    /// The request queue was full; retry with backoff.
    Overloaded = 1,
    /// The request's deadline passed before the fix was computed.
    DeadlineExceeded = 2,
    /// The request frame was malformed.
    BadRequest = 3,
    /// The server is draining; no new requests are accepted.
    ShuttingDown = 4,
    /// The server's compass configuration was rejected.
    InvalidConfig = 5,
    /// The fix was computed but failed its health checks on both axes
    /// (v2): the heading field carries the worker's held last-good
    /// heading with zero confidence. Never cached, never `Ok`-flagged.
    Unmeasurable = 6,
}

impl Status {
    /// Decodes the wire byte.
    pub fn from_wire(byte: u8) -> Result<Self, ProtocolError> {
        Ok(match byte {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::DeadlineExceeded,
            3 => Status::BadRequest,
            4 => Status::ShuttingDown,
            5 => Status::InvalidConfig,
            6 => Status::Unmeasurable,
            other => return Err(ProtocolError::BadStatus { got: other }),
        })
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::DeadlineExceeded => "deadline-exceeded",
            Status::BadRequest => "bad-request",
            Status::ShuttingDown => "shutting-down",
            Status::InvalidConfig => "invalid-config",
            Status::Unmeasurable => "unmeasurable",
        };
        f.write_str(name)
    }
}

/// One fix response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixResponse {
    /// The request id this answers.
    pub id: u64,
    /// Outcome; measurement fields are zero unless [`Status::Ok`].
    pub status: Status,
    /// Served from the fix cache.
    pub cache_hit: bool,
    /// The V-I converter clipped on at least one axis.
    pub clipped: bool,
    /// Health verdict of the fix (v2 wire field; inferred from the
    /// status when decoding a v1 response).
    pub quality: FixQuality,
    /// Heading in degrees, `[0, 360)`.
    pub heading: f64,
    /// X-axis detector duty cycle.
    pub duty_x: f64,
    /// Y-axis detector duty cycle.
    pub duty_y: f64,
    /// X-axis up/down counter output.
    pub count_x: i64,
    /// Y-axis up/down counter output.
    pub count_y: i64,
}

impl FixResponse {
    /// A non-`Ok` response carrying only the status and echoed id.
    pub fn failure(id: u64, status: Status) -> Self {
        Self {
            id,
            status,
            cache_hit: false,
            clipped: false,
            quality: FixQuality::Invalid,
            heading: 0.0,
            duty_x: 0.0,
            duty_y: 0.0,
            count_x: 0,
            count_y: 0,
        }
    }
}

/// Encodes a quality as its two wire bits (shifted into place).
fn quality_bits(quality: FixQuality) -> u8 {
    let value: u8 = match quality {
        FixQuality::Good => 0,
        FixQuality::Degraded => 1,
        FixQuality::Invalid => 2,
    };
    value << RESP_QUALITY_SHIFT
}

/// Decodes the two quality bits of a v2 response flags byte.
fn quality_from_bits(flags: u8) -> Result<FixQuality, ProtocolError> {
    match (flags & RESP_QUALITY_MASK) >> RESP_QUALITY_SHIFT {
        0 => Ok(FixQuality::Good),
        1 => Ok(FixQuality::Degraded),
        2 => Ok(FixQuality::Invalid),
        _ => Err(ProtocolError::BadFlags {
            got: u16::from(flags),
        }),
    }
}

/// Decode/validation failures. Every variant closes the connection
/// after a [`Status::BadRequest`] response where one can be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// Payload shorter or longer than the fixed layout requires.
    BadLength {
        /// Bytes received.
        got: usize,
    },
    /// Unknown tag byte.
    BadTag {
        /// Byte received.
        got: u8,
    },
    /// Unsupported protocol version.
    BadVersion {
        /// Byte received.
        got: u8,
    },
    /// Unknown status byte in a response.
    BadStatus {
        /// Byte received.
        got: u8,
    },
    /// A request carried a non-finite heading or field component.
    NonFiniteField,
    /// Flag bits this version does not understand (reserved for future
    /// versions), or an invalid quality encoding.
    BadFlags {
        /// Flags received.
        got: u16,
    },
    /// The frame payload exceeds [`MAX_FRAME`] — rejected before any
    /// oversized write (whose `u32` length prefix would otherwise
    /// silently truncate and desync the stream) and before any
    /// oversized read.
    FrameTooLarge {
        /// Payload length seen.
        got: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadLength { got } => write!(f, "bad payload length {got}"),
            ProtocolError::BadTag { got } => write!(f, "bad frame tag {got:#04x}"),
            ProtocolError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            ProtocolError::BadStatus { got } => write!(f, "unknown status byte {got}"),
            ProtocolError::NonFiniteField => f.write_str("non-finite heading or field component"),
            ProtocolError::BadFlags { got } => write!(f, "unknown flag bits {got:#06x}"),
            ProtocolError::FrameTooLarge { got } => {
                write!(f, "frame length {got} exceeds maximum {MAX_FRAME}")
            }
        }
    }
}

impl Error for ProtocolError {}

impl FixRequest {
    /// Encodes the payload into `buf`, returning the payload length.
    /// `buf` must hold at least [`REQUEST_LEN_VECTOR`] bytes.
    pub fn encode_payload(&self, buf: &mut [u8]) -> usize {
        let mut flags: u16 = 0;
        if matches!(self.field, FieldSpec::FieldVector { .. }) {
            flags |= FLAG_FIELD_VECTOR;
        }
        if self.no_cache {
            flags |= FLAG_NO_CACHE;
        }
        buf[0] = REQUEST_TAG;
        buf[1] = WIRE_VERSION;
        buf[2..4].copy_from_slice(&flags.to_le_bytes());
        buf[4..12].copy_from_slice(&self.id.to_le_bytes());
        buf[12..20].copy_from_slice(&self.seed.to_le_bytes());
        buf[20..24].copy_from_slice(&self.deadline_ms.to_le_bytes());
        match self.field {
            FieldSpec::HeadingTruth(deg) => {
                buf[24..32].copy_from_slice(&deg.to_le_bytes());
                REQUEST_LEN_HEADING
            }
            FieldSpec::FieldVector { hx, hy } => {
                buf[24..32].copy_from_slice(&hx.to_le_bytes());
                buf[32..40].copy_from_slice(&hy.to_le_bytes());
                REQUEST_LEN_VECTOR
            }
        }
    }

    /// Decodes a request payload (without the length prefix).
    ///
    /// Non-finite heading/field components are rejected here so they can
    /// never reach the measurement core.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError> {
        Self::decode_versioned(payload).map(|(request, _)| request)
    }

    /// [`decode_payload`](Self::decode_payload), additionally returning
    /// the protocol version the client spoke — the server answers each
    /// request at the version it arrived in.
    pub fn decode_versioned(payload: &[u8]) -> Result<(Self, u8), ProtocolError> {
        if payload.len() < REQUEST_HEAD {
            return Err(ProtocolError::BadLength { got: payload.len() });
        }
        if payload[0] != REQUEST_TAG {
            return Err(ProtocolError::BadTag { got: payload[0] });
        }
        let version = payload[1];
        if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
            return Err(ProtocolError::BadVersion { got: version });
        }
        let flags = u16::from_le_bytes(payload[2..4].try_into().unwrap());
        if flags & !REQUEST_FLAGS_KNOWN != 0 {
            return Err(ProtocolError::BadFlags { got: flags });
        }
        let id = u64::from_le_bytes(payload[4..12].try_into().unwrap());
        let seed = u64::from_le_bytes(payload[12..20].try_into().unwrap());
        let deadline_ms = u32::from_le_bytes(payload[20..24].try_into().unwrap());
        let field = if flags & FLAG_FIELD_VECTOR != 0 {
            if payload.len() != REQUEST_LEN_VECTOR {
                return Err(ProtocolError::BadLength { got: payload.len() });
            }
            FieldSpec::FieldVector {
                hx: f64::from_le_bytes(payload[24..32].try_into().unwrap()),
                hy: f64::from_le_bytes(payload[32..40].try_into().unwrap()),
            }
        } else {
            if payload.len() != REQUEST_LEN_HEADING {
                return Err(ProtocolError::BadLength { got: payload.len() });
            }
            FieldSpec::HeadingTruth(f64::from_le_bytes(payload[24..32].try_into().unwrap()))
        };
        let finite = match field {
            FieldSpec::HeadingTruth(deg) => deg.is_finite(),
            FieldSpec::FieldVector { hx, hy } => hx.is_finite() && hy.is_finite(),
        };
        if !finite {
            return Err(ProtocolError::NonFiniteField);
        }
        Ok((
            Self {
                id,
                seed,
                deadline_ms,
                no_cache: flags & FLAG_NO_CACHE != 0,
                field,
            },
            version,
        ))
    }
}

impl FixResponse {
    /// Encodes the payload at the newest version into `buf`, returning
    /// the payload length. `buf` must hold at least [`RESPONSE_LEN`]
    /// bytes.
    pub fn encode_payload(&self, buf: &mut [u8]) -> usize {
        self.encode_payload_versioned(WIRE_VERSION, buf)
    }

    /// Encodes the payload at `version` (the version the request
    /// arrived in). Version 1 zeroes the quality bits — v1 decoders
    /// treat the flags byte as two booleans and must not see stray
    /// bits.
    pub fn encode_payload_versioned(&self, version: u8, buf: &mut [u8]) -> usize {
        let mut flags: u8 = 0;
        if self.cache_hit {
            flags |= RESP_FLAG_CACHE_HIT;
        }
        if self.clipped {
            flags |= RESP_FLAG_CLIPPED;
        }
        if version >= 2 {
            flags |= quality_bits(self.quality);
        }
        buf[0] = RESPONSE_TAG;
        buf[1] = version;
        buf[2] = self.status as u8;
        buf[3] = flags;
        buf[4..12].copy_from_slice(&self.id.to_le_bytes());
        buf[12..20].copy_from_slice(&self.heading.to_le_bytes());
        buf[20..28].copy_from_slice(&self.duty_x.to_le_bytes());
        buf[28..36].copy_from_slice(&self.duty_y.to_le_bytes());
        buf[36..44].copy_from_slice(&self.count_x.to_le_bytes());
        buf[44..52].copy_from_slice(&self.count_y.to_le_bytes());
        RESPONSE_LEN
    }

    /// Decodes a response payload (without the length prefix).
    ///
    /// Accepts any version in `MIN_WIRE_VERSION..=WIRE_VERSION`. A v1
    /// payload has no quality bits; the quality is inferred from the
    /// status (`Ok` ⇒ `Good`, anything else ⇒ `Invalid`).
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError> {
        if payload.len() != RESPONSE_LEN {
            return Err(ProtocolError::BadLength { got: payload.len() });
        }
        if payload[0] != RESPONSE_TAG {
            return Err(ProtocolError::BadTag { got: payload[0] });
        }
        let version = payload[1];
        if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
            return Err(ProtocolError::BadVersion { got: version });
        }
        let status = Status::from_wire(payload[2])?;
        let flags = payload[3];
        let quality = if version >= 2 {
            if flags & !(RESP_FLAG_CACHE_HIT | RESP_FLAG_CLIPPED | RESP_QUALITY_MASK) != 0 {
                return Err(ProtocolError::BadFlags {
                    got: u16::from(flags),
                });
            }
            quality_from_bits(flags)?
        } else {
            if flags & !(RESP_FLAG_CACHE_HIT | RESP_FLAG_CLIPPED) != 0 {
                return Err(ProtocolError::BadFlags {
                    got: u16::from(flags),
                });
            }
            if status == Status::Ok {
                FixQuality::Good
            } else {
                FixQuality::Invalid
            }
        };
        Ok(Self {
            id: u64::from_le_bytes(payload[4..12].try_into().unwrap()),
            status,
            cache_hit: flags & RESP_FLAG_CACHE_HIT != 0,
            clipped: flags & RESP_FLAG_CLIPPED != 0,
            quality,
            heading: f64::from_le_bytes(payload[12..20].try_into().unwrap()),
            duty_x: f64::from_le_bytes(payload[20..28].try_into().unwrap()),
            duty_y: f64::from_le_bytes(payload[28..36].try_into().unwrap()),
            count_x: i64::from_le_bytes(payload[36..44].try_into().unwrap()),
            count_y: i64::from_le_bytes(payload[44..52].try_into().unwrap()),
        })
    }
}

/// Writes one frame: `u32` LE length prefix followed by the payload.
///
/// A payload longer than [`MAX_FRAME`] is rejected with a typed
/// [`ProtocolError::FrameTooLarge`] (as [`io::ErrorKind::InvalidInput`])
/// **before anything is written**: an unchecked `len as u32` cast would
/// truncate the prefix for payloads over 4 GiB and, for anything over
/// `MAX_FRAME`, emit a frame every compliant reader rejects mid-stream
/// — either way desynchronising the connection.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            ProtocolError::FrameTooLarge { got: payload.len() },
        ));
    }
    let mut frame = [0u8; 4 + MAX_FRAME];
    frame[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    frame[4..4 + payload.len()].copy_from_slice(payload);
    w.write_all(&frame[..4 + payload.len()])
}

/// Writes a request as one frame.
pub fn write_request<W: Write>(w: &mut W, request: &FixRequest) -> io::Result<()> {
    let mut buf = [0u8; REQUEST_LEN_VECTOR];
    let len = request.encode_payload(&mut buf);
    write_frame(w, &buf[..len])
}

/// Writes a response as one frame (at the newest version).
pub fn write_response<W: Write>(w: &mut W, response: &FixResponse) -> io::Result<()> {
    write_response_versioned(w, response, WIRE_VERSION)
}

/// Writes a response as one frame at `version`.
pub fn write_response_versioned<W: Write>(
    w: &mut W,
    response: &FixResponse,
    version: u8,
) -> io::Result<()> {
    let mut buf = [0u8; RESPONSE_LEN];
    let len = response.encode_payload_versioned(version, &mut buf);
    write_frame(w, &buf[..len])
}

/// Outcome of reading one frame from a blocking stream.
#[derive(Debug)]
pub enum ReadFrame {
    /// A complete payload of the given length is in the buffer.
    Frame(usize),
    /// The peer closed the stream cleanly (EOF on a frame boundary).
    Eof,
}

/// Reads one length-prefixed frame into `buf`, growing it if needed.
///
/// EOF exactly on a frame boundary yields [`ReadFrame::Eof`]; EOF in the
/// middle of a frame is [`io::ErrorKind::UnexpectedEof`]. A length
/// prefix above [`MAX_FRAME`] is [`io::ErrorKind::InvalidData`].
///
/// On a stream with a read timeout, a `WouldBlock`/`TimedOut` error is
/// returned only while no byte of the frame has been consumed, so the
/// caller can simply call again. Once the first byte has arrived the
/// read keeps going through timeouts (and, always, `Interrupted`) until
/// the frame is complete: a partial frame is never dropped. Use a
/// blocking stream — on a non-blocking one the mid-frame retry spins.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<ReadFrame> {
    let mut len_bytes = [0u8; 4];
    if !fill(r, &mut len_bytes, true)? {
        return Ok(ReadFrame::Eof);
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge { got: len },
        ));
    }
    if buf.len() < len {
        buf.resize(len, 0);
    }
    fill(r, &mut buf[..len], false)?;
    Ok(ReadFrame::Frame(len))
}

/// Fills `dst` completely. `frame_start` marks the first bytes of a
/// frame: only there may EOF (`Ok(false)`) or a timeout end the read.
fn fill<R: Read>(r: &mut R, dst: &mut [u8], frame_start: bool) -> io::Result<bool> {
    let mut pos = 0;
    while pos < dst.len() {
        match r.read(&mut dst[pos..]) {
            Ok(0) if frame_start && pos == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame",
                ))
            }
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if !(frame_start && pos == 0)
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_round_trips_both_shapes() {
        let heading = FixRequest {
            id: 7,
            seed: 42,
            deadline_ms: 250,
            no_cache: false,
            field: FieldSpec::HeadingTruth(123.25),
        };
        let vector = FixRequest {
            id: u64::MAX,
            seed: 0,
            deadline_ms: 0,
            no_cache: true,
            field: FieldSpec::FieldVector { hx: -3.5, hy: 12.0 },
        };
        for req in [heading, vector] {
            let mut buf = [0u8; REQUEST_LEN_VECTOR];
            let len = req.encode_payload(&mut buf);
            assert_eq!(FixRequest::decode_payload(&buf[..len]), Ok(req));
        }
    }

    #[test]
    fn response_round_trips_bitwise() {
        for quality in [FixQuality::Good, FixQuality::Degraded, FixQuality::Invalid] {
            let resp = FixResponse {
                id: 99,
                status: Status::Ok,
                cache_hit: true,
                clipped: true,
                quality,
                heading: 359.999,
                duty_x: 0.4751,
                duty_y: 0.5199,
                count_x: -32767,
                count_y: 32767,
            };
            let mut buf = [0u8; RESPONSE_LEN];
            let len = resp.encode_payload(&mut buf);
            assert_eq!(FixResponse::decode_payload(&buf[..len]), Ok(resp));
        }
    }

    #[test]
    fn v1_response_encoding_zeroes_quality_bits_and_infers_on_decode() {
        let mut resp = FixResponse::failure(4, Status::Overloaded);
        resp.quality = FixQuality::Degraded; // deliberately inconsistent
        let mut buf = [0u8; RESPONSE_LEN];
        let len = resp.encode_payload_versioned(1, &mut buf);
        assert_eq!(buf[1], 1);
        assert_eq!(
            buf[3] & RESP_QUALITY_MASK,
            0,
            "v1 must not leak quality bits"
        );
        let back = FixResponse::decode_payload(&buf[..len]).unwrap();
        // v1 has no quality on the wire: non-Ok status decodes Invalid.
        assert_eq!(back.quality, FixQuality::Invalid);
        assert_eq!(back.status, Status::Overloaded);
        // And an Ok v1 response decodes Good.
        let ok = FixResponse {
            quality: FixQuality::Good,
            status: Status::Ok,
            ..FixResponse::failure(5, Status::Ok)
        };
        let len = ok.encode_payload_versioned(1, &mut buf);
        assert_eq!(
            FixResponse::decode_payload(&buf[..len]).unwrap().quality,
            FixQuality::Good
        );
    }

    #[test]
    fn request_version_1_is_still_accepted_and_reported() {
        let req = FixRequest {
            id: 8,
            seed: 9,
            deadline_ms: 0,
            no_cache: false,
            field: FieldSpec::HeadingTruth(42.0),
        };
        let mut buf = [0u8; REQUEST_LEN_VECTOR];
        let len = req.encode_payload(&mut buf);
        assert_eq!(buf[1], WIRE_VERSION);
        buf[1] = 1; // downgrade to a v1 client
        assert_eq!(
            FixRequest::decode_versioned(&buf[..len]),
            Ok((req, 1)),
            "v1 requests must decode with their version reported"
        );
    }

    #[test]
    fn unknown_request_flag_bits_are_rejected() {
        let req = FixRequest {
            id: 1,
            seed: 2,
            deadline_ms: 0,
            no_cache: true,
            field: FieldSpec::HeadingTruth(10.0),
        };
        let mut buf = [0u8; REQUEST_LEN_VECTOR];
        let len = req.encode_payload(&mut buf);
        buf[2] |= 1 << 6; // a flag bit from the future
        assert_eq!(
            FixRequest::decode_payload(&buf[..len]),
            Err(ProtocolError::BadFlags {
                got: FLAG_NO_CACHE | 1 << 6
            })
        );
    }

    #[test]
    fn oversized_payload_is_rejected_at_write_time() {
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing may reach the wire");
        let inner = err.get_ref().expect("typed source");
        let proto = inner
            .downcast_ref::<ProtocolError>()
            .expect("ProtocolError source");
        assert_eq!(*proto, ProtocolError::FrameTooLarge { got: MAX_FRAME + 1 });
        // At the boundary itself, the frame goes through.
        write_frame(&mut sink, &vec![0u8; MAX_FRAME]).unwrap();
        assert_eq!(sink.len(), 4 + MAX_FRAME);
    }

    #[test]
    fn bad_frames_are_typed_errors() {
        assert_eq!(
            FixRequest::decode_payload(&[0u8; 4]),
            Err(ProtocolError::BadLength { got: 4 })
        );
        let mut buf = [0u8; REQUEST_LEN_HEADING];
        let req = FixRequest {
            id: 1,
            seed: 2,
            deadline_ms: 3,
            no_cache: false,
            field: FieldSpec::HeadingTruth(10.0),
        };
        req.encode_payload(&mut buf);
        let mut bad_tag = buf;
        bad_tag[0] = 0x7f;
        assert_eq!(
            FixRequest::decode_payload(&bad_tag),
            Err(ProtocolError::BadTag { got: 0x7f })
        );
        let mut bad_version = buf;
        bad_version[1] = 99;
        assert_eq!(
            FixRequest::decode_payload(&bad_version),
            Err(ProtocolError::BadVersion { got: 99 })
        );
        let mut nan = buf;
        nan[24..32].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            FixRequest::decode_payload(&nan),
            Err(ProtocolError::NonFiniteField)
        );
        // Vector flag with a heading-sized payload.
        let mut short_vector = buf;
        short_vector[2] = FLAG_FIELD_VECTOR as u8;
        assert_eq!(
            FixRequest::decode_payload(&short_vector),
            Err(ProtocolError::BadLength {
                got: REQUEST_LEN_HEADING
            })
        );
    }

    #[test]
    fn status_wire_bytes_round_trip() {
        for status in [
            Status::Ok,
            Status::Overloaded,
            Status::DeadlineExceeded,
            Status::BadRequest,
            Status::ShuttingDown,
            Status::InvalidConfig,
            Status::Unmeasurable,
        ] {
            assert_eq!(Status::from_wire(status as u8), Ok(status));
        }
        assert_eq!(
            Status::from_wire(200),
            Err(ProtocolError::BadStatus { got: 200 })
        );
    }

    #[test]
    fn frame_io_round_trips_over_a_buffer() {
        let req = FixRequest {
            id: 5,
            seed: 6,
            deadline_ms: 7,
            no_cache: true,
            field: FieldSpec::FieldVector { hx: 1.0, hy: 2.0 },
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        match read_frame(&mut cursor, &mut buf).unwrap() {
            ReadFrame::Frame(len) => {
                assert_eq!(FixRequest::decode_payload(&buf[..len]), Ok(req));
            }
            ReadFrame::Eof => panic!("expected a frame"),
        }
        assert!(matches!(
            read_frame(&mut cursor, &mut buf).unwrap(),
            ReadFrame::Eof
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 8]);
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        let err = read_frame(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A reader that replays scripted chunks and errors, then EOF.
    struct Script(std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>);

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(mut bytes)) => {
                    let n = bytes.len().min(out.len());
                    out[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.push_front(Ok(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn timeout_inside_a_frame_keeps_the_partial_frame() {
        let frame = |id| {
            let mut wire = Vec::new();
            let response = FixResponse {
                heading: 12.5,
                count_x: -7,
                ..FixResponse::failure(id, Status::Ok)
            };
            write_response(&mut wire, &response).unwrap();
            (wire, response)
        };
        let (first, first_response) = frame(1);
        let (second, second_response) = frame(2);
        assert_eq!(first.len(), 56);
        let mut script = Script(
            [
                Ok(first[..30].to_vec()),
                Err(io::ErrorKind::WouldBlock),
                Err(io::ErrorKind::Interrupted),
                Ok(first[30..].to_vec()),
                Err(io::ErrorKind::WouldBlock),
                Ok(second),
            ]
            .into_iter()
            .collect(),
        );
        let mut buf = Vec::new();
        let mut next = |script: &mut Script| match read_frame(script, &mut buf) {
            Ok(ReadFrame::Frame(len)) => Ok(Some(FixResponse::decode_payload(&buf[..len]))),
            Ok(ReadFrame::Eof) => Ok(None),
            Err(e) => Err(e.kind()),
        };
        assert_eq!(next(&mut script), Ok(Some(Ok(first_response))));
        // A timeout on a frame boundary is reported and consumes nothing.
        assert_eq!(next(&mut script), Err(io::ErrorKind::WouldBlock));
        assert_eq!(next(&mut script), Ok(Some(Ok(second_response))));
        assert_eq!(next(&mut script), Ok(None));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn request_encode_decode_is_identity(
            id in any::<u64>(),
            seed in any::<u64>(),
            deadline_ms in any::<u32>(),
            no_cache in any::<bool>(),
            vector in any::<bool>(),
            a in -1e6f64..1e6,
            b in -1e6f64..1e6,
        ) {
            let field = if vector {
                FieldSpec::FieldVector { hx: a, hy: b }
            } else {
                FieldSpec::HeadingTruth(a)
            };
            let req = FixRequest { id, seed, deadline_ms, no_cache, field };
            let mut buf = [0u8; REQUEST_LEN_VECTOR];
            let len = req.encode_payload(&mut buf);
            prop_assert_eq!(FixRequest::decode_payload(&buf[..len]), Ok(req));
        }

        #[test]
        fn response_encode_decode_is_identity(
            id in any::<u64>(),
            status_byte in 0u8..7,
            cache_hit in any::<bool>(),
            clipped in any::<bool>(),
            quality_idx in 0u8..3,
            heading_bits in any::<u64>(),
            duty_x in 0.0f64..1.0,
            duty_y in 0.0f64..1.0,
            count_x in any::<i64>(),
            count_y in any::<i64>(),
        ) {
            // Headings from raw bit patterns exercise NaN/∞/subnormal
            // payloads: the response layer must carry them bit-exactly.
            let heading = f64::from_bits(heading_bits);
            let quality = [FixQuality::Good, FixQuality::Degraded, FixQuality::Invalid]
                [quality_idx as usize];
            let resp = FixResponse {
                id,
                status: Status::from_wire(status_byte).unwrap(),
                cache_hit,
                clipped,
                quality,
                heading,
                duty_x,
                duty_y,
                count_x,
                count_y,
            };
            let mut buf = [0u8; RESPONSE_LEN];
            let len = resp.encode_payload(&mut buf);
            let back = FixResponse::decode_payload(&buf[..len]).unwrap();
            prop_assert_eq!(back.heading.to_bits(), resp.heading.to_bits());
            prop_assert_eq!(back.id, resp.id);
            prop_assert_eq!(back.status, resp.status);
            prop_assert_eq!(back.cache_hit, resp.cache_hit);
            prop_assert_eq!(back.clipped, resp.clipped);
            prop_assert_eq!(back.quality, resp.quality);
            prop_assert_eq!(back.count_x, resp.count_x);
            prop_assert_eq!(back.count_y, resp.count_y);
        }
    }
}
