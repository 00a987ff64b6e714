//! Trace import/export.
//!
//! Two interchange formats:
//!
//! - **CSV** in the MSR-Cambridge-style column order
//!   `timestamp_us,op,offset,size` — easy to eyeball and to exchange with
//!   the published trace tooling.
//! - **HTRC**, a compact little-endian binary format (magic `HTRC`,
//!   version byte, u64 count, then 21-byte records) for large generated
//!   pools where CSV is too bulky.

use crate::{IoOp, IoRequest, Trace};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{BufRead, BufReader, Read, Write};

/// Errors raised while parsing a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the input.
    Parse {
        /// 1-based line (CSV) or record index (binary).
        at: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Parse { at, reason } => {
                write!(f, "trace parse error at record {at}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes a trace as CSV (`timestamp_us,op,offset,size`, header included).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_csv<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    writeln!(w, "timestamp_us,op,offset,size")?;
    for r in &trace.requests {
        let op = if r.op.is_read() { 'R' } else { 'W' };
        writeln!(w, "{},{},{},{}", r.arrival_us, op, r.offset, r.size)?;
    }
    Ok(())
}

/// Reads a CSV trace (header optional; `R`/`W` or `0`/`1` op column).
///
/// Requests are sorted by timestamp and re-numbered.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] with the offending line number on
/// malformed rows, including a size of zero or beyond `u32`.
pub fn read_csv<R: Read>(name: &str, r: R) -> Result<Trace, TraceIoError> {
    let reader = BufReader::new(r);
    let mut requests = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line.starts_with("timestamp")) {
            continue;
        }
        let mut cols = line.split(',').map(str::trim);
        let bad = |reason: String| TraceIoError::Parse {
            at: lineno + 1,
            reason,
        };
        let parse = |v: Option<&str>, what: &str| -> Result<u64, TraceIoError> {
            v.and_then(|x| x.parse().ok())
                .ok_or_else(|| bad(format!("bad {what}")))
        };
        let ts = parse(cols.next(), "timestamp")?;
        let op = match cols.next() {
            Some("R") | Some("r") | Some("0") => IoOp::Read,
            Some("W") | Some("w") | Some("1") => IoOp::Write,
            other => return Err(bad(format!("bad op {other:?}"))),
        };
        let offset = parse(cols.next(), "offset")?;
        let size = u32::try_from(parse(cols.next(), "size")?)
            .map_err(|_| bad("size out of range".into()))?;
        if size == 0 {
            return Err(bad("zero size".into()));
        }
        requests.push(IoRequest {
            id: 0,
            arrival_us: ts,
            offset,
            size,
            op,
        });
    }
    requests.sort_by_key(|r| r.arrival_us);
    for (i, r) in requests.iter_mut().enumerate() {
        r.id = i as u64;
    }
    Ok(Trace::new(name, requests))
}

const MAGIC: &[u8; 4] = b"HTRC";
const VERSION: u8 = 1;

/// Serializes a trace into the compact HTRC binary format.
pub fn to_bytes(trace: &Trace) -> Bytes {
    let mut buf = BytesMut::with_capacity(13 + trace.len() * 21);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(trace.len() as u64);
    for r in &trace.requests {
        buf.put_u64_le(r.arrival_us);
        buf.put_u64_le(r.offset);
        buf.put_u32_le(r.size);
        buf.put_u8(u8::from(!r.op.is_read()));
    }
    buf.freeze()
}

/// Deserializes an HTRC buffer.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] on bad magic, version, truncation, a
/// zero-size record, or out-of-order timestamps.
pub fn from_bytes(name: &str, data: &[u8]) -> Result<Trace, TraceIoError> {
    let mut buf = data;
    if buf.remaining() < 13 {
        return Err(TraceIoError::Parse {
            at: 0,
            reason: "truncated header".into(),
        });
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(TraceIoError::Parse {
            at: 0,
            reason: "bad magic".into(),
        });
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(TraceIoError::Parse {
            at: 0,
            reason: format!("unsupported version {version}"),
        });
    }
    // The count is untrusted: its byte length must not overflow, and the
    // records it announces must all be present before anything is sized
    // from it.
    let count = buf.get_u64_le();
    let body = count.checked_mul(21).and_then(|n| usize::try_from(n).ok());
    let count = match body {
        Some(n) if n <= buf.remaining() => n / 21,
        _ => {
            return Err(TraceIoError::Parse {
                at: 0,
                reason: format!("truncated body: header announces {count} records"),
            })
        }
    };
    let mut requests = Vec::with_capacity(count);
    let mut prev = 0u64;
    for i in 0..count {
        let arrival_us = buf.get_u64_le();
        let offset = buf.get_u64_le();
        let size = buf.get_u32_le();
        let op = if buf.get_u8() == 0 {
            IoOp::Read
        } else {
            IoOp::Write
        };
        let bad = |reason: &str| TraceIoError::Parse {
            at: i + 1,
            reason: reason.into(),
        };
        if size == 0 {
            return Err(bad("zero size"));
        }
        if arrival_us < prev {
            return Err(bad("timestamps out of order"));
        }
        prev = arrival_us;
        requests.push(IoRequest {
            id: i as u64,
            arrival_us,
            offset,
            size,
            op,
        });
    }
    Ok(Trace::new(name, requests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceBuilder;
    use crate::WorkloadProfile;

    fn sample() -> Trace {
        TraceBuilder::from_profile(WorkloadProfile::MsrLike)
            .seed(1)
            .duration_secs(2)
            .build()
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample();
        let mut out = Vec::new();
        write_csv(&t, &mut out).unwrap();
        let back = read_csv("roundtrip", &out[..]).unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.requests.iter().zip(&back.requests) {
            assert_eq!(
                (a.arrival_us, a.offset, a.size, a.op),
                (b.arrival_us, b.offset, b.size, b.op)
            );
        }
    }

    #[test]
    fn csv_accepts_numeric_ops_and_no_header() {
        let data = "100,0,4096,8192\n200,1,0,4096\n";
        let t = read_csv("t", data.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.requests[0].op.is_read());
        assert!(!t.requests[1].op.is_read());
    }

    #[test]
    fn csv_sorts_unordered_rows() {
        let data = "timestamp_us,op,offset,size\n300,R,0,4096\n100,R,0,4096\n";
        let t = read_csv("t", data.as_bytes()).unwrap();
        assert_eq!(t.requests[0].arrival_us, 100);
        assert_eq!(t.requests[0].id, 0);
    }

    #[test]
    fn csv_rejects_garbage() {
        for bad in ["abc,R,0,4096", "100,X,0,4096", "100,R,0,zero", "100,R,0,0"] {
            assert!(read_csv("t", bad.as_bytes()).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn csv_rejects_sizes_beyond_u32_instead_of_truncating() {
        for size in [1u64 << 32, (1 << 32) + 1, u64::MAX] {
            let row = format!("0,R,0,{size}");
            match read_csv("t", row.as_bytes()) {
                Err(TraceIoError::Parse { at: 1, reason }) => {
                    assert_eq!(reason, "size out of range", "{row}")
                }
                other => panic!("{row}: expected a parse error, got {other:?}"),
            }
        }
        let max = format!("0,R,0,{}", u32::MAX);
        assert_eq!(
            read_csv("t", max.as_bytes()).unwrap().requests[0].size,
            u32::MAX
        );
    }

    #[test]
    fn binary_rejects_a_zero_size_record_as_csv_does() {
        let mut t = sample();
        t.requests[3].size = 0;
        match from_bytes("t", &to_bytes(&t)) {
            Err(TraceIoError::Parse { at: 4, reason }) => assert_eq!(reason, "zero size"),
            other => panic!("expected a parse error at record 4, got {other:?}"),
        }
        let mut csv = Vec::new();
        write_csv(&t, &mut csv).unwrap();
        assert!(read_csv("t", &csv[..]).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let bytes = to_bytes(&t);
        let back = from_bytes("roundtrip", &bytes).unwrap();
        assert_eq!(back.requests, {
            let mut r = t.requests.clone();
            for (i, x) in r.iter_mut().enumerate() {
                x.id = i as u64;
            }
            r
        });
    }

    #[test]
    fn binary_rejects_corruption() {
        let t = sample();
        let bytes = to_bytes(&t).to_vec();
        assert!(from_bytes("t", &bytes[..10]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(from_bytes("t", &bad_magic).is_err());
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(from_bytes("t", &bad_version).is_err());
        let truncated = &bytes[..bytes.len() - 5];
        assert!(from_bytes("t", truncated).is_err());
    }

    #[test]
    fn binary_rejects_record_counts_whose_byte_length_overflows() {
        let mut bytes = to_bytes(&sample()).to_vec();
        for count in [u64::MAX / 21 + 1, u64::MAX, u64::MAX / 21] {
            bytes[5..13].copy_from_slice(&count.to_le_bytes());
            match from_bytes("t", &bytes) {
                Err(TraceIoError::Parse { at: 0, reason }) => {
                    assert!(reason.contains("truncated body"), "{reason}")
                }
                other => panic!("count {count}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_is_compact() {
        let t = sample();
        let bytes = to_bytes(&t);
        assert_eq!(bytes.len(), 13 + t.len() * 21);
    }
}
