//! The checkpoint substrate: versioned, checksummed JSONL records.
//!
//! Each line is `{"sum":"<fnv1a64 hex>","rec":{"v":2,"body":<record>}}`,
//! where `sum` checksums the compact serialization of `rec` and the body
//! is any derived record type (in practice one enum per file, whose
//! variant name tags the record). The vendored `serde_json` writer is
//! canonical, so the reader verifies by re-serializing. [`read_records`]
//! stops at the first line that fails to parse, verify, match the
//! version or decode — a torn tail drops the incomplete record, and files
//! of an older version read as empty. A writer reopening a file calls
//! [`reopen_records`], which also cuts the file back to that valid
//! prefix, so the next append does not extend a torn line.
//!
//! Bit-exact floats and RNG words travel as canonical lowercase hex via
//! [`HexF64`], [`HexF64s`] and [`HexU64`], exact for every value
//! (negative zero, subnormals, infinities, NaN payloads); their decoders
//! accept only the exact form the encoders write.

use crate::{Chaos, FaultClass};
use serde::{Deserialize, Error, Serialize};
use serde_json::Value;
use std::io::Write;
use std::path::Path;

/// Version stamped into (and required of) every record.
pub const FORMAT_VERSION: u64 = 2;

/// FNV-1a 64-bit hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One `f64` as 16 lowercase hex digits (little-endian bytes).
pub fn f64_to_hex(x: f64) -> String {
    hex_string(x.to_le_bytes())
}

fn hex_string(bytes: impl IntoIterator<Item = u8>) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let hex = bytes
        .into_iter()
        .flat_map(|b| [DIGITS[usize::from(b >> 4)], DIGITS[usize::from(b & 0xf)]]);
    hex.map(char::from).collect()
}

/// Decode canonical hex — lowercase digits only — into `N`-byte chunks.
fn hex_chunks<const N: usize>(value: &Value) -> Result<Vec<[u8; N]>, Error> {
    let nibble = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    };
    let bad = || Error::custom("expected canonical lowercase hex");
    let digits = value.as_str().ok_or_else(bad)?.as_bytes();
    if !digits.len().is_multiple_of(2 * N) {
        return Err(bad());
    }
    let bytes: Vec<u8> = digits
        .chunks_exact(2)
        .map(|c| Some(nibble(c[0])? << 4 | nibble(c[1])?))
        .collect::<Option<_>>()
        .ok_or_else(bad)?;
    Ok(bytes
        .chunks_exact(N)
        .map(|c| c.try_into().expect("chunks_exact yields N bytes"))
        .collect())
}

/// Exactly one `N`-byte chunk of canonical hex.
fn hex_single<const N: usize>(value: &Value) -> Result<[u8; N], Error> {
    let chunks = hex_chunks(value)?;
    let one = chunks.first().filter(|_| chunks.len() == 1);
    one.copied()
        .ok_or_else(|| Error::custom("expected a single value"))
}

/// An `f64` persisted as the 16 hex digits of [`f64_to_hex`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HexF64(pub f64);

/// A `Vec<f64>` persisted as one hex blob, 16 digits per value.
#[derive(Clone, Debug, PartialEq)]
pub struct HexF64s(pub Vec<f64>);

/// A `u64` (an RNG state word) persisted as 16 hex digits, most
/// significant first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HexU64(pub u64);

impl Serialize for HexF64 {
    fn to_value(&self) -> Value {
        Value::Str(f64_to_hex(self.0))
    }
}

impl Deserialize for HexF64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        hex_single(value).map(|b| HexF64(f64::from_le_bytes(b)))
    }
}

impl Serialize for HexF64s {
    fn to_value(&self) -> Value {
        Value::Str(hex_string(self.0.iter().flat_map(|x| x.to_le_bytes())))
    }
}

impl Deserialize for HexF64s {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let chunks = hex_chunks(value)?;
        Ok(HexF64s(
            chunks.into_iter().map(f64::from_le_bytes).collect(),
        ))
    }
}

impl Serialize for HexU64 {
    fn to_value(&self) -> Value {
        Value::Str(hex_string(self.0.to_be_bytes()))
    }
}

impl Deserialize for HexU64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        hex_single(value).map(|b| HexU64(u64::from_be_bytes(b)))
    }
}

/// The checksummed part of a line: format version plus the record.
#[derive(Serialize, Deserialize)]
struct Envelope {
    v: u64,
    body: Value,
}

/// Append one record to `path` (created if missing) and flush it to the
/// OS. When the chaos plan's `truncate-checkpoint` trigger fires, only
/// the first half of the line is written (no newline) — a simulated torn
/// write that the reader must survive.
pub fn append_record<T: Serialize + ?Sized>(
    path: &Path,
    record: &T,
    chaos: &Chaos,
) -> std::io::Result<()> {
    let payload = serde_json::to_string(&Envelope {
        v: FORMAT_VERSION,
        body: record.to_value(),
    })
    .expect("value serialization is infallible");
    let line = format!(
        "{{\"sum\":\"{:016x}\",\"rec\":{payload}}}\n",
        fnv1a64(payload.as_bytes())
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if chaos.should_fire(FaultClass::TruncateCheckpoint) {
        file.write_all(&line.as_bytes()[..line.len() / 2])?;
    } else {
        file.write_all(line.as_bytes())?;
    }
    file.flush()
}

/// Read every valid record of `path`, stopping at (and dropping) the
/// first invalid line. A missing file reads as no records.
pub fn read_records<T: Deserialize>(path: &Path) -> Vec<T> {
    valid_prefix(&std::fs::read(path).unwrap_or_default()).0
}

/// [`read_records`] for a writer about to append to `path` again: the
/// file is also cut back to the end of its last valid line, dropping a
/// torn tail (or a whole file of an older format version) so the next
/// append is readable. A missing file reads as no records.
pub fn reopen_records<T: Deserialize>(path: &Path) -> std::io::Result<Vec<T>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let (records, len) = valid_prefix(&bytes);
    if len < bytes.len() {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(len as u64)?;
    }
    Ok(records)
}

/// The records of the leading run of valid, newline-terminated lines
/// and that run's length in bytes.
fn valid_prefix<T: Deserialize>(bytes: &[u8]) -> (Vec<T>, usize) {
    let mut out = Vec::new();
    let mut len = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let Some(record) = line
            .strip_suffix(b"\n")
            .and_then(|l| std::str::from_utf8(l).ok())
            .and_then(verify_line)
        else {
            break;
        };
        out.push(record);
        len += line.len();
    }
    (out, len)
}

fn verify_line<T: Deserialize>(line: &str) -> Option<T> {
    let value: Value = serde_json::from_str(line).ok()?;
    let sum = value.get("sum")?.as_str()?;
    let rec = value.get("rec")?;
    let payload = serde_json::to_string(rec).ok()?;
    if *sum != format!("{:016x}", fnv1a64(payload.as_bytes())) {
        return None;
    }
    let env = Envelope::from_value(rec).ok()?;
    if env.v != FORMAT_VERSION {
        return None;
    }
    T::from_value(&env.body).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use serde_json::json;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("np-chaos-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn epoch(path: &Path, i: u64, chaos: &Chaos) {
        append_record(path, &json!({ "epoch": i }), chaos).unwrap();
    }

    fn epochs(recs: &[Value]) -> Vec<u64> {
        recs.iter().map(|r| r["epoch"].as_u64().unwrap()).collect()
    }

    #[test]
    fn hex_newtypes_round_trip_bit_exactly() {
        let xs = [
            0.0,
            -0.0,
            1.5,
            -1.0 / 3.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with a payload
        ];
        for x in xs {
            let back = HexF64::from_value(&HexF64(x).to_value()).unwrap();
            assert_eq!(x.to_bits(), back.0.to_bits(), "{x}");
        }
        let blob = HexF64s(xs.to_vec()).to_value();
        assert_eq!(HexF64s::from_value(&blob).unwrap().to_value(), blob);
        for w in [0, 1, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(HexU64::from_value(&HexU64(w).to_value()), Ok(HexU64(w)));
        }
        assert_eq!(HexF64(-0.0).to_value(), Value::Str(f64_to_hex(-0.0)));
    }

    #[test]
    fn hex_newtypes_accept_only_canonical_hex() {
        let one = f64_to_hex(1.0);
        for bad in [
            one.to_uppercase(),
            format!("+{}", &one[1..]),
            one[1..].to_string(),
            format!("{one}00"),
            format!("é{}", &one[2..]),
            String::new(),
        ] {
            assert!(
                HexF64::from_value(&Value::Str(bad.clone())).is_err(),
                "{bad}"
            );
            assert!(
                HexU64::from_value(&Value::Str(bad.clone())).is_err(),
                "{bad}"
            );
        }
        assert!(
            HexF64::from_value(&Value::Num(1.0)).is_err(),
            "not a string"
        );
        assert!(
            HexF64s::from_value(&Value::Str("0102".into())).is_err(),
            "partial value"
        );
        assert_eq!(
            HexF64s::from_value(&Value::Str(String::new())),
            Ok(HexF64s(vec![]))
        );
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = tmp("roundtrip");
        let chaos = Chaos::disabled();
        epoch(&path, 0, &chaos);
        epoch(&path, 1, &chaos);
        assert_eq!(epochs(&read_records(&path)), vec![0, 1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reads_as_empty() {
        assert!(read_records::<Value>(Path::new("/nonexistent/np-ckpt")).is_empty());
        assert!(reopen_records::<Value>(Path::new("/nonexistent/np-ckpt"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn corrupt_line_drops_the_tail() {
        let path = tmp("corrupt");
        let chaos = Chaos::disabled();
        for i in 0..3 {
            epoch(&path, i, &chaos);
        }
        // Flip one byte inside the second record's checksum region.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let off = lines[0].len() + 1 + lines[1].len() - 3;
        unsafe { text.as_bytes_mut()[off] = b'!' };
        std::fs::write(&path, &text).unwrap();
        let recs: Vec<Value> = read_records(&path);
        assert_eq!(
            epochs(&recs),
            vec![0],
            "records after the corrupt one are dropped"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_truncation_tears_the_last_record() {
        let path = tmp("torn");
        let chaos = Chaos::new(FaultPlan::parse("truncate-checkpoint@2").unwrap());
        for i in 0..3 {
            append_record(&path, &json!({ "epoch": i }), &chaos).unwrap();
        }
        assert_eq!(chaos.fired(FaultClass::TruncateCheckpoint), 1);
        let recs: Vec<Value> = read_records(&path);
        assert_eq!(recs.len(), 2, "the torn third record is dropped");
        // Appending after a torn write corrupts from the tear onward but
        // never the records before it.
        append_record(&path, &json!({"epoch": 3}), &chaos).unwrap();
        assert_eq!(read_records::<Value>(&path).len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_cuts_a_torn_tail_so_later_appends_survive() {
        let path = tmp("reopen");
        let chaos = Chaos::disabled();
        epoch(&path, 0, &chaos);
        epoch(&path, 1, &chaos);
        // Tear the second record mid-line, as a crash mid-append would.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = text.len() - 10;
        std::fs::write(&path, &text[..torn]).unwrap();
        let recs: Vec<Value> = reopen_records(&path).unwrap();
        assert_eq!(epochs(&recs), vec![0]);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text[..text.find('\n').unwrap() + 1],
            "the file ends on the last valid line"
        );
        epoch(&path, 2, &chaos);
        assert_eq!(epochs(&read_records(&path)), vec![0, 2]);
        // A valid file is left as it is.
        let before = std::fs::read(&path).unwrap();
        assert_eq!(reopen_records::<Value>(&path).unwrap().len(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn old_versions_read_as_empty_and_reopen_clears_them() {
        let path = tmp("version");
        let payload = r#"{"v":1,"kind":"epoch","body":{"epoch":0}}"#;
        let line = format!(
            "{{\"sum\":\"{:016x}\",\"rec\":{payload}}}\n",
            fnv1a64(payload.as_bytes())
        );
        std::fs::write(&path, line).unwrap();
        assert!(read_records::<Value>(&path).is_empty());
        assert!(reopen_records::<Value>(&path).unwrap().is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_of_the_wrong_type_ends_the_prefix() {
        let path = tmp("typed");
        let chaos = Chaos::disabled();
        append_record(&path, &7u32, &chaos).unwrap();
        append_record(&path, "not a number", &chaos).unwrap();
        append_record(&path, &8u32, &chaos).unwrap();
        assert_eq!(read_records::<u32>(&path), vec![7]);
        assert_eq!(read_records::<Value>(&path).len(), 3);
        let _ = std::fs::remove_file(&path);
    }
}
