//! Binary trace serialization: the **IBPB** segment format (`.ibpb`).
//!
//! IBPT text (see [`crate::io`]) is the portable interchange format; this
//! module is its fast sibling: fixed-width binary records that bulk-decode
//! straight into [`TraceChunk`] buffers with no per-line parsing, no RNG,
//! and no hierarchy walk. It is the on-disk format of the persistent trace
//! corpus cache in `ibp-sim` (generate a benchmark trace once, replay it
//! at memory speed forever) and an opt-in `export_trace` output mode.
//!
//! # Layout
//!
//! Little-endian throughout.
//!
//! ```text
//! offset size         field
//! 0      4            magic "IBPB"
//! 4      4            format version (u32, currently 1)
//! 8      4            trace-name length in bytes (u32)
//! 12     8            record count (u64)
//! 20     8            indirect-branch record count (u64)
//! 28     8            FNV-1a 64 checksum of the record payload (u64)
//! 36     n            trace name (UTF-8, no terminator)
//! 36+n   9 * records  fixed-width records
//! ```
//!
//! Each record is 9 bytes: one tag byte plus an 8-byte payload.
//!
//! | tag | meaning                  | payload                 |
//! |-----|--------------------------|-------------------------|
//! | 0   | conditional, not taken   | pc `u32`, target `u32`  |
//! | 1   | conditional, taken       | pc `u32`, target `u32`  |
//! | 2   | indirect, virtual call   | pc `u32`, target `u32`  |
//! | 3   | indirect, fn pointer     | pc `u32`, target `u32`  |
//! | 4   | indirect, switch         | pc `u32`, target `u32`  |
//! | 5   | plain instructions       | count `u64`             |
//! | 6   | summarised conditionals  | count `u64`             |
//!
//! The writer streams any [`EventSource`] chunk by chunk — each chunk's
//! counters become tag-5/6 records ahead of its events, exactly like the
//! text writer's `instr`/`csum` lines — then seeks back to fill in the
//! counts and checksum. Chunk boundaries carry no meaning (the
//! [`EventSource`] contract), so replays chunked differently are event-
//! and counter-equivalent.
//!
//! Decoding validates structure as it goes (magic, version, tags, address
//! alignment, record counts, trailing bytes) and verifies the payload
//! checksum when the stream is fully drained; a truncated or garbled file
//! surfaces as [`TraceIoError::Corrupt`], never a panic. A consumer that
//! must not act on a wrong event (the trace corpus cache) drains the
//! source before it trusts what it computed from it, and compares the
//! file's length with [`BinarySource::encoded_len`] to reject a truncated
//! file before reading it.

use std::io::{Read, Seek, SeekFrom, Write};

use crate::io::TraceIoError;
use crate::source::{chunk_events, EventSource, TraceChunk};
use crate::{Addr, BranchKind, TraceEvent};

/// The four magic bytes every IBPB segment starts with. Format sniffers
/// (e.g. `simulate_trace` deciding between IBPT text and IBPB binary)
/// compare a file's first four bytes against this.
pub const BINARY_MAGIC: [u8; 4] = *b"IBPB";

/// Current format version; bump when the layout or record semantics
/// change. Readers reject other versions as corrupt.
pub const BINARY_FORMAT_VERSION: u32 = 1;

/// Fixed-width record size: one tag byte plus an 8-byte payload.
const RECORD_BYTES: usize = 9;

/// Header size before the variable-length name.
const HEADER_BYTES: usize = 36;

/// Names longer than this are rejected as corrupt rather than allocated —
/// no real trace name comes close, and a garbled length field must not
/// drive a giant allocation.
const MAX_NAME_BYTES: u32 = 4096;

/// Whether `prefix` (a file's first bytes) looks like an IBPB segment.
#[must_use]
pub fn looks_binary(prefix: &[u8]) -> bool {
    prefix.len() >= BINARY_MAGIC.len() && prefix[..BINARY_MAGIC.len()] == BINARY_MAGIC
}

fn corrupt(message: impl Into<String>) -> TraceIoError {
    TraceIoError::Corrupt {
        message: message.into(),
    }
}

/// Incremental FNV-1a 64 over the record payload.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn encode_branch(tag: u8, pc: Addr, target: Addr) -> [u8; RECORD_BYTES] {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0] = tag;
    rec[1..5].copy_from_slice(&pc.raw().to_le_bytes());
    rec[5..9].copy_from_slice(&target.raw().to_le_bytes());
    rec
}

fn encode_count(tag: u8, count: u64) -> [u8; RECORD_BYTES] {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0] = tag;
    rec[1..9].copy_from_slice(&count.to_le_bytes());
    rec
}

fn indirect_tag(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::VirtualCall => 2,
        BranchKind::FnPointer => 3,
        BranchKind::Switch => 4,
    }
}

/// Streams an [`EventSource`] into an IBPB segment, returning the total
/// bytes written (header + name + records).
///
/// The writer needs [`Seek`] because the record count, indirect count and
/// checksum are known only after the stream is drained; they are patched
/// into the header at the end. Pass `&mut writer` to keep using the
/// writer afterwards (e.g. to `sync_all` a file before renaming it into
/// place).
///
/// # Errors
///
/// Returns underlying I/O errors and the source's own failures.
pub fn write_binary_source<S, W>(source: &mut S, mut writer: W) -> Result<u64, TraceIoError>
where
    S: EventSource + ?Sized,
    W: Write + Seek,
{
    let name = source.name().as_bytes().to_vec();
    let name_len = u32::try_from(name.len())
        .ok()
        .filter(|&n| n <= MAX_NAME_BYTES)
        .ok_or_else(|| corrupt(format!("trace name too long ({} bytes)", name.len())))?;

    let start = writer.stream_position()?;
    let mut w = std::io::BufWriter::new(&mut writer);
    w.write_all(&BINARY_MAGIC)?;
    w.write_all(&BINARY_FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&name_len.to_le_bytes())?;
    // Record count, indirect count, checksum: patched after the drain.
    w.write_all(&[0u8; 24])?;
    w.write_all(&name)?;

    let mut records = 0u64;
    let mut indirect = 0u64;
    let mut checksum = Fnv::new();
    let mut emit =
        |w: &mut std::io::BufWriter<&mut W>, rec: [u8; RECORD_BYTES]| -> Result<(), TraceIoError> {
            checksum.update(&rec);
            records += 1;
            w.write_all(&rec)?;
            Ok(())
        };

    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        if chunk.plain_instructions() > 0 {
            emit(&mut w, encode_count(5, chunk.plain_instructions()))?;
        }
        if chunk.cond_summarised() > 0 {
            emit(&mut w, encode_count(6, chunk.cond_summarised()))?;
        }
        for event in chunk.events() {
            match event {
                TraceEvent::Indirect(b) => {
                    indirect += 1;
                    emit(&mut w, encode_branch(indirect_tag(b.kind), b.pc, b.target))?;
                }
                TraceEvent::Cond(b) => {
                    emit(&mut w, encode_branch(u8::from(b.taken), b.pc, b.target))?;
                }
            }
        }
        if !more {
            break;
        }
    }
    w.flush()?;
    drop(w);

    writer.seek(SeekFrom::Start(start + 12))?;
    writer.write_all(&records.to_le_bytes())?;
    writer.write_all(&indirect.to_le_bytes())?;
    writer.write_all(&checksum.finish().to_le_bytes())?;
    writer.seek(SeekFrom::End(0))?;
    Ok(HEADER_BYTES as u64 + u64::from(name_len) + records * RECORD_BYTES as u64)
}

/// A streaming IBPB reader: bulk-decodes fixed-width records into
/// [`TraceChunk`] buffers through an internal refill buffer, in memory
/// proportional to the chunk size.
///
/// Structural problems (bad tag, unaligned address, truncation, trailing
/// bytes, count mismatches) error out the moment they are seen; the
/// payload checksum is verified when the last record is consumed, so a
/// fill that returns `Ok(false)` has checked the whole stream.
pub struct BinarySource<R: Read> {
    reader: R,
    name: String,
    records_total: u64,
    records_read: u64,
    indirect_total: u64,
    indirect_read: u64,
    expected_checksum: u64,
    checksum: Fnv,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    finished: bool,
}

impl<R: Read> BinarySource<R> {
    /// Opens a reader, parsing and validating the fixed header and name.
    ///
    /// # Errors
    ///
    /// Fails with [`TraceIoError::Corrupt`] on a malformed header and
    /// [`TraceIoError::Io`] on read failures.
    pub fn new(mut reader: R) -> Result<Self, TraceIoError> {
        let mut header = [0u8; HEADER_BYTES];
        read_fully(&mut reader, &mut header, "header")?;
        if header[..4] != BINARY_MAGIC {
            return Err(corrupt("bad magic (not an IBPB segment)"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != BINARY_FORMAT_VERSION {
            return Err(corrupt(format!(
                "unsupported format version {version} (expected {BINARY_FORMAT_VERSION})"
            )));
        }
        let name_len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if name_len > MAX_NAME_BYTES {
            return Err(corrupt(format!("implausible name length {name_len}")));
        }
        let records_total = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        let indirect_total = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
        if indirect_total > records_total {
            return Err(corrupt(format!(
                "indirect count {indirect_total} exceeds record count {records_total}"
            )));
        }
        let expected_checksum = u64::from_le_bytes(header[28..36].try_into().expect("8 bytes"));
        let mut name = vec![0u8; name_len as usize];
        read_fully(&mut reader, &mut name, "name")?;
        let name = String::from_utf8(name).map_err(|_| corrupt("name is not UTF-8"))?;
        Ok(BinarySource {
            reader,
            name,
            records_total,
            records_read: 0,
            indirect_total,
            indirect_read: 0,
            expected_checksum,
            checksum: Fnv::new(),
            buf: vec![0u8; RECORD_BYTES * 4096],
            pos: 0,
            len: 0,
            finished: false,
        })
    }

    /// The segment's length in bytes as its header gives it: the header,
    /// the name and every record. A file of any other length is torn or
    /// padded.
    #[must_use]
    pub fn encoded_len(&self) -> u64 {
        let records = self.records_total.saturating_mul(RECORD_BYTES as u64);
        records.saturating_add((HEADER_BYTES + self.name.len()) as u64)
    }

    /// The underlying reader.
    #[must_use]
    pub fn get_ref(&self) -> &R {
        &self.reader
    }

    /// Buffered bytes not yet decoded.
    fn available(&self) -> usize {
        self.len - self.pos
    }

    /// Ensures at least one whole record is buffered; `false` at EOF.
    fn ensure_record(&mut self) -> Result<bool, TraceIoError> {
        while self.available() < RECORD_BYTES {
            self.buf.copy_within(self.pos..self.len, 0);
            self.len -= self.pos;
            self.pos = 0;
            let n = self.reader.read(&mut self.buf[self.len..])?;
            if n == 0 {
                return Ok(false);
            }
            self.len += n;
        }
        Ok(true)
    }

    /// End-of-stream validation: trailing bytes, counts, checksum.
    fn finish(&mut self) -> Result<(), TraceIoError> {
        if self.available() > 0 || self.reader.read(&mut [0u8; 1])? > 0 {
            return Err(corrupt(format!(
                "trailing bytes after {} records",
                self.records_total
            )));
        }
        if self.indirect_read != self.indirect_total {
            return Err(corrupt(format!(
                "indirect count mismatch: header says {}, payload has {}",
                self.indirect_total, self.indirect_read
            )));
        }
        let got = self.checksum.finish();
        if got != self.expected_checksum {
            return Err(corrupt(format!(
                "checksum mismatch: header says {:#018x}, payload hashes to {got:#018x}",
                self.expected_checksum
            )));
        }
        Ok(())
    }
}

fn read_fully<R: Read>(reader: &mut R, buf: &mut [u8], what: &str) -> Result<(), TraceIoError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt(format!("truncated {what}"))
        } else {
            TraceIoError::Io(e)
        }
    })
}

fn decode_addr(bytes: &[u8]) -> Result<Addr, TraceIoError> {
    let raw = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    Addr::try_new(raw).map_err(|e| corrupt(e.to_string()))
}

impl<R: Read> EventSource for BinarySource<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn fill(&mut self, chunk: &mut TraceChunk, max_indirect: u64) -> Result<bool, TraceIoError> {
        chunk.clear();
        if self.finished {
            return Ok(false);
        }
        let mut indirect = 0u64;
        while indirect < max_indirect && self.records_read < self.records_total {
            if !self.ensure_record()? {
                return Err(corrupt(format!(
                    "truncated payload: header says {} records, found {}",
                    self.records_total, self.records_read
                )));
            }
            let rec = &self.buf[self.pos..self.pos + RECORD_BYTES];
            self.checksum.update(rec);
            match rec[0] {
                tag @ (0 | 1) => {
                    let pc = decode_addr(&rec[1..5])?;
                    let target = decode_addr(&rec[5..9])?;
                    chunk.push_cond(pc, target, tag == 1);
                }
                tag @ 2..=4 => {
                    let pc = decode_addr(&rec[1..5])?;
                    let target = decode_addr(&rec[5..9])?;
                    let kind = match tag {
                        2 => BranchKind::VirtualCall,
                        3 => BranchKind::FnPointer,
                        _ => BranchKind::Switch,
                    };
                    chunk.push_indirect(pc, target, kind);
                    indirect += 1;
                    self.indirect_read += 1;
                }
                5 => {
                    let count = u64::from_le_bytes(rec[1..9].try_into().expect("8 bytes"));
                    chunk.record_instructions(count);
                }
                6 => {
                    let count = u64::from_le_bytes(rec[1..9].try_into().expect("8 bytes"));
                    chunk.record_cond_summary(count);
                }
                other => return Err(corrupt(format!("unknown record tag {other}"))),
            }
            self.pos += RECORD_BYTES;
            self.records_read += 1;
        }
        if self.records_read == self.records_total {
            self.finish()?;
            self.finished = true;
            return Ok(false);
        }
        Ok(true)
    }

    fn remaining_indirect(&self) -> Option<u64> {
        Some(self.indirect_total - self.indirect_read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_source;
    use crate::Trace;
    use std::io::Cursor;

    fn sample() -> Trace {
        let mut t = Trace::new("sample");
        t.record_instructions(100);
        for i in 0..10u32 {
            t.push_cond(Addr::new(0x20), Addr::new(0x80), i % 2 == 0);
            t.push_indirect(
                Addr::new(0x100 + 8 * (i % 3)),
                Addr::new(0x900 + 8 * (i % 2)),
                match i % 3 {
                    0 => BranchKind::VirtualCall,
                    1 => BranchKind::FnPointer,
                    _ => BranchKind::Switch,
                },
            );
        }
        t.record_cond_summary(7);
        t.push_cond(Addr::new(0x24), Addr::new(0x90), true);
        t
    }

    fn encode(t: &Trace) -> Vec<u8> {
        let mut buf = Cursor::new(Vec::new());
        write_binary_source(&mut t.cursor(), &mut buf).expect("write");
        buf.into_inner()
    }

    /// Opens and drains a segment, as a replay does.
    fn drain(bytes: &[u8]) -> Result<(), TraceIoError> {
        let mut source = BinarySource::new(bytes)?;
        let mut chunk = TraceChunk::default();
        while source.fill(&mut chunk, chunk_events())? {}
        Ok(())
    }

    #[test]
    fn round_trips_everything() {
        let t = sample();
        let buf = encode(&t);
        assert!(looks_binary(&buf));
        let back =
            collect_source(&mut BinarySource::new(&buf[..]).expect("header")).expect("decode");
        assert_eq!(back.name(), t.name());
        assert_eq!(back.events(), t.events());
        assert_eq!(back.indirect_count(), t.indirect_count());
        assert_eq!(back.cond_count(), t.cond_count());
        assert_eq!(back.instructions(), t.instructions());
    }

    #[test]
    fn writer_reports_exact_byte_count() {
        let t = sample();
        let mut buf = Cursor::new(Vec::new());
        let bytes = write_binary_source(&mut t.cursor(), &mut buf).expect("write");
        assert_eq!(bytes, buf.into_inner().len() as u64);
    }

    #[test]
    fn decode_is_chunking_invariant() {
        let t = sample();
        let buf = encode(&t);
        for max in [1, 2, 9, 10, 11, 64] {
            let mut src = BinarySource::new(&buf[..]).expect("header");
            assert_eq!(src.remaining_indirect(), Some(t.indirect_count()));
            let mut rebuilt = Trace::new(src.name().to_owned());
            let mut chunk = TraceChunk::default();
            loop {
                let more = src.fill(&mut chunk, max).expect("decode");
                assert!(chunk.indirect_count() <= max);
                rebuilt.extend_chunk(&chunk);
                if !more {
                    break;
                }
            }
            assert_eq!(rebuilt.events(), t.events(), "max_indirect = {max}");
            assert_eq!(rebuilt.instructions(), t.instructions());
            assert_eq!(rebuilt.cond_count(), t.cond_count());
        }
    }

    #[test]
    fn a_clean_segment_drains_and_its_header_gives_its_length() {
        let buf = encode(&sample());
        drain(&buf[..]).expect("clean segment drains");
        let source = BinarySource::new(&buf[..]).expect("header");
        assert_eq!(source.encoded_len(), buf.len() as u64);
    }

    #[test]
    fn truncated_payload_is_corrupt_not_a_panic() {
        let buf = encode(&sample());
        for cut in [buf.len() - 1, buf.len() - RECORD_BYTES, HEADER_BYTES + 2, 3] {
            let err = drain(&buf[..cut]).expect_err("truncation detected");
            assert!(
                matches!(err, TraceIoError::Corrupt { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let clean = encode(&sample());
        // Flip one bit in every payload byte position that keeps the
        // record structurally valid or not — either way the drain must fail.
        let mut corrupt_count = 0;
        for pos in HEADER_BYTES + "sample".len()..clean.len() {
            let mut buf = clean.clone();
            buf[pos] ^= 0x10;
            if drain(&buf[..]).is_err() {
                corrupt_count += 1;
            }
        }
        let payload = clean.len() - HEADER_BYTES - "sample".len();
        assert_eq!(corrupt_count, payload, "every payload bit flip detected");
    }

    #[test]
    fn bad_magic_version_and_tags_are_corrupt() {
        let clean = encode(&sample());
        let mut bad_magic = clean.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            BinarySource::new(&bad_magic[..]).err(),
            Some(TraceIoError::Corrupt { .. })
        ));
        let mut bad_version = clean.clone();
        bad_version[4] = 99;
        assert!(BinarySource::new(&bad_version[..]).is_err());
        let mut bad_tag = clean.clone();
        let first_record = HEADER_BYTES + "sample".len();
        bad_tag[first_record] = 7;
        assert!(drain(&bad_tag[..]).is_err());
    }

    #[test]
    fn header_count_mismatches_are_corrupt() {
        let clean = encode(&sample());
        // Understate the record count: trailing bytes must be rejected.
        let mut fewer = clean.clone();
        let records = u64::from_le_bytes(clean[12..20].try_into().unwrap());
        fewer[12..20].copy_from_slice(&(records - 1).to_le_bytes());
        assert!(drain(&fewer[..]).is_err());
        // Overstate it: the payload runs out early.
        let mut more = clean.clone();
        more[12..20].copy_from_slice(&(records + 1).to_le_bytes());
        assert!(drain(&more[..]).is_err());
        // Wrong indirect count.
        let mut ind = clean;
        let indirect = u64::from_le_bytes(ind[20..28].try_into().unwrap());
        ind[20..28].copy_from_slice(&(indirect + 1).to_le_bytes());
        assert!(drain(&ind[..]).is_err());
    }

    #[test]
    fn unaligned_address_is_corrupt() {
        let clean = encode(&sample());
        let mut buf = clean.clone();
        // First record is the tag-5 instr record (8-byte count); find the
        // first branch record and nudge its pc off alignment.
        let payload = HEADER_BYTES + "sample".len();
        let branch = (payload..clean.len())
            .step_by(RECORD_BYTES)
            .find(|&p| clean[p] < 5)
            .expect("a branch record");
        buf[branch + 1] |= 1;
        let err = drain(&buf[..]).expect_err("unaligned");
        assert!(matches!(err, TraceIoError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn empty_source_round_trips() {
        let t = Trace::new("empty");
        let buf = encode(&t);
        let back =
            collect_source(&mut BinarySource::new(&buf[..]).expect("header")).expect("decode");
        assert_eq!(back.name(), "empty");
        assert_eq!(back.events(), &[]);
    }

    #[test]
    fn reencoding_a_decoded_stream_is_identical() {
        let t = sample();
        let first = encode(&t);
        let mut src = BinarySource::new(&first[..]).expect("header");
        let mut second = Cursor::new(Vec::new());
        write_binary_source(&mut src, &mut second).expect("re-encode");
        // Chunk boundaries may differ between the cursor pass and the
        // decode pass, but with both under one chunk the bytes match.
        assert_eq!(first, second.into_inner());
    }
}
