//! The snapshot wire format: versioned, checksummed, length-prefixed
//! binary sections.
//!
//! A snapshot is the durable image of one engine run's mutable state,
//! written at a checkpoint and read back on crash recovery. The format is
//! hand-rolled (the workspace builds offline; there is no serde backend)
//! and deliberately simple:
//!
//! ```text
//! magic   "AMRISNAP"                     8 bytes
//! version u32 LE                         format revision
//! fprint  u64 LE                         configuration fingerprint
//! step    u64 LE                         pipeline step the image captures
//! count   u32 LE                         number of sections
//! section × count:
//!     name_len u32 LE, name utf-8
//!     body_len u64 LE
//!     checksum u64 LE                    fxhash of the body bytes
//!     body
//! file checksum u64 LE                   fxhash of everything above
//! ```
//!
//! Every multi-byte integer is little-endian. Each section body carries
//! its own fxhash checksum, so a torn or bit-flipped write is detected at
//! parse time ([`SnapshotError::Checksum`]) and recovery can fall back to
//! an older snapshot. The configuration fingerprint ties a snapshot to
//! the engine configuration that produced it: restoring into a different
//! configuration is refused ([`SnapshotError::ConfigMismatch`]) instead
//! of silently diverging.
//!
//! [`SectionWriter`]/[`SectionReader`] are the primitive codecs: scalar
//! puts/gets plus the substrate types every layer serializes
//! ([`AttrVec`], [`VirtualTime`]). Higher layers (index arenas, assessment
//! collectors, the run context) compose them; this module knows nothing
//! about what the sections mean.

use crate::fxhash::FxHasher;
use crate::time::{VirtualDuration, VirtualTime};
use crate::value::{AttrValue, AttrVec, MAX_ATTRS};
use std::fmt;
use std::hash::Hasher;

/// Leading magic bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"AMRISNAP";

/// Current format revision. Bump on any layout change; readers refuse
/// other revisions with [`SnapshotError::Version`]. Revision 2 gave the
/// three tuner policies' sections one field order; revision 3 stores a
/// bit-address index as its entries alone (no links, no bucket table);
/// revision 4 drops the tier's cache-presence flag and saves a static
/// bitmap as an AMRI section under the static tuner's `STUN` tag;
/// revision 5 drops the AMRI state's nested `AMRI` tag and saves a scan
/// state as a multi-hash state with no index; revision 6 drops the
/// router's per-state cost, probe count and smoothing factor, the
/// tuner's decision and migration counters, the bandit arms' pull counts
/// and the three tuner-ledger totals of the `maint` section.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Why a snapshot could not be written, parsed, or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem I/O failed (message carries the `std::io::Error` text;
    /// a `String` keeps this type `Clone + PartialEq`).
    Io(String),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file ended before the advertised layout was complete.
    Truncated,
    /// The file's format revision is not [`SNAPSHOT_VERSION`].
    Version {
        /// Revision found in the file.
        found: u32,
        /// Revision this build reads.
        expected: u32,
    },
    /// A section's stored checksum does not match its body bytes.
    Checksum {
        /// The failing section (empty for the file-level checksum).
        section: String,
    },
    /// The snapshot was produced by a different engine configuration.
    ConfigMismatch {
        /// Fingerprint found in the file.
        found: u64,
        /// Fingerprint of the configuration being restored into.
        expected: u64,
    },
    /// A section the restore path requires is absent.
    MissingSection(String),
    /// A section parsed but its contents are not restorable.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot I/O failed: {msg}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::Version { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            SnapshotError::Checksum { section } if section.is_empty() => {
                write!(f, "snapshot file checksum mismatch")
            }
            SnapshotError::Checksum { section } => {
                write!(f, "snapshot section `{section}` checksum mismatch")
            }
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot was taken under configuration {found:#018x}, \
                 expected {expected:#018x}"
            ),
            SnapshotError::MissingSection(name) => {
                write!(f, "snapshot is missing section `{name}`")
            }
            SnapshotError::Malformed(what) => write!(f, "snapshot is malformed: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Append-only encoder for one section body.
///
/// All integers are little-endian; `f64` travels as its IEEE-754 bit
/// pattern, so round-trips are bit-exact (NaN payloads included).
#[derive(Debug, Default, Clone)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// A fresh, empty section body.
    pub fn new() -> Self {
        SectionWriter::default()
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` (as `u64`; the format is width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a boolean (one byte).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append a [`VirtualTime`].
    pub fn put_time(&mut self, t: VirtualTime) {
        self.put_u64(t.0);
    }

    /// Append a [`VirtualDuration`].
    pub fn put_duration(&mut self, d: VirtualDuration) {
        self.put_u64(d.0);
    }

    /// Append an [`AttrVec`]'s values (length byte + values), from the
    /// vector or from wherever its values are stored.
    ///
    /// # Panics
    /// Panics if `vals` is longer than an [`AttrVec`] can be, which
    /// [`get_attrs`](SectionReader::get_attrs) would refuse to read back.
    pub fn put_attrs(&mut self, vals: &[AttrValue]) {
        assert!(
            vals.len() <= MAX_ATTRS,
            "attr vector of width {}",
            vals.len()
        );
        self.put_u8(vals.len() as u8);
        for &v in vals {
            self.put_u64(v);
        }
    }

    /// The encoded body.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential decoder over one section body.
#[derive(Debug, Clone)]
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Decode from raw body bytes (checksum already verified by
    /// [`SnapshotReader::parse`]).
    pub fn new(buf: &'a [u8]) -> Self {
        SectionReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes not yet consumed, without consuming them — for a decoder
    /// that strides over fixed-shape records itself.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed(format!("length {v} overflows")))
    }

    /// Read the count of a list whose items take at least
    /// `min_item_bytes` each. A count the bytes left cannot hold is
    /// refused as [`SnapshotError::Malformed`] naming `field`, before it
    /// sizes a vector or bounds a loop.
    pub fn get_count(
        &mut self,
        min_item_bytes: usize,
        field: &str,
    ) -> Result<usize, SnapshotError> {
        let n = self.get_usize()?;
        self.fits(n, min_item_bytes, field)
    }

    /// `n` if the bytes left can hold `n` items of `min_item_bytes`.
    fn fits(&self, n: usize, min_item_bytes: usize, field: &str) -> Result<usize, SnapshotError> {
        if n > self.remaining() / min_item_bytes.max(1) {
            return Err(SnapshotError::Malformed(format!(
                "{field} {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a boolean.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        Ok(self.get_u8()? != 0)
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("non-UTF-8 string".into()))
    }

    /// Read a [`VirtualTime`].
    pub fn get_time(&mut self) -> Result<VirtualTime, SnapshotError> {
        Ok(VirtualTime(self.get_u64()?))
    }

    /// Read a [`VirtualDuration`].
    pub fn get_duration(&mut self) -> Result<VirtualDuration, SnapshotError> {
        Ok(VirtualDuration(self.get_u64()?))
    }

    /// Read an [`AttrVec`].
    pub fn get_attrs(&mut self) -> Result<AttrVec, SnapshotError> {
        let len = self.get_u8()? as usize;
        let mut vals = [0u64; MAX_ATTRS];
        if len > vals.len() {
            return Err(SnapshotError::Malformed(format!(
                "attr vector of width {len}"
            )));
        }
        for v in vals.iter_mut().take(len) {
            *v = self.get_u64()?;
        }
        AttrVec::from_slice(&vals[..len])
            .map_err(|_| SnapshotError::Malformed("attr vector rebuild failed".into()))
    }
}

/// Read and verify a structure tag. Each `save` implementation opens its
/// section body with a short ASCII tag; `restore` calls this first so a
/// section routed to the wrong structure fails with a typed error instead
/// of decoding garbage.
pub fn expect_tag(r: &mut SectionReader<'_>, expect: &str) -> Result<(), SnapshotError> {
    let tag = r.get_str()?;
    if tag != expect {
        return Err(SnapshotError::Malformed(format!(
            "section holds {tag}, expected {expect}"
        )));
    }
    Ok(())
}

/// Leading magic bytes of every spill-tier block (see [`seal_block`]).
pub const BLOCK_MAGIC: [u8; 4] = *b"AMRB";

/// Frame one storage-tier block: magic + body length + fxhash checksum +
/// body. Blocks reuse the snapshot section codec ([`SectionWriter`]) as
/// their wire format but live outside snapshot files, appended to a
/// block-store file; the explicit length keeps the framing self-contained
/// so a reader never trusts out-of-band metadata about how many bytes to
/// verify.
pub fn seal_block(body: SectionWriter) -> Vec<u8> {
    let body = body.into_bytes();
    let mut out = Vec::with_capacity(body.len() + 20);
    out.extend_from_slice(&BLOCK_MAGIC);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Verify and open a block written by [`seal_block`], returning a decoder
/// over its body.
///
/// # Errors
/// * [`SnapshotError::BadMagic`] when the frame does not start with
///   [`BLOCK_MAGIC`].
/// * [`SnapshotError::Truncated`] when the frame is shorter than its
///   advertised body.
/// * [`SnapshotError::Checksum`] when the body bytes do not match the
///   stored checksum — a torn or bit-flipped block write.
pub fn open_block(frame: &[u8]) -> Result<SectionReader<'_>, SnapshotError> {
    if frame.len() < BLOCK_MAGIC.len() + 16 {
        return Err(SnapshotError::Truncated);
    }
    if frame[..BLOCK_MAGIC.len()] != BLOCK_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = SectionReader::new(&frame[BLOCK_MAGIC.len()..]);
    let body_len = r.get_u64()? as usize;
    let stored = r.get_u64()?;
    let body = r.take(body_len)?;
    if checksum(body) != stored {
        return Err(SnapshotError::Checksum {
            section: "block".into(),
        });
    }
    Ok(SectionReader::new(body))
}

/// Assembles a complete snapshot: header + named, checksummed sections.
#[derive(Debug)]
pub struct SnapshotWriter {
    fingerprint: u64,
    step: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Start a snapshot for the configuration identified by
    /// `fingerprint`, capturing the state at pipeline step `step`.
    pub fn new(fingerprint: u64, step: u64) -> Self {
        SnapshotWriter {
            fingerprint,
            step,
            sections: Vec::new(),
        }
    }

    /// Append one named section. Names must be unique; the reader indexes
    /// by name.
    pub fn add(&mut self, name: &str, body: SectionWriter) {
        debug_assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate snapshot section `{name}`"
        );
        self.sections.push((name.to_string(), body.into_bytes()));
    }

    /// Encode the complete snapshot file image.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self
                .sections
                .iter()
                .map(|(n, b)| n.len() + b.len() + 24)
                .sum::<usize>(),
        );
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, body) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            out.extend_from_slice(&checksum(body).to_le_bytes());
            out.extend_from_slice(body);
        }
        let file_sum = checksum(&out);
        out.extend_from_slice(&file_sum.to_le_bytes());
        out
    }
}

/// Parsed snapshot: verified header plus sections retrievable by name.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    fingerprint: u64,
    step: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotReader {
    /// Parse and fully verify a snapshot file image: magic, version, the
    /// file-level checksum, and every section checksum. Corruption
    /// anywhere yields an error — the caller falls back to an older
    /// snapshot.
    pub fn parse(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail_sum) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail_sum.try_into().unwrap());
        if checksum(head) != stored {
            return Err(SnapshotError::Checksum {
                section: String::new(),
            });
        }
        let mut r = SectionReader::new(&head[SNAPSHOT_MAGIC.len()..]);
        let version = r.get_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let fingerprint = r.get_u64()?;
        let step = r.get_u64()?;
        // A name length, a body length and a checksum per section.
        let count = r.get_u32()? as usize;
        let count = r.fits(count, 4 + 8 + 8, "section count")?;
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = r.get_u32()? as usize;
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| SnapshotError::Malformed("non-UTF-8 section name".into()))?;
            let body_len = r.get_u64()? as usize;
            let sum = r.get_u64()?;
            let body = r.take(body_len)?;
            if checksum(body) != sum {
                return Err(SnapshotError::Checksum { section: name });
            }
            sections.push((name, body.to_vec()));
        }
        Ok(SnapshotReader {
            fingerprint,
            step,
            sections,
        })
    }

    /// The configuration fingerprint recorded at write time.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The pipeline step the image captures.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// A decoder over the named section's body.
    pub fn section(&self, name: &str) -> Result<SectionReader<'_>, SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, body)| SectionReader::new(body))
            .ok_or_else(|| SnapshotError::MissingSection(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new(0xDEAD_BEEF, 42);
        let mut a = SectionWriter::new();
        a.put_u64(7);
        a.put_str("hello");
        a.put_f64(-0.0);
        w.add("alpha", a);
        let mut b = SectionWriter::new();
        b.put_attrs(&AttrVec::from_slice(&[1, 2, 3]).unwrap());
        b.put_time(VirtualTime(99));
        w.add("beta", b);
        w.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample();
        let snap = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(snap.fingerprint(), 0xDEAD_BEEF);
        assert_eq!(snap.step(), 42);
        let mut a = snap.section("alpha").unwrap();
        assert_eq!(a.get_u64().unwrap(), 7);
        assert_eq!(a.get_str().unwrap(), "hello");
        assert_eq!(a.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(a.remaining(), 0);
        let mut b = snap.section("beta").unwrap();
        assert_eq!(b.get_attrs().unwrap().as_slice(), &[1, 2, 3]);
        assert_eq!(b.get_time().unwrap(), VirtualTime(99));
    }

    #[test]
    fn missing_section_is_typed() {
        let bytes = sample();
        let snap = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(
            snap.section("gamma").unwrap_err(),
            SnapshotError::MissingSection("gamma".into())
        );
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut bytes = sample();
        // Flip one bit somewhere inside section bodies.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::Checksum { .. }) => {}
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample();
        for cut in [3, bytes.len() / 2, bytes.len() - 1] {
            let err = SnapshotReader::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::Checksum { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    /// A re-sealed file whose header claims more sections than its bytes
    /// can frame is `Malformed`, not a four-billion-slot allocation.
    #[test]
    fn a_section_count_the_file_cannot_hold_is_refused() {
        let mut bytes = sample();
        let at = SNAPSHOT_MAGIC.len() + 4 + 8 + 8;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let n = bytes.len();
        let sum = super::checksum(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::Malformed(why)) => assert!(why.contains("section count"), "{why}"),
            other => panic!("expected Malformed(section count), got {other:?}"),
        }
    }

    #[test]
    fn block_frame_round_trips_and_detects_corruption() {
        let mut w = SectionWriter::new();
        w.put_u32(7);
        w.put_str("payload");
        let frame = seal_block(w);
        let mut r = open_block(&frame).unwrap();
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_str().unwrap(), "payload");
        assert_eq!(r.remaining(), 0);

        // A flipped body byte fails the checksum.
        let mut torn = frame.clone();
        let n = torn.len();
        torn[n - 3] ^= 0x10;
        assert!(matches!(
            open_block(&torn),
            Err(SnapshotError::Checksum { .. })
        ));
        // A truncated frame is typed, not a panic.
        assert!(matches!(
            open_block(&frame[..frame.len() - 2]),
            Err(SnapshotError::Truncated | SnapshotError::Checksum { .. })
        ));
        // Garbage is rejected on magic.
        assert!(matches!(
            open_block(b"NOTABLOCK_AT_ALL_____"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn window_buffer_iter_and_retain() {
        use crate::window::{WindowBuffer, WindowSpec};
        let mut b = WindowBuffer::new(WindowSpec::secs(10));
        for s in 0..4u64 {
            b.push(VirtualTime::from_secs(s), s as u32);
        }
        let seen: Vec<u32> = b.iter().map(|&(_, x)| x).collect();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        b.retain(|&x| x % 2 == 0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.oldest_ts(), Some(VirtualTime::from_secs(0)));
        let left: Vec<u32> = b.iter().map(|&(_, x)| x).collect();
        assert_eq!(left, vec![0, 2]);
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(
            SnapshotReader::parse(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );

        // Corrupting the version also breaks the file checksum; rebuild a
        // valid file with a bumped version via the writer internals
        // instead: patch bytes then re-seal the tail checksum. A newer
        // revision and the four before (5: the router, tuner and `maint`
        // section kept copied or unread counters; 4: an AMRI state nested
        // its own tag and a scan state had its own; 3: a tier section
        // carried a cache-presence flag; 2: bit-address sections carried
        // links and a bucket table) are refused alike.
        for found in [SNAPSHOT_VERSION + 1, 5, 4, 3, 2] {
            let mut bytes = sample();
            bytes[8] = found as u8;
            let n = bytes.len();
            let sum = super::checksum(&bytes[..n - 8]);
            bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                SnapshotReader::parse(&bytes).unwrap_err(),
                SnapshotError::Version {
                    found,
                    expected: SNAPSHOT_VERSION
                }
            );
        }
    }
}
