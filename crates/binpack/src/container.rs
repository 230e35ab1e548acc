//! The indexed small-file container format: the on-disk shape of a packed
//! bin.
//!
//! The paper concatenates small files into opaque unit files; a consumer
//! that later wants *one* member back has to scan the whole unit. This
//! module keeps the paper's large sequential payloads but appends an
//! **in-footer metadata index** (modeled on Hadoop Perfect File's direct
//! in-disc metadata access), so any member is recoverable in O(1) reads
//! without unpacking:
//!
//! ```text
//! offset 0 ┌────────────────────────────────────────────────┐
//!          │ member 0 payload │ member 1 payload │ …        │  payload region
//! index    ├────────────────────────────────────────────────┤
//! offset   │ entry 0 │ entry 1 │ …                          │  index: 28 B/member
//!          │   name_hash u64 · offset u64 · len u64 · crc u32│
//!          ├────────────────────────────────────────────────┤
//!          │ index_offset u64 │ member_count u64            │  footer: 32 B
//!          │ version u32 │ footer_crc u32 │ magic "RSHPCNT1"│
//! EOF      └────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. `footer_crc` covers the index bytes plus
//! the footer's first 20 bytes, so a reader validates the metadata before
//! trusting a single offset; per-member CRCs cover each payload and are
//! checked on access. A reader seeks to `EOF − 32`, validates magic,
//! version and CRC, loads the index, and binary-searches the hash-sorted
//! lookup table — no payload byte is touched until a member is actually
//! read.
//!
//! Writing is append-only and deterministic: the container bytes are a pure
//! function of the `(name, payload)` sequence, which the streaming-ingest
//! replay tests rely on (same seeded arrival trace ⇒ byte-identical
//! containers). Corruption is always a typed [`ContainerError`], never a
//! panic: truncated footers, foreign magic, CRC mismatches and overlapping
//! index extents are each pinned by committed golden fixtures in
//! `tests/container_format.rs`.

use std::collections::BTreeSet;

use crate::item::Bin;

/// Magic trailer identifying a reshape container, last 8 bytes of the file.
pub const MAGIC: [u8; 8] = *b"RSHPCNT1";

/// Container format version stamped into (and demanded from) the footer.
pub const FORMAT_VERSION: u32 = 1;

/// Size of one index entry in bytes: name hash + offset + length + CRC.
pub const INDEX_ENTRY_BYTES: u64 = 28;

/// Size of the fixed footer in bytes.
pub const FOOTER_BYTES: u64 = 32;

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i: u32 = 0;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i as usize] = c;
        i += 1;
    }
    table
}

/// Streaming CRC-32 (IEEE 802.3) state, for checksums spanning multiple
/// slices without concatenating them.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            let idx = ((c ^ u32::from(b)) & 0xFF) as usize;
            c = CRC_TABLE[idx] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// CRC-32 (IEEE) of one slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// FNV-1a 64-bit hash of a member name — the index key. Pure function of
/// the name bytes, so lookups are machine-independent. `binpack` depends on
/// no workspace crate, so it keeps its own FNV-1a; the workspace test
/// `seeded_hashes` pins it to `corpus::hash::fnv1a`.
pub fn member_name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One index entry: where a member's payload lives and how to verify it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberEntry {
    /// [`member_name_hash`] of the member name.
    pub name_hash: u64,
    /// Absolute payload offset from the start of the container.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

/// Everything that can go wrong writing or reading a container. Corrupt
/// input is always reported as a typed error — no code path panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The blob is shorter than the fixed footer.
    TruncatedFooter {
        /// Actual blob length in bytes.
        len: u64,
    },
    /// The trailing magic is not [`MAGIC`].
    BadMagic {
        /// The 8 bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The footer names a format version this reader does not speak.
    UnsupportedVersion {
        /// The version found in the footer.
        found: u32,
    },
    /// The footer's index geometry does not fit inside the blob.
    IndexOutOfBounds {
        /// Recorded index offset.
        index_offset: u64,
        /// Recorded member count.
        members: u64,
        /// Actual blob length.
        len: u64,
    },
    /// The footer CRC does not match the index + footer bytes.
    FooterCrcMismatch {
        /// CRC recorded in the footer.
        recorded: u32,
        /// CRC recomputed from the bytes.
        actual: u32,
    },
    /// An index entry points outside the payload region.
    ExtentOutOfBounds {
        /// Index position of the offending entry.
        member: usize,
    },
    /// Two index entries claim overlapping payload extents.
    OverlappingExtent {
        /// Index position of the earlier-offset entry.
        first: usize,
        /// Index position of the overlapping entry.
        second: usize,
    },
    /// Two index entries carry the same name hash — lookups would be
    /// ambiguous.
    DuplicateName {
        /// The colliding hash.
        name_hash: u64,
    },
    /// The writer was handed the same member name twice.
    DuplicateMember {
        /// The repeated name.
        name: String,
    },
    /// No member with this name exists in the container.
    MemberNotFound {
        /// The name that was looked up.
        name: String,
    },
    /// A member payload fails its recorded CRC.
    MemberCrcMismatch {
        /// Index position of the corrupt member.
        member: usize,
        /// CRC recorded in the index.
        recorded: u32,
        /// CRC recomputed from the payload.
        actual: u32,
    },
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::TruncatedFooter { len } => {
                write!(
                    f,
                    "container truncated: {len} bytes, footer needs {FOOTER_BYTES}"
                )
            }
            ContainerError::BadMagic { found } => {
                write!(f, "bad container magic {found:02x?}")
            }
            ContainerError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported container version {found} (reader speaks {FORMAT_VERSION})"
                )
            }
            ContainerError::IndexOutOfBounds {
                index_offset,
                members,
                len,
            } => write!(
                f,
                "index ({members} members at offset {index_offset}) does not fit in {len} bytes"
            ),
            ContainerError::FooterCrcMismatch { recorded, actual } => {
                write!(f, "footer CRC {recorded:#010x} != computed {actual:#010x}")
            }
            ContainerError::ExtentOutOfBounds { member } => {
                write!(
                    f,
                    "member {member} extent reaches outside the payload region"
                )
            }
            ContainerError::OverlappingExtent { first, second } => {
                write!(f, "members {first} and {second} claim overlapping extents")
            }
            ContainerError::DuplicateName { name_hash } => {
                write!(f, "two members share name hash {name_hash:#018x}")
            }
            ContainerError::DuplicateMember { name } => {
                write!(f, "member {name:?} added twice")
            }
            ContainerError::MemberNotFound { name } => {
                write!(f, "no member named {name:?}")
            }
            ContainerError::MemberCrcMismatch {
                member,
                recorded,
                actual,
            } => write!(
                f,
                "member {member} payload CRC {actual:#010x} != recorded {recorded:#010x}"
            ),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Append-only container writer. Members are laid out in `add` order; the
/// output bytes are a pure function of the `(name, payload)` sequence.
#[derive(Debug, Clone, Default)]
pub struct ContainerWriter {
    payload: Vec<u8>,
    entries: Vec<MemberEntry>,
    seen: BTreeSet<u64>,
}

impl ContainerWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ContainerWriter::default()
    }

    /// Append one member. Names must be unique within a container (the
    /// index keys on the name hash, so a collision would shadow a member).
    pub fn add(&mut self, name: &str, payload: &[u8]) -> Result<(), ContainerError> {
        let name_hash = member_name_hash(name);
        if !self.seen.insert(name_hash) {
            return Err(ContainerError::DuplicateMember {
                name: name.to_string(),
            });
        }
        let offset = self.payload.len() as u64;
        self.entries.push(MemberEntry {
            name_hash,
            offset,
            len: payload.len() as u64,
            crc: crc32(payload),
        });
        self.payload.extend_from_slice(payload);
        Ok(())
    }

    /// Number of members added so far.
    pub fn member_count(&self) -> usize {
        self.entries.len()
    }

    /// Payload bytes accumulated so far (excludes index + footer overhead).
    pub fn payload_bytes(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Seal the container: append the index and footer and return the
    /// complete blob.
    pub fn finish(self) -> Vec<u8> {
        let mut out = self.payload;
        let index_offset = out.len() as u64;
        let index_start = out.len();
        for e in &self.entries {
            out.extend_from_slice(&e.name_hash.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.crc.to_le_bytes());
        }
        let mut footer_head = Vec::with_capacity(20);
        footer_head.extend_from_slice(&index_offset.to_le_bytes());
        footer_head.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        footer_head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&out[index_start..]);
        crc.update(&footer_head);
        out.extend_from_slice(&footer_head);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out.extend_from_slice(&MAGIC);
        out
    }
}

/// A parsed, validated view over container bytes. Parsing touches only the
/// footer and index; member payloads are read (and CRC-checked) on access.
#[derive(Debug, Clone)]
pub struct Container<'a> {
    data: &'a [u8],
    entries: Vec<MemberEntry>,
    /// `(name_hash, index position)` sorted by hash, for binary search.
    by_hash: Vec<(u64, usize)>,
    payload_end: u64,
}

fn read_u64(data: &[u8], at: usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let slice = data.get(at..end)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(slice);
    Some(u64::from_le_bytes(buf))
}

fn read_u32(data: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let slice = data.get(at..end)?;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(slice);
    Some(u32::from_le_bytes(buf))
}

impl<'a> Container<'a> {
    /// Parse and validate `data` as a container: footer geometry, magic,
    /// version, footer CRC, and index extents (in-bounds, non-overlapping,
    /// hash-unique). Member payload CRCs are checked lazily on access; use
    /// [`verify`](Self::verify) to check them all eagerly.
    pub fn parse(data: &'a [u8]) -> Result<Self, ContainerError> {
        let len = data.len() as u64;
        if len < FOOTER_BYTES {
            return Err(ContainerError::TruncatedFooter { len });
        }
        let footer_at = data.len() - 32;
        let magic_at = data.len() - 8;
        let mut found = [0u8; 8];
        found.copy_from_slice(&data[magic_at..]);
        if found != MAGIC {
            return Err(ContainerError::BadMagic { found });
        }
        let index_offset = read_u64(data, footer_at).unwrap_or(u64::MAX);
        let members = read_u64(data, footer_at + 8).unwrap_or(u64::MAX);
        let version = read_u32(data, footer_at + 16).unwrap_or(0);
        let recorded_crc = read_u32(data, footer_at + 20).unwrap_or(0);
        if version != FORMAT_VERSION {
            return Err(ContainerError::UnsupportedVersion { found: version });
        }
        // The footer pins the exact geometry: payloads, then the index,
        // then the footer, nothing else. Anything that does not add up is
        // structural corruption.
        let index_bytes = members.checked_mul(INDEX_ENTRY_BYTES);
        let expected_len = index_bytes
            .and_then(|ib| index_offset.checked_add(ib))
            .and_then(|e| e.checked_add(FOOTER_BYTES));
        if expected_len != Some(len) {
            return Err(ContainerError::IndexOutOfBounds {
                index_offset,
                members,
                len,
            });
        }
        let index_start =
            usize::try_from(index_offset).map_err(|_| ContainerError::IndexOutOfBounds {
                index_offset,
                members,
                len,
            })?;
        let mut crc = Crc32::new();
        crc.update(&data[index_start..footer_at]);
        crc.update(&data[footer_at..footer_at + 20]);
        let actual = crc.finish();
        if actual != recorded_crc {
            return Err(ContainerError::FooterCrcMismatch {
                recorded: recorded_crc,
                actual,
            });
        }
        let member_count =
            usize::try_from(members).map_err(|_| ContainerError::IndexOutOfBounds {
                index_offset,
                members,
                len,
            })?;
        let mut entries = Vec::with_capacity(member_count);
        for i in 0..member_count {
            let at = index_start + i * 28;
            let entry = (|| {
                Some(MemberEntry {
                    name_hash: read_u64(data, at)?,
                    offset: read_u64(data, at + 8)?,
                    len: read_u64(data, at + 16)?,
                    crc: read_u32(data, at + 24)?,
                })
            })();
            match entry {
                Some(e) => entries.push(e),
                None => {
                    return Err(ContainerError::IndexOutOfBounds {
                        index_offset,
                        members,
                        len,
                    })
                }
            }
        }
        // Extents must sit inside the payload region and never overlap.
        for (i, e) in entries.iter().enumerate() {
            let end = e.offset.checked_add(e.len);
            match end {
                Some(end) if end <= index_offset => {}
                _ => return Err(ContainerError::ExtentOutOfBounds { member: i }),
            }
        }
        let mut by_offset: Vec<usize> = (0..entries.len()).collect();
        by_offset.sort_by_key(|&i| (entries[i].offset, entries[i].len));
        for w in by_offset.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Entries are offset-sorted, so overlap means a's end passes
            // b's start. Zero-length members may share an offset freely.
            if entries[a].offset + entries[a].len > entries[b].offset && entries[b].len > 0 {
                return Err(ContainerError::OverlappingExtent {
                    first: a.min(b),
                    second: a.max(b),
                });
            }
        }
        let mut by_hash: Vec<(u64, usize)> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name_hash, i))
            .collect();
        by_hash.sort_unstable();
        for w in by_hash.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(ContainerError::DuplicateName { name_hash: w[0].0 });
            }
        }
        Ok(Container {
            data,
            entries,
            by_hash,
            payload_end: index_offset,
        })
    }

    /// Number of members in the container.
    pub fn member_count(&self) -> usize {
        self.entries.len()
    }

    /// Total payload bytes (the size of the payload region).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_end
    }

    /// The index entries, in member (layout) order.
    pub fn entries(&self) -> &[MemberEntry] {
        &self.entries
    }

    /// Payload of member `i` (layout order), CRC-verified.
    pub fn member(&self, i: usize) -> Result<&'a [u8], ContainerError> {
        let e = self
            .entries
            .get(i)
            .ok_or(ContainerError::ExtentOutOfBounds { member: i })?;
        // Extents were bounds-checked at parse; convert for slicing.
        let start = usize::try_from(e.offset)
            .map_err(|_| ContainerError::ExtentOutOfBounds { member: i })?;
        let len =
            usize::try_from(e.len).map_err(|_| ContainerError::ExtentOutOfBounds { member: i })?;
        let bytes = self
            .data
            .get(start..start + len)
            .ok_or(ContainerError::ExtentOutOfBounds { member: i })?;
        let actual = crc32(bytes);
        if actual != e.crc {
            return Err(ContainerError::MemberCrcMismatch {
                member: i,
                recorded: e.crc,
                actual,
            });
        }
        Ok(bytes)
    }

    /// Look a member up by name: one binary search over the hash-sorted
    /// index, then one CRC-verified payload read — no payload scan.
    pub fn get(&self, name: &str) -> Result<&'a [u8], ContainerError> {
        let hash = member_name_hash(name);
        match self.by_hash.binary_search_by_key(&hash, |&(h, _)| h) {
            Ok(pos) => self.member(self.by_hash[pos].1),
            Err(_) => Err(ContainerError::MemberNotFound {
                name: name.to_string(),
            }),
        }
    }

    /// Eagerly CRC-verify every member payload.
    pub fn verify(&self) -> Result<(), ContainerError> {
        for i in 0..self.entries.len() {
            self.member(i)?;
        }
        Ok(())
    }
}

/// Serialize one packed bin as a container: every member of `bin`, looked
/// up in `packed` (the slice the packing was built from), becomes a
/// container member, in bin (concatenation) order, named and filled by the
/// supplied closures. This is the bridge between the packing layer (which
/// sees only sizes) and the storage layer (which holds bytes): the
/// streaming ingest sink uses it to turn sealed bins into unit files.
pub fn container_from_bin<T>(
    bin: Bin<'_>,
    packed: &[T],
    name_of: impl Fn(&T) -> String,
    payload_of: impl Fn(&T) -> Vec<u8>,
) -> Result<Vec<u8>, ContainerError> {
    let mut w = ContainerWriter::new();
    for item in bin.items(packed) {
        w.add(&name_of(item), &payload_of(item))?;
    }
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.add("a.txt", b"alpha").unwrap();
        w.add("b.txt", b"").unwrap();
        w.add("c.txt", b"carol-content").unwrap();
        w.finish()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_recovers_every_member() {
        let blob = sample();
        let c = Container::parse(&blob).unwrap();
        assert_eq!(c.member_count(), 3);
        assert_eq!(c.get("a.txt").unwrap(), b"alpha");
        assert_eq!(c.get("b.txt").unwrap(), b"");
        assert_eq!(c.get("c.txt").unwrap(), b"carol-content");
        assert_eq!(c.payload_bytes(), 5 + 13);
        c.verify().unwrap();
    }

    #[test]
    fn missing_member_is_typed() {
        let blob = sample();
        let c = Container::parse(&blob).unwrap();
        assert!(matches!(
            c.get("nope"),
            Err(ContainerError::MemberNotFound { .. })
        ));
    }

    #[test]
    fn duplicate_member_rejected_at_write() {
        let mut w = ContainerWriter::new();
        w.add("x", b"1").unwrap();
        assert!(matches!(
            w.add("x", b"2"),
            Err(ContainerError::DuplicateMember { .. })
        ));
    }

    #[test]
    fn empty_container_roundtrips() {
        let blob = ContainerWriter::new().finish();
        assert_eq!(blob.len() as u64, FOOTER_BYTES);
        let c = Container::parse(&blob).unwrap();
        assert_eq!(c.member_count(), 0);
        c.verify().unwrap();
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn container_from_bin_orders_members_like_the_bin() {
        let items = [Item::new(2, 5), Item::new(7, 3)];
        let mut p = crate::Packing::new(100);
        p.push_bin([1, 0], 8);
        let blob = container_from_bin(
            p.bin(0),
            &items,
            |it| format!("file-{}", it.id),
            |it| vec![u8::try_from(it.id & 0xFF).unwrap_or(0); it.size as usize],
        )
        .unwrap();
        let c = Container::parse(&blob).unwrap();
        assert_eq!(c.member_count(), 2);
        assert_eq!(c.entries()[0].name_hash, member_name_hash("file-7"));
        assert_eq!(c.get("file-2").unwrap(), &[2u8; 5][..]);
    }
}
