//! The enhanced-suffix-array backend (Abouelhoda et al.'s "replacing
//! suffix trees with enhanced suffix arrays", adapted to OASIS).
//!
//! [`EsaIndex`] implements [`SuffixTreeAccess`] over three flat arrays —
//! the suffix array, the LCP array, and a table of lcp-intervals (the
//! internal nodes of the equivalent compact suffix tree) — instead of an
//! explicit node/child graph. Two things make it fast:
//!
//! * a **two-byte bucket LUT**: 65537 cumulative suffix-array offsets
//!   keyed by the first two symbols of a suffix (≈257 KiB), so root and
//!   depth-1 child enumeration jump straight to the matching SA region
//!   and the top two traversal levels never touch the LCP array;
//! * a **packed payload**: SA, LCP, node, and LUT words are bit-compressed
//!   to the width the text actually needs and read in place, so the
//!   persisted artifact section *is* the in-memory representation —
//!   [`EsaIndex::from_parts`] validates the bytes and serves from them
//!   directly, with no tree reconstitution on startup.
//!
//! Every traversal observable (children order, arc labels, depths, leaf
//! sets) matches the in-memory [`crate::SuffixTree`] built over the same
//! database, which is what makes hit output byte-identical across
//! backends: the search result depends only on text + query, never on
//! which substrate walked the index.
//!
//! Decode is *checked*: this module is on oasis-lint's `panic-free-serving`
//! list, so every byte access is bounds-guarded and corrupt input surfaces
//! as a typed [`EsaError`], never a panic.

use oasis_bioseq::{SequenceDatabase, TERMINATOR};

use crate::access::{fill_through_terminator, NodeHandle, SuffixTreeAccess};
use crate::lcp::lcp_kasai;
use crate::sais::suffix_array;
use crate::text::RankedText;

/// Magic prefix of a packed ESA payload.
pub const ESA_MAGIC: &[u8; 8] = b"OASISESA";

/// Payload format version this build writes and reads.
pub const ESA_VERSION: u32 = 1;

/// Fixed header size in bytes (magic, version, geometry, widths, checksum).
const HEADER_LEN: usize = 56;

/// Zero padding after the last stream so windowed 8-byte reads stay in
/// bounds for every valid bit offset.
const TAIL_PAD: usize = 8;

/// Entries in the two-byte bucket LUT: one per `(c0, c1)` key plus a
/// trailing sentinel holding the total suffix count.
const LUT_ENTRIES: usize = (1 << 16) + 1;

/// Why a packed payload was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EsaError {
    /// The payload is shorter (or longer) than its header demands.
    Truncated {
        /// Exact byte length the header implies.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The payload does not start with [`ESA_MAGIC`].
    BadMagic,
    /// The payload was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// A header field contradicts the paired database (wrong text length,
    /// wrong sequence count, impossible bit width, checksum mismatch).
    Geometry(String),
    /// A decoded stream violates a structural invariant (SA not a
    /// permutation of residue positions, buckets out of order, bad node
    /// table, …).
    Invariant(String),
}

impl std::fmt::Display for EsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EsaError::Truncated { needed, have } => {
                write!(f, "packed esa payload is {have} bytes, expected {needed}")
            }
            EsaError::BadMagic => write!(f, "not a packed esa payload (bad magic)"),
            EsaError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported esa payload version {v} (this build reads {ESA_VERSION})"
                )
            }
            EsaError::Geometry(why) => write!(f, "esa payload geometry: {why}"),
            EsaError::Invariant(why) => write!(f, "esa payload invariant: {why}"),
        }
    }
}

impl std::error::Error for EsaError {}

/// One internal node: an lcp-interval `[lb, rb)` of the suffix array at
/// string depth `depth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EsaNode {
    depth: u32,
    lb: u32,
    rb: u32,
}

/// The enhanced-suffix-array index over one [`SequenceDatabase`].
///
/// Built with [`EsaIndex::build`] or reconstituted from a persisted
/// artifact section with [`EsaIndex::from_parts`]; both paths run the
/// same validation, so a freshly built index and a loaded one are
/// indistinguishable.
#[derive(Debug, Clone)]
pub struct EsaIndex {
    /// Copy of the database text (codes + terminators) for arc labels.
    text: Vec<u8>,
    /// Sequence start offsets plus a final sentinel (== text length).
    seq_starts: Vec<u32>,
    /// The packed payload: header + bit-packed SA/LCP/node/LUT streams.
    /// SA, LCP, and node words are read from here on demand.
    payload: Vec<u8>,
    /// The two-byte bucket LUT, decoded eagerly (≈257 KiB).
    lut: Vec<u32>,
    /// Number of indexed suffixes (residue positions).
    m: u32,
    /// Number of internal nodes, root included.
    num_nodes: u32,
    sa_bits: u32,
    lcp_bits: u32,
    depth_bits: u32,
    pos_bits: u32,
    /// Bit offsets of the streams within `payload`.
    sa_off: usize,
    lcp_off: usize,
    nodes_off: usize,
}

/// Width in bits needed to store `v` (at least 1).
fn bits_for(v: u32) -> u32 {
    (32 - v.leading_zeros()).max(1)
}

/// FNV-1a 64 (same function the artifact layer uses for sections).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The LUT key of a second symbol: terminators sort before every residue
/// in the ranked text, so they map to sub-key 0 and residue `c` to `c+1`.
/// (First symbols need no mapping — indexed suffixes never start with a
/// terminator.)
fn key2(c1: u8) -> usize {
    if c1 == TERMINATOR {
        0
    } else {
        c1 as usize + 1
    }
}

/// Little-endian u32 at `at` (zero-extended past the end).
fn u32_at(bytes: &[u8], at: usize) -> u32 {
    let mut w = [0u8; 4];
    for (k, dst) in w.iter_mut().enumerate() {
        *dst = bytes.get(at + k).copied().unwrap_or(0);
    }
    u32::from_le_bytes(w)
}

/// Little-endian u64 at `at` (zero-extended past the end).
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    for (k, dst) in w.iter_mut().enumerate() {
        *dst = bytes.get(at + k).copied().unwrap_or(0);
    }
    u64::from_le_bytes(w)
}

/// Read a `width`-bit word (≤ 32 bits) at absolute bit offset `bit`.
/// Out-of-range bytes read as zero; valid payloads carry [`TAIL_PAD`]
/// trailing zero bytes, so in-bounds values always take the fast path.
fn read_word(bytes: &[u8], bit: usize, width: u32) -> u32 {
    let at = bit >> 3;
    let shift = (bit & 7) as u32;
    let word = match bytes.get(at..at + 8) {
        Some(w) => {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            u64::from_le_bytes(b)
        }
        None => u64_at(bytes, at),
    };
    let mask = if width >= 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << width) - 1
    };
    ((word >> shift) & mask) as u32
}

/// Append-only bit stream used by the encoder.
struct BitWriter {
    bytes: Vec<u8>,
    bits: usize,
}

impl BitWriter {
    fn over(bytes: Vec<u8>) -> Self {
        let bits = bytes.len() * 8;
        BitWriter { bytes, bits }
    }

    fn push(&mut self, value: u32, width: u32) {
        debug_assert!((1..=32).contains(&width));
        debug_assert!(width == 32 || u64::from(value) < (1u64 << width));
        let off = self.bits & 7;
        let mut acc = u64::from(value) << off;
        if off != 0 {
            if let Some(last) = self.bytes.pop() {
                acc |= u64::from(last);
            }
        }
        let total = off + width as usize;
        for k in 0..total.div_ceil(8) {
            self.bytes.push(((acc >> (8 * k)) & 0xff) as u8);
        }
        self.bits += width as usize;
    }

    /// Advance to the next byte boundary (streams are byte-aligned).
    fn align_byte(&mut self) {
        self.bits = self.bytes.len() * 8;
    }
}

impl EsaIndex {
    /// Build the index for `db` (SA-IS + Kasai + lcp-interval extraction),
    /// then round-trip the packed payload through [`EsaIndex::from_parts`]
    /// so build and load share one validated construction path.
    pub fn build(db: &SequenceDatabase) -> Self {
        let payload = Self::encode(db);
        match Self::from_parts(payload, db) {
            Ok(index) => index,
            Err(e) => unreachable!("freshly encoded esa payload failed validation: {e}"),
        }
    }

    /// Encode the packed payload for `db` from scratch.
    fn encode(db: &SequenceDatabase) -> Vec<u8> {
        let ranked = RankedText::from_database(db);
        let sa_full = suffix_array(ranked.ranks());
        let lcp_full = lcp_kasai(ranked.ranks(), &sa_full);

        // Separator-initial suffixes occupy a prefix block of the SA
        // (separator ranks are below all residue ranks); they carry no
        // alignment information and are excluded, exactly as in
        // `SuffixTree::from_sa_lcp`.
        let first_real = sa_full
            .iter()
            .position(|&p| !ranked.is_separator_at(p))
            .unwrap_or(sa_full.len());
        let sa = sa_full.get(first_real..).unwrap_or_default();
        let mut lcp: Vec<u32> = lcp_full.get(first_real..).unwrap_or_default().to_vec();
        if let Some(first) = lcp.first_mut() {
            // The LCP against the dropped separator block is meaningless.
            *first = 0;
        }
        let m = sa.len();
        let text = db.text();
        let text_len = db.text_len();

        // Internal nodes = lcp-intervals, found with the same stack pass
        // the tree builder uses, recorded as (depth, lb, rb).
        let mut nodes: Vec<(u32, u32, u32)> = Vec::new();
        let mut stack: Vec<(u32, u32)> = vec![(0, 0)];
        for i in 1..m {
            let l = lcp.get(i).copied().unwrap_or(0);
            // A deeper interval opened here spans both compared suffixes.
            let mut lb = (i - 1) as u32;
            while stack.last().is_some_and(|&(d, _)| d > l) {
                if let Some((d, left)) = stack.pop() {
                    nodes.push((d, left, i as u32));
                    lb = left;
                }
            }
            if stack.last().is_some_and(|&(d, _)| d < l) {
                stack.push((l, lb));
            }
        }
        while let Some((d, left)) = stack.pop() {
            nodes.push((d, left, m as u32));
        }
        // Sort by (lb, depth): the root (0, 0) comes first, and the direct
        // child of any sub-interval is the *shallowest* node sharing its
        // left boundary — a binary-searchable order.
        nodes.sort_unstable_by_key(|&(d, lb, _)| (lb, d));

        // Two-byte bucket LUT: lut[k] = first SA rank whose key ≥ k.
        let mut lut = vec![0u32; LUT_ENTRIES];
        let mut prev_key = 0usize;
        for (i, &p) in sa.iter().enumerate() {
            let c0 = text.get(p as usize).copied().unwrap_or(TERMINATOR);
            let c1 = text.get(p as usize + 1).copied().unwrap_or(TERMINATOR);
            let key = ((c0 as usize) << 8) | key2(c1);
            if let Some(span) = lut.get_mut(prev_key + 1..=key) {
                span.fill(i as u32);
            }
            prev_key = key;
        }
        if let Some(span) = lut.get_mut(prev_key + 1..) {
            span.fill(m as u32);
        }

        let sa_bits = bits_for(text_len.saturating_sub(1));
        let lcp_bits = bits_for(lcp.iter().copied().max().unwrap_or(0));
        let depth_bits = bits_for(nodes.iter().map(|n| n.0).max().unwrap_or(0));
        let pos_bits = bits_for(m as u32);
        let lut_bits = bits_for(m as u32);

        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(ESA_MAGIC);
        header.extend_from_slice(&ESA_VERSION.to_le_bytes());
        header.extend_from_slice(&text_len.to_le_bytes());
        header.extend_from_slice(&db.num_sequences().to_le_bytes());
        header.extend_from_slice(&(m as u32).to_le_bytes());
        header.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
        header.extend_from_slice(&sa_bits.to_le_bytes());
        header.extend_from_slice(&lcp_bits.to_le_bytes());
        header.extend_from_slice(&depth_bits.to_le_bytes());
        header.extend_from_slice(&pos_bits.to_le_bytes());
        header.extend_from_slice(&lut_bits.to_le_bytes());
        header.extend_from_slice(&fnv1a64(text).to_le_bytes());
        debug_assert_eq!(header.len(), HEADER_LEN);

        let mut w = BitWriter::over(header);
        for &p in sa {
            w.push(p, sa_bits);
        }
        w.align_byte();
        for &l in &lcp {
            w.push(l, lcp_bits);
        }
        w.align_byte();
        for &(d, lb, rb) in &nodes {
            w.push(d, depth_bits);
            w.push(lb, pos_bits);
            w.push(rb, pos_bits);
        }
        w.align_byte();
        for &v in &lut {
            w.push(v, lut_bits);
        }
        w.align_byte();
        w.bytes.extend_from_slice(&[0u8; TAIL_PAD]);
        w.bytes
    }

    /// Reconstitute an index from a persisted payload section and the
    /// database it must pair with. The payload is validated end to end —
    /// header geometry against `db`, text checksum (catches pairing a
    /// payload with the wrong database), SA permutation and bucket order,
    /// LCP structure, node table shape, and LUT consistency — and then
    /// served from directly; no tree is reconstituted.
    pub fn from_parts(payload: Vec<u8>, db: &SequenceDatabase) -> Result<Self, EsaError> {
        if payload.len() < HEADER_LEN {
            return Err(EsaError::Truncated {
                needed: HEADER_LEN,
                have: payload.len(),
            });
        }
        if payload.get(..8).is_none_or(|m| m != ESA_MAGIC) {
            return Err(EsaError::BadMagic);
        }
        let version = u32_at(&payload, 8);
        if version != ESA_VERSION {
            return Err(EsaError::UnsupportedVersion(version));
        }
        let text_len = u32_at(&payload, 12);
        let num_seqs = u32_at(&payload, 16);
        let m = u32_at(&payload, 20);
        let num_nodes = u32_at(&payload, 24);
        let sa_bits = u32_at(&payload, 28);
        let lcp_bits = u32_at(&payload, 32);
        let depth_bits = u32_at(&payload, 36);
        let pos_bits = u32_at(&payload, 40);
        let lut_bits = u32_at(&payload, 44);
        let text_checksum = u64_at(&payload, 48);

        if text_len != db.text_len() || num_seqs != db.num_sequences() {
            return Err(EsaError::Geometry(format!(
                "payload indexes a {text_len}-symbol/{num_seqs}-sequence text, database has \
                 {}/{}",
                db.text_len(),
                db.num_sequences()
            )));
        }
        if text_len >= 1 << 31 {
            return Err(EsaError::Geometry(
                "text length overflows node handles".into(),
            ));
        }
        if num_seqs > text_len || m != text_len - num_seqs {
            return Err(EsaError::Geometry(format!(
                "suffix count {m} does not match text length {text_len} minus {num_seqs} \
                 terminators"
            )));
        }
        for (name, bits) in [
            ("sa", sa_bits),
            ("lcp", lcp_bits),
            ("depth", depth_bits),
            ("pos", pos_bits),
            ("lut", lut_bits),
        ] {
            if !(1..=32).contains(&bits) {
                return Err(EsaError::Geometry(format!("{name} width {bits} bits")));
            }
        }
        if num_nodes == 0 || num_nodes as u64 > (m as u64).max(1) {
            return Err(EsaError::Invariant(format!(
                "{num_nodes} internal nodes over {m} suffixes"
            )));
        }
        if text_checksum != fnv1a64(db.text()) {
            return Err(EsaError::Geometry(
                "text checksum does not match the paired database".into(),
            ));
        }

        let align = |bit: u64| bit.next_multiple_of(8);
        let sa_off = (HEADER_LEN * 8) as u64;
        let lcp_off = align(sa_off + u64::from(m) * u64::from(sa_bits));
        let nodes_off = align(lcp_off + u64::from(m) * u64::from(lcp_bits));
        let rec_bits = u64::from(depth_bits) + 2 * u64::from(pos_bits);
        let lut_off = align(nodes_off + u64::from(num_nodes) * rec_bits);
        let end = align(lut_off + LUT_ENTRIES as u64 * u64::from(lut_bits));
        let needed = (end / 8) as usize + TAIL_PAD;
        if payload.len() != needed {
            return Err(EsaError::Truncated {
                needed,
                have: payload.len(),
            });
        }

        let lut: Vec<u32> = (0..LUT_ENTRIES)
            .map(|k| read_word(&payload, lut_off as usize + k * lut_bits as usize, lut_bits))
            .collect();

        let seq_starts: Vec<u32> = (0..db.num_sequences())
            .map(|i| db.seq_start(i))
            .chain(std::iter::once(db.text_len()))
            .collect();

        let index = EsaIndex {
            text: db.text().to_vec(),
            seq_starts,
            payload,
            lut,
            m,
            num_nodes,
            sa_bits,
            lcp_bits,
            depth_bits,
            pos_bits,
            sa_off: sa_off as usize,
            lcp_off: lcp_off as usize,
            nodes_off: nodes_off as usize,
        };
        index.validate()?;
        Ok(index)
    }

    /// Structural validation of the decoded streams (one O(m + nodes)
    /// pass). Bit-level integrity is the artifact layer's checksum's job;
    /// this pass catches wrong-database pairing and structurally corrupt
    /// payloads that would otherwise serve wrong results.
    fn validate(&self) -> Result<(), EsaError> {
        let m = self.m;
        let text_len = self.text.len() as u32;
        if m > 0 && self.lcp(0) != 0 {
            return Err(EsaError::Invariant("lcp[0] must be 0".into()));
        }

        // SA scan: residue positions only, each exactly once, sorted by
        // two-symbol bucket key; LCP agrees with the bucket structure;
        // the derived bucket table matches the stored LUT.
        let mut seen = vec![false; self.text.len()];
        let mut derived = vec![0u32; LUT_ENTRIES];
        let mut prev_key = 0usize;
        let mut prev_len = 0u32;
        for i in 0..m {
            let p = self.sa(i);
            if p >= text_len {
                return Err(EsaError::Invariant(format!("sa[{i}] = {p} out of range")));
            }
            let c0 = self.text_at(p);
            if c0 == TERMINATOR {
                return Err(EsaError::Invariant(format!(
                    "sa[{i}] points at a terminator position"
                )));
            }
            match seen.get_mut(p as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => return Err(EsaError::Invariant(format!("sa[{i}] repeats position {p}"))),
            }
            // Indexed suffixes have ≥ 2 symbols (a residue is always
            // followed by at least its own terminator).
            let c1 = self.text_at(p + 1);
            let key = ((c0 as usize) << 8) | key2(c1);
            let len = self.suffix_len(p);
            let l = self.lcp(i);
            if i > 0 {
                if key < prev_key {
                    return Err(EsaError::Invariant(format!(
                        "sa[{i}] breaks two-symbol bucket order"
                    )));
                }
                let same_c0 = key >> 8 == prev_key >> 8;
                let expected_ok = if !same_c0 {
                    l == 0
                } else if key != prev_key || key & 0xff == 0 {
                    // Second symbols differ — or both are terminators,
                    // which carry distinct ranks in the ranked text.
                    l == 1
                } else {
                    l >= 2
                };
                if !expected_ok || l >= len.min(prev_len) {
                    return Err(EsaError::Invariant(format!(
                        "lcp[{i}] = {l} contradicts the suffix order"
                    )));
                }
            }
            if let Some(span) = derived.get_mut(prev_key + 1..=key) {
                span.fill(i);
            }
            prev_key = key;
            prev_len = len;
        }
        if let Some(span) = derived.get_mut(prev_key + 1..) {
            span.fill(m);
        }
        if m == 0 {
            derived.fill(0);
        }
        if derived != self.lut {
            return Err(EsaError::Invariant(
                "bucket LUT does not match the suffix array".into(),
            ));
        }

        // Node table: root first, bounds sane, strictly sorted by
        // (lb, depth), every non-root interval a real branch (width ≥ 2).
        if self.node(0)
            != (EsaNode {
                depth: 0,
                lb: 0,
                rb: m,
            })
        {
            return Err(EsaError::Invariant(
                "node 0 is not the root interval".into(),
            ));
        }
        let mut prev = (0u32, 0u32);
        for idx in 0..self.num_nodes {
            let n = self.node(idx);
            if n.lb > n.rb || n.rb > m || n.depth >= text_len.max(1) {
                return Err(EsaError::Invariant(format!(
                    "node {idx} interval [{}, {}) depth {} out of range",
                    n.lb, n.rb, n.depth
                )));
            }
            if idx > 0 {
                if (n.lb, n.depth) <= prev {
                    return Err(EsaError::Invariant(format!(
                        "node table not sorted at {idx}"
                    )));
                }
                if n.rb - n.lb < 2 || n.depth == 0 {
                    return Err(EsaError::Invariant(format!(
                        "node {idx} is not a branching interval"
                    )));
                }
            }
            prev = (n.lb, n.depth);
        }
        Ok(())
    }

    /// The packed payload bytes (what the artifact layer persists).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The raw text the index serves (codes + terminators).
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// Number of indexed suffixes (== residue count == leaf count).
    pub fn num_suffixes(&self) -> u32 {
        self.m
    }

    /// The SA region of suffixes starting with `c0` (any second symbol):
    /// a LUT jump, no comparisons.
    pub fn bucket_range(&self, c0: u8) -> (u32, u32) {
        (
            self.lut_at((c0 as usize) << 8),
            self.lut_at((c0 as usize + 1) << 8),
        )
    }

    /// The SA region of suffixes starting with exactly `(c0, c1)`: a LUT
    /// jump, no comparisons. `c1 == TERMINATOR` selects the block of
    /// two-symbol suffixes `c0·$`.
    pub fn sa_range(&self, c0: u8, c1: u8) -> (u32, u32) {
        let key = ((c0 as usize) << 8) | key2(c1);
        (self.lut_at(key), self.lut_at(key + 1))
    }

    /// Suffix-array entry `i` (packed read).
    pub fn sa(&self, i: u32) -> u32 {
        debug_assert!(i < self.m);
        read_word(
            &self.payload,
            self.sa_off + i as usize * self.sa_bits as usize,
            self.sa_bits,
        )
    }

    /// LCP-array entry `i` (packed read): the LCP of `sa(i-1)` and `sa(i)`
    /// over the ranked text (0 at `i == 0`).
    pub fn lcp(&self, i: u32) -> u32 {
        debug_assert!(i < self.m);
        read_word(
            &self.payload,
            self.lcp_off + i as usize * self.lcp_bits as usize,
            self.lcp_bits,
        )
    }

    fn node(&self, idx: u32) -> EsaNode {
        debug_assert!(idx < self.num_nodes);
        let rec = (self.depth_bits + 2 * self.pos_bits) as usize;
        let at = self.nodes_off + idx as usize * rec;
        EsaNode {
            depth: read_word(&self.payload, at, self.depth_bits),
            lb: read_word(&self.payload, at + self.depth_bits as usize, self.pos_bits),
            rb: read_word(
                &self.payload,
                at + (self.depth_bits + self.pos_bits) as usize,
                self.pos_bits,
            ),
        }
    }

    fn lut_at(&self, key: usize) -> u32 {
        self.lut.get(key).copied().unwrap_or(self.m)
    }

    fn text_at(&self, pos: u32) -> u8 {
        self.text.get(pos as usize).copied().unwrap_or(TERMINATOR)
    }

    /// Suffix length (terminator included) of the suffix at `pos`.
    fn suffix_len(&self, pos: u32) -> u32 {
        let idx = self.seq_starts.partition_point(|&s| s <= pos);
        self.seq_starts
            .get(idx)
            .map(|&end| end.saturating_sub(pos))
            .unwrap_or(0)
    }

    /// String depth of node `idx`: a single packed field read.
    fn node_depth(&self, idx: u32) -> u32 {
        let rec = (self.depth_bits + 2 * self.pos_bits) as usize;
        let at = self.nodes_off + idx as usize * rec;
        read_word(&self.payload, at, self.depth_bits)
    }

    /// Left boundary of node `idx`: a single packed field read, the only
    /// field the traversal searches touch.
    fn node_lb(&self, idx: u32) -> u32 {
        let rec = (self.depth_bits + 2 * self.pos_bits) as usize;
        let at = self.nodes_off + idx as usize * rec;
        read_word(&self.payload, at + self.depth_bits as usize, self.pos_bits)
    }

    /// Right boundary of node `idx`: a single packed field read.
    fn node_rb(&self, idx: u32) -> u32 {
        let rec = (self.depth_bits + 2 * self.pos_bits) as usize;
        let at = self.nodes_off + idx as usize * rec;
        read_word(
            &self.payload,
            at + (self.depth_bits + self.pos_bits) as usize,
            self.pos_bits,
        )
    }

    /// First table index in `[lo, hi)` whose left boundary is ≥ `s`,
    /// found by galloping from `lo`. The table is strictly sorted by
    /// `(lb, depth)`, so when a node starting at `s` exists this lands on
    /// the *shallowest* one — which, searched below an enclosing
    /// interval, is exactly that interval's direct child (a shallower
    /// node starting at `s` would cross one of the parent's ℓ-indices,
    /// and lcp-intervals are laminar). Traversal advances a monotone
    /// cursor, so the target is usually within a few packed records of
    /// `lo` and the exponential bracket stays on hot cache lines instead
    /// of probing the full table.
    fn gallop_lb(&self, lo: u32, hi: u32, s: u32) -> u32 {
        if lo >= hi || self.node_lb(lo) >= s {
            return lo;
        }
        // Invariant: node_lb(base) < s.
        let mut base = lo;
        let mut step = 1u32;
        loop {
            let probe = base.saturating_add(step);
            if probe >= hi || self.node_lb(probe) >= s {
                break;
            }
            base = probe;
            step = step.saturating_mul(2);
        }
        let (mut lo2, mut hi2) = (base + 1, base.saturating_add(step).min(hi));
        while lo2 < hi2 {
            let mid = lo2 + (hi2 - lo2) / 2;
            if self.node_lb(mid) < s {
                lo2 = mid + 1;
            } else {
                hi2 = mid;
            }
        }
        lo2
    }

    /// Index of the direct child node whose interval starts at `lb`,
    /// galloping from `cursor` (exclusive lower bound: past the parent
    /// and any already-emitted sibling subtree).
    fn child_at(&self, lb: u32, cursor: u32) -> u32 {
        let j = self.gallop_lb(cursor, self.num_nodes, lb);
        debug_assert!(
            j < self.num_nodes && self.node(j).lb == lb,
            "missing child interval at lb {lb} (cursor {cursor})"
        );
        j.min(self.num_nodes.saturating_sub(1))
    }

    /// Emit the child for sub-interval `[s, e)`: a leaf if the interval
    /// is a single suffix, else the internal node sharing its left
    /// boundary, searched from `cursor`. Returns the cursor for the next
    /// sibling.
    fn push_child(&self, s: u32, e: u32, cursor: u32, out: &mut Vec<NodeHandle>) -> u32 {
        if e <= s {
            return cursor;
        }
        if e - s == 1 {
            out.push(NodeHandle::leaf(self.sa(s)));
            cursor
        } else {
            let j = self.child_at(s, cursor);
            out.push(NodeHandle::internal(j));
            j + 1
        }
    }
}

impl SuffixTreeAccess for EsaIndex {
    fn root(&self) -> NodeHandle {
        NodeHandle::internal(0)
    }

    fn text_len(&self) -> u32 {
        self.text.len() as u32
    }

    fn num_internal(&self) -> u32 {
        self.num_nodes
    }

    fn depth(&self, h: NodeHandle) -> u32 {
        if h.is_leaf() {
            self.suffix_len(h.index())
        } else {
            self.node_depth(h.index())
        }
    }

    fn children_into(&self, h: NodeHandle, out: &mut Vec<NodeHandle>) {
        out.clear();
        debug_assert!(!h.is_leaf(), "leaves have no children");
        if h.is_leaf() {
            return;
        }
        let node = self.node(h.index());
        if node.rb <= node.lb {
            return; // empty root (empty database)
        }
        match node.depth {
            0 => {
                // Root: children are the non-empty single-symbol buckets —
                // one LUT stride, no LCP scan. The cursor advances past
                // each emitted child's subtree, so lookups gallop over
                // short, just-touched spans of the node table.
                let mut cursor = h.index() + 1;
                for c0 in 0..256usize {
                    let s = self.lut_at(c0 << 8);
                    let e = self.lut_at((c0 + 1) << 8);
                    cursor = self.push_child(s, e, cursor, out);
                }
            }
            1 => {
                // Depth-1 node: its interval is exactly one first-symbol
                // bucket; children are the non-empty two-symbol blocks.
                let base = (self.text_at(self.sa(node.lb)) as usize) << 8;
                // Sub-key 0 collects the two-symbol suffixes `c0·$ᵢ`:
                // terminator ranks are pairwise distinct, so each is its
                // own leaf child.
                for i in self.lut_at(base)..self.lut_at(base + 1) {
                    out.push(NodeHandle::leaf(self.sa(i)));
                }
                let mut cursor = h.index() + 1;
                for j in 1..=255usize {
                    let s = self.lut_at(base + j);
                    let e = self.lut_at(base + j + 1);
                    cursor = self.push_child(s, e, cursor, out);
                }
            }
            _ => {
                // General case: children are read straight off the node
                // table instead of scanning the interval's LCP entries.
                // Sorted by (lb, depth), the parent's internal children
                // are the shallowest entries starting at each ℓ-index;
                // positions no child interval covers are single-suffix
                // leaves. Cost is O(children) galloped single-field
                // reads — independent of the interval width, which for
                // shallow nodes is thousands of entries.
                let idx = h.index();
                let sub_end = self.gallop_lb(idx + 1, self.num_nodes, node.rb);
                let mut cur = node.lb;
                let mut j = idx + 1;
                while cur < node.rb {
                    let next_lb = if j < sub_end {
                        self.node_lb(j).min(node.rb)
                    } else {
                        node.rb
                    };
                    if next_lb == cur {
                        out.push(NodeHandle::internal(j));
                        // Guarded advance: a validated table always has
                        // rb > lb, so this is the child's right boundary.
                        cur = self.node_rb(j).clamp(cur + 1, node.rb);
                        j = self.gallop_lb(j + 1, sub_end, cur);
                    } else {
                        for p in cur..next_lb {
                            out.push(NodeHandle::leaf(self.sa(p)));
                        }
                        cur = next_lb;
                    }
                }
            }
        }
    }

    fn arc_fill(&self, parent_depth: u32, h: NodeHandle, offset: u32, out: &mut [u8]) -> usize {
        if h.is_leaf() && offset == 0 {
            let start = h.index().saturating_add(parent_depth) as usize;
            return self
                .text
                .get(start..)
                .map_or(0, |src| fill_through_terminator(src, out));
        }
        let (witness, depth) = if h.is_leaf() {
            (h.index(), self.suffix_len(h.index()))
        } else {
            let idx = h.index();
            (self.sa(self.node_lb(idx)), self.node_depth(idx))
        };
        debug_assert!(parent_depth < depth, "arc must be non-empty");
        let start = witness.saturating_add(parent_depth).saturating_add(offset);
        let end = witness.saturating_add(depth);
        if start >= end {
            return 0;
        }
        let take = ((end - start) as usize).min(out.len());
        match (
            out.get_mut(..take),
            self.text.get(start as usize..start as usize + take),
        ) {
            (Some(dst), Some(src)) => {
                dst.copy_from_slice(src);
                take
            }
            _ => 0,
        }
    }

    fn leaves_under(&self, h: NodeHandle, visit: &mut dyn FnMut(u32)) {
        if h.is_leaf() {
            visit(h.index());
            return;
        }
        let n = self.node(h.index());
        // The interval *is* the leaf set — no subtree walk.
        for i in n.lb..n.rb {
            visit(self.sa(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SuffixTree;
    use oasis_bioseq::{Alphabet, DatabaseBuilder};

    fn db(seqs: &[&str]) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    /// Collect every leaf's full path label by walking arcs from the root.
    fn all_leaf_paths<T: SuffixTreeAccess>(tree: &T) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut stack = vec![(tree.root(), Vec::new())];
        let mut kids = Vec::new();
        while let Some((h, prefix)) = stack.pop() {
            if h.is_leaf() {
                out.push(prefix);
                continue;
            }
            tree.children_into(h, &mut kids);
            let depth = tree.depth(h);
            for &c in kids.iter() {
                let mut p = prefix.clone();
                p.extend(tree.arc_label(depth, c));
                stack.push((c, p));
            }
        }
        out.sort();
        out
    }

    /// Walk both indexes in lockstep and compare every traversal
    /// observable: child count and order, arc labels, depths, leaf sets.
    fn assert_structurally_equal(tree: &SuffixTree, esa: &EsaIndex) {
        assert_eq!(tree.text_len(), esa.text_len());
        assert_eq!(tree.num_internal(), esa.num_internal());
        let mut stack = vec![(tree.root(), esa.root())];
        let (mut tk, mut ek) = (Vec::new(), Vec::new());
        while let Some((th, eh)) = stack.pop() {
            assert_eq!(tree.depth(th), esa.depth(eh));
            if th.is_leaf() || eh.is_leaf() {
                assert_eq!(th, eh, "leaf handles are text positions");
                continue;
            }
            assert_eq!(tree.collect_leaves(th), esa.collect_leaves(eh));
            tree.children_into(th, &mut tk);
            esa.children_into(eh, &mut ek);
            assert_eq!(tk.len(), ek.len(), "child count");
            let depth = tree.depth(th);
            for (&tc, &ec) in tk.iter().zip(ek.iter()) {
                assert_eq!(
                    tree.arc_label(depth, tc),
                    esa.arc_label(depth, ec),
                    "arc labels in order"
                );
                stack.push((tc, ec));
            }
        }
    }

    #[test]
    fn figure2_matches_tree() {
        let d = db(&["AGTACGCCTAG"]);
        let tree = SuffixTree::build(&d);
        let esa = EsaIndex::build(&d);
        assert_eq!(esa.num_suffixes(), 11);
        assert_eq!(esa.num_internal(), 6);
        assert_structurally_equal(&tree, &esa);
        assert_eq!(all_leaf_paths(&tree), all_leaf_paths(&esa));
    }

    #[test]
    fn multi_sequence_matches_tree() {
        let d = db(&["ACGT", "CGTA", "GT", "ACGT", "A"]);
        let tree = SuffixTree::build(&d);
        let esa = EsaIndex::build(&d);
        assert_structurally_equal(&tree, &esa);
    }

    #[test]
    fn protein_alphabet_matches_tree() {
        let mut b = DatabaseBuilder::new(Alphabet::protein());
        b.push_str("p0", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ")
            .unwrap();
        b.push_str("p1", "MKTAYIAKQR").unwrap();
        let d = b.finish();
        let tree = SuffixTree::build(&d);
        let esa = EsaIndex::build(&d);
        assert_structurally_equal(&tree, &esa);
    }

    #[test]
    fn empty_database() {
        let d = DatabaseBuilder::new(Alphabet::dna()).finish();
        let esa = EsaIndex::build(&d);
        assert_eq!(esa.num_suffixes(), 0);
        assert_eq!(esa.num_internal(), 1);
        let mut kids = Vec::new();
        esa.children_into(esa.root(), &mut kids);
        assert!(kids.is_empty());
    }

    #[test]
    fn single_symbol_sequence() {
        let d = db(&["A"]);
        let esa = EsaIndex::build(&d);
        let tree = SuffixTree::build(&d);
        assert_structurally_equal(&tree, &esa);
    }

    #[test]
    fn sa_range_matches_naive_binary_search() {
        let d = db(&["AGTACGCCTAG", "TACCG", "GGTAGG"]);
        let esa = EsaIndex::build(&d);
        let m = esa.num_suffixes();
        let text = d.text();
        // Rank of the two-symbol prefix at SA entry i, mirroring key2.
        let rank2 = |i: u32| {
            let p = esa.sa(i) as usize;
            ((text[p] as usize) << 8) | key2(text[p + 1])
        };
        for c0 in 0..=255u8 {
            for c1 in [0u8, 1, 2, 3, 17, TERMINATOR] {
                let key = ((c0 as usize) << 8) | key2(c1);
                let lo = (0..m).find(|&i| rank2(i) >= key).unwrap_or(m);
                let hi = (0..m).find(|&i| rank2(i) > key).unwrap_or(m);
                assert_eq!(esa.sa_range(c0, c1), (lo, hi), "c0={c0} c1={c1}");
            }
        }
    }

    #[test]
    fn payload_roundtrips_through_from_parts() {
        let d = db(&["ACGTACGTTGCAGT", "GTACCA", "ACACACAC"]);
        let built = EsaIndex::build(&d);
        let reloaded = EsaIndex::from_parts(built.payload().to_vec(), &d).unwrap();
        assert_eq!(built.payload(), reloaded.payload());
        let tree = SuffixTree::build(&d);
        assert_structurally_equal(&tree, &reloaded);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let d = db(&["ACGTACGT", "GTAC"]);
        let payload = EsaIndex::build(&d).payload().to_vec();
        for keep in [0, 7, HEADER_LEN - 1, HEADER_LEN, payload.len() - 1] {
            let cut = payload[..keep].to_vec();
            match EsaIndex::from_parts(cut, &d) {
                Err(EsaError::Truncated { .. }) => {}
                other => panic!("keep={keep}: expected Truncated, got {other:?}"),
            }
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert!(matches!(
            EsaIndex::from_parts(extended, &d),
            Err(EsaError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let d = db(&["ACGTACGT"]);
        let payload = EsaIndex::build(&d).payload().to_vec();
        let mut bad_magic = payload.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            EsaIndex::from_parts(bad_magic, &d).unwrap_err(),
            EsaError::BadMagic
        );
        let mut bad_version = payload.clone();
        bad_version[8] = 99;
        assert_eq!(
            EsaIndex::from_parts(bad_version, &d).unwrap_err(),
            EsaError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn wrong_database_pairing_is_rejected() {
        // Same text length, different content: caught by the checksum.
        let d1 = db(&["ACGTACGT"]);
        let d2 = db(&["ACGTACGA"]);
        let payload = EsaIndex::build(&d1).payload().to_vec();
        assert!(matches!(
            EsaIndex::from_parts(payload, &d2),
            Err(EsaError::Geometry(_))
        ));
        // Different geometry entirely.
        let d3 = db(&["ACGT", "ACGT"]);
        let payload = EsaIndex::build(&d1).payload().to_vec();
        assert!(matches!(
            EsaIndex::from_parts(payload, &d3),
            Err(EsaError::Geometry(_))
        ));
    }

    #[test]
    fn corrupted_streams_are_rejected() {
        let d = db(&["ACGTACGTTGCA", "GTACCA"]);
        let good = EsaIndex::build(&d).payload().to_vec();
        // Flip bytes past the header — densely through the SA/LCP/node
        // streams, sampled through the (large) LUT stream; each must be
        // rejected (SA/LCP/node/LUT invariants) or decode identically
        // (padding / alignment slack) — never panic, never serve quietly
        // corrupted structure.
        let dense = (good.len() - HEADER_LEN).min(512);
        let positions =
            (HEADER_LEN..HEADER_LEN + dense).chain((HEADER_LEN + dense..good.len()).step_by(251));
        let mut rejected = 0;
        for at in positions {
            let mut bad = good.clone();
            bad[at] ^= 0x55;
            match EsaIndex::from_parts(bad, &d) {
                Err(_) => rejected += 1,
                Ok(ix) => assert_eq!(ix.payload()[at], good[at] ^ 0x55),
            }
        }
        assert!(rejected > 0, "no stream corruption was ever rejected");
    }

    #[test]
    fn display_formats_are_stable() {
        let e = EsaError::Truncated {
            needed: 56,
            have: 3,
        };
        assert_eq!(e.to_string(), "packed esa payload is 3 bytes, expected 56");
        assert!(EsaError::UnsupportedVersion(9)
            .to_string()
            .contains("version 9"));
    }
}
