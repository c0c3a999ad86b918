//! Cache-key derivation and artifact codecs for the persistent store.
//!
//! This module is the bridge between the pipeline's in-memory state and
//! `mc-store`'s content-addressed blobs. Three artifact kinds are
//! persisted by the pipeline (see [`mc_store::ArtifactKind`]):
//!
//! * **Tokenization** — the shared token order (`id → rank` table) plus
//!   both tables' per-attribute sorted rank columns, keyed by the two
//!   input tables' content digests, the promising attribute list and the
//!   tokenizer. Loading it skips the `mc.strsim.dict.build` pass
//!   entirely.
//! * **Postings** — one side's flat CSR record arena for one config in
//!   the alignment-padded zero-copy layout ([`encode_arena_zc`]), keyed
//!   by the tokenization key plus side and config positions: warm starts
//!   memory-map the file and point the join at its pages in place
//!   ([`map_arena`]) instead of decoding. A mapped payload that fails
//!   validation is a miss, and the arena is rebuilt. The pipeline no
//!   longer reads or writes the byte-codec **Arena** kind
//!   ([`encode_arena`]/[`decode_arena`]); store format v2 reads every
//!   artifact older builds wrote as a miss anyway. The codec stays for
//!   tools that replay or test the store.
//! * **CandidateUnion** — the joint stage's entire output (config masks,
//!   `q_used`, the deduplicated pair list and per-config score matrix),
//!   keyed by the tokenization key, the config-tree shape, every
//!   result-affecting [`JointParams`] field (`k`, measure, `q`) and an
//!   order-independent digest of the killed set `C`. The worker-thread
//!   count is deliberately **excluded**: the joint stage is
//!   bit-deterministic across thread counts (see [`crate::joint`]'s
//!   module docs), so a union computed with 8 threads is byte-valid for
//!   a 1-thread rerun.
//!
//! Every decoder returns `Option` and validates structural invariants
//! (shapes, sortedness, offset monotonicity), so a corrupt artifact that
//! somehow passed the store's checksum still degrades to a cache miss
//! rather than a panic.

use crate::config::{Config, ConfigTree};
use crate::joint::{CandidateUnion, JointParams, QStrategy};
use mc_store::{ByteReader, ByteWriter, Digest, DigestWriter, MappedPayload};
use mc_strsim::arena::{RecordArena, StableBytes};
use mc_strsim::dict::{TokenOrder, TokenizedTable};
use mc_strsim::measures::SetMeasure;
use mc_strsim::tokenize::Tokenizer;
use mc_table::digest::digest_u64_set;
use mc_table::{pair_key, AttrId, PairSet, Table};

/// Stable tag per measure (keys must not depend on enum declaration
/// order surviving refactors).
fn measure_tag(m: SetMeasure) -> u8 {
    match m {
        SetMeasure::Jaccard => 0,
        SetMeasure::Cosine => 1,
        SetMeasure::Dice => 2,
        SetMeasure::Overlap => 3,
    }
}

/// Stable `(kind, q)` tag per tokenizer.
fn tokenizer_tag(t: Tokenizer) -> (u8, u8) {
    match t {
        Tokenizer::Word => (0, 0),
        Tokenizer::QGram(q) => (1, q),
    }
}

/// Both tables' content digests, hashed on two workers when the CPU
/// budget has a free slot. On a cold prepare neither digest is memoized
/// yet and each is a full pass over its table's values; a memoized
/// digest returns at once.
pub(crate) fn content_digests(a: &Table, b: &Table) -> (Digest, Digest) {
    let d = mc_obs::par::map(&[a, b], 2, |t| t.content_digest());
    (d[0], d[1])
}

/// Key of the tokenization artifact: input bytes (via the tables'
/// content digests), the promising attribute list, and the tokenizer.
pub fn tok_key(
    digest_a: Digest,
    digest_b: Digest,
    attrs: &[AttrId],
    tokenizer: Tokenizer,
) -> Digest {
    let mut w = DigestWriter::new();
    w.write_str("mc-store/tok/v1");
    w.write_digest(digest_a);
    w.write_digest(digest_b);
    w.write_u64(attrs.len() as u64);
    for a in attrs {
        w.write_u32(a.0 as u32);
    }
    let (kind, q) = tokenizer_tag(tokenizer);
    w.write_u8(kind);
    w.write_u8(q);
    w.finish()
}

/// Key of one side's record arena for one config. `side` is 0 for table
/// A, 1 for table B; `positions` are the config's positions into the
/// promising set.
pub fn arena_key(tok: Digest, side: u8, positions: &[usize]) -> Digest {
    let mut w = DigestWriter::new();
    w.write_str("mc-store/arena/v1");
    w.write_digest(tok);
    w.write_u8(side);
    w.write_u64(positions.len() as u64);
    for &p in positions {
        w.write_u32(p as u32);
    }
    w.finish()
}

/// Key of the joint stage's candidate union. Covers everything that can
/// change the union — tree shape, `k`, measure, `q` strategy and the
/// killed set — but **not** the thread count (the joint stage is
/// bit-deterministic across thread counts).
///
/// A [`crate::incr::DebugSession`] publishes its reports' unions under
/// this same key, so a one-shot run over the same inputs and parameters
/// starts warm from a union a session published.
pub fn union_key(tok: Digest, tree: &ConfigTree, params: &JointParams, killed: &PairSet) -> Digest {
    let mut w = DigestWriter::new();
    w.write_str("mc-store/union/v1");
    w.write_digest(tok);
    let configs = tree.configs();
    w.write_u64(configs.len() as u64);
    for (i, c) in configs.iter().enumerate() {
        w.write_u32(c.mask());
        // Parent links change no list (each is its own config's exact
        // top-k); they stay in the key so existing stores keep theirs.
        w.write_u32(tree.parent(i).map_or(u32::MAX, |p| p as u32));
    }
    w.write_u64(params.k as u64);
    w.write_u8(measure_tag(params.measure));
    match params.q {
        QStrategy::Fixed(q) => {
            w.write_u8(0);
            w.write_u64(q as u64);
            w.write_u64(0);
        }
        QStrategy::Auto { max_q, prelude_k } => {
            w.write_u8(1);
            w.write_u64(max_q as u64);
            w.write_u64(prelude_k as u64);
        }
    }
    // The reuse-off setting of knobs the joint stage no longer has
    // (overlap DB, list seeding, average-length gate), as constants:
    // every existing key keeps its value, so stores that sessions
    // published stay warm.
    w.write_u8(0);
    w.write_u8(0);
    w.write_f64(20.0);
    // `PairSet` iterates in hash order; fold through the
    // order-independent set digest so every iteration order keys alike.
    w.write_digest(digest_u64_set(killed.iter().map(|(a, b)| pair_key(a, b))));
    w.finish()
}

/// Writes one rank column as CSR: `offsets` (length `rows + 1`), then
/// the flattened tokens.
fn put_csr(w: &mut ByteWriter, col: &RecordArena) {
    if !col.is_compact() {
        // A session-patched column: lay its live records back to back.
        let mut compact = col.clone();
        compact.compact();
        return put_csr(w, &compact);
    }
    w.put_u32_slice(col.offsets());
    w.put_u32_slice(col.tokens());
}

/// Reads one CSR column straight into a record arena, validating the
/// offsets invariant and per-record sortedness
/// ([`RecordArena::from_parts`]).
fn get_csr(r: &mut ByteReader<'_>, rows: usize) -> Option<RecordArena> {
    let offsets = r.get_u32_vec()?;
    let tokens = r.get_u32_vec()?;
    if offsets.len() != rows.checked_add(1)? {
        return None;
    }
    RecordArena::from_parts(tokens, offsets)
}

/// Encodes the tokenization artifact: rank table, then each side's
/// `(rows, attr_count, per-attribute CSR columns)`.
pub fn encode_tokenization(
    order: &TokenOrder,
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
) -> Vec<u8> {
    // Exact size: length prefixes, the rank table, each side's header,
    // and each column's offsets and tokens.
    let columns: usize = [tok_a, tok_b]
        .iter()
        .flat_map(|tok| tok.columns())
        .map(|col| 16 + 4 * (col.len() + 1 + col.total_tokens()))
        .sum();
    let mut w = ByteWriter::with_capacity(8 + 4 * order.len() + 2 * 16 + columns);
    w.put_u32_slice(order.rank_table());
    for tok in [tok_a, tok_b] {
        w.put_u64(tok.rows() as u64);
        w.put_u64(tok.attr_count() as u64);
        for col in tok.columns() {
            put_csr(&mut w, col);
        }
    }
    w.into_bytes()
}

/// Decodes a tokenization artifact. `None` on any structural violation.
pub fn decode_tokenization(bytes: &[u8]) -> Option<(TokenOrder, TokenizedTable, TokenizedTable)> {
    let mut r = ByteReader::new(bytes);
    let rank_table = r.get_u32_vec()?;
    let mut side = || -> Option<TokenizedTable> {
        let rows = usize::try_from(r.get_u64()?).ok()?;
        let attr_count = usize::try_from(r.get_u64()?).ok()?;
        if attr_count > 32 {
            return None; // configs are 32-bit masks; more attrs is garbage
        }
        let cols = (0..attr_count)
            .map(|_| get_csr(&mut r, rows))
            .collect::<Option<Vec<_>>>()?;
        TokenizedTable::from_columns(cols, rows)
    };
    let tok_a = side()?;
    let tok_b = side()?;
    if !r.is_exhausted() {
        return None;
    }
    Some((TokenOrder::from_rank_table(rank_table), tok_a, tok_b))
}

/// Encodes one record arena (tokens + offsets, both raw CSR parts).
pub fn encode_arena(arena: &RecordArena) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32_slice(arena.tokens());
    w.put_u32_slice(arena.offsets());
    w.into_bytes()
}

/// Decodes a record arena; validation happens in
/// [`RecordArena::from_parts`].
pub fn decode_arena(bytes: &[u8]) -> Option<RecordArena> {
    let mut r = ByteReader::new(bytes);
    let tokens = r.get_u32_vec()?;
    let offsets = r.get_u32_vec()?;
    if !r.is_exhausted() {
        return None;
    }
    RecordArena::from_parts(tokens, offsets)
}

/// Sub-magic of the zero-copy CSR payload ([`ArtifactKind::Postings`]
/// files). Distinct from the store's file magic: the store header says
/// "a valid artifact of kind Postings", this says "the payload is the
/// alignment-padded CSR layout below".
const ZC_MAGIC: &[u8; 8] = b"MCZCSR01";

/// Zero-copy header length; also the offset of the first section, so
/// sections are 64-byte aligned relative to the payload (and the payload
/// itself starts 8-aligned — page-aligned under a real mmap).
const ZC_HEADER: usize = 64;

/// Encodes a record arena in the alignment-padded zero-copy layout
/// ([`ArtifactKind::Postings`]): a 64-byte sub-header, the token section,
/// padding to the next 64-byte boundary, then the offsets section. A
/// warm start can hand the mapped payload to [`map_arena`] and use the
/// sections in place — no decode, no copy. Values are little-endian; a
/// big-endian reader refuses the payload and falls back to the byte
/// codec.
///
/// ```text
/// offset  size  field
///      0     8  sub-magic "MCZCSR01"
///      8     8  record count (LE u64)
///     16     8  token count (LE u64)
///     24     4  rank bound (LE u32)
///     28     4  flags (0)
///     32     8  token-section byte offset (LE u64, 64-aligned)
///     40     8  offsets-section byte offset (LE u64, 64-aligned)
///     48     8  total payload length (LE u64)
///     56     8  reserved (0)
/// ```
pub fn encode_arena_zc(arena: &RecordArena) -> Vec<u8> {
    let tokens = arena.tokens();
    let offsets = arena.offsets();
    let tokens_off = ZC_HEADER;
    let offsets_off = (tokens_off + tokens.len() * 4).next_multiple_of(64);
    let total = offsets_off + offsets.len() * 4;
    let mut out = vec![0u8; total];
    out[0..8].copy_from_slice(ZC_MAGIC);
    out[8..16].copy_from_slice(&(arena.len() as u64).to_le_bytes());
    out[16..24].copy_from_slice(&(tokens.len() as u64).to_le_bytes());
    out[24..28].copy_from_slice(&arena.rank_bound().to_le_bytes());
    out[32..40].copy_from_slice(&(tokens_off as u64).to_le_bytes());
    out[40..48].copy_from_slice(&(offsets_off as u64).to_le_bytes());
    out[48..56].copy_from_slice(&(total as u64).to_le_bytes());
    put_u32_section(&mut out[tokens_off..], tokens);
    put_u32_section(&mut out[offsets_off..], offsets);
    out
}

/// Writes `vals` as little-endian `u32`s at the start of `dst`.
fn put_u32_section(dst: &mut [u8], vals: &[u32]) {
    for (chunk, v) in dst.chunks_exact_mut(4).zip(vals) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// The bridge between [`MappedPayload`] and [`StableBytes`]: the payload
/// view is stable because the mapping (kernel pages or the pinned heap
/// fallback buffer) never moves while the value is alive.
struct MappedBacking(MappedPayload);

// SAFETY: `MappedPayload::payload` derives from a pointer fixed at map
// time (an mmap region or a heap buffer that is never reallocated), so
// it returns the same pointer and length on every call, and the mapping
// is read-only for its whole lifetime.
unsafe impl StableBytes for MappedBacking {
    fn bytes(&self) -> &[u8] {
        self.0.payload()
    }
}

/// Validates a zero-copy arena payload ([`encode_arena_zc`]'s layout)
/// and borrows the record arena straight out of the mapping. `None` on
/// any structural, alignment, length, or endianness violation — the
/// caller falls back to the byte codec and counts a miss.
pub fn map_arena(payload: MappedPayload) -> Option<RecordArena> {
    let ranges = {
        let b = payload.payload();
        if b.len() < ZC_HEADER || &b[0..8] != ZC_MAGIC {
            return None;
        }
        let le64 = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let n_records = usize::try_from(le64(8)).ok()?;
        let n_tokens = usize::try_from(le64(16)).ok()?;
        let rank_bound = u32::from_le_bytes(b[24..28].try_into().unwrap());
        let tokens_off = usize::try_from(le64(32)).ok()?;
        let offsets_off = usize::try_from(le64(40)).ok()?;
        if le64(48) != b.len() as u64 {
            return None;
        }
        let tokens_end = tokens_off.checked_add(n_tokens.checked_mul(4)?)?;
        let offsets_end = offsets_off.checked_add(n_records.checked_add(1)?.checked_mul(4)?)?;
        (
            tokens_off..tokens_end,
            offsets_off..offsets_end,
            n_records,
            rank_bound,
        )
    };
    let (tokens_range, offsets_range, n_records, rank_bound) = ranges;
    let backing: std::sync::Arc<dyn StableBytes> = std::sync::Arc::new(MappedBacking(payload));
    let arena = RecordArena::from_stable_parts(backing, tokens_range, offsets_range)?;
    // Cross-check the header against what validation recomputed: a
    // payload that disagrees with itself is corrupt, not just stale.
    (arena.len() == n_records && arena.rank_bound() == rank_bound).then_some(arena)
}

/// Encodes the joint stage's output: `q_used`, config masks, the pair
/// list, and per-config scores as a presence bitmap plus the present
/// `f64` bit patterns (scores round-trip bit-exactly).
pub fn encode_union(configs: &[Config], q_used: usize, union: &CandidateUnion) -> Vec<u8> {
    encode_union_with_base(configs, q_used, union, None)
}

/// [`encode_union`] with optional provenance: `base` records the union
/// key of the artifact this one was *derived from* by an incremental
/// rerun (delta-patched tables or a killed-set diff), so store tooling
/// can trace a chain of incremental results back to its cold-start
/// ancestor. `None` encodes exactly like [`encode_union`] (the trailing
/// presence byte makes old payloads, which lack it, decodable too).
pub fn encode_union_with_base(
    configs: &[Config],
    q_used: usize,
    union: &CandidateUnion,
    base: Option<Digest>,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(q_used as u64);
    let masks: Vec<u32> = configs.iter().map(|c| c.mask()).collect();
    w.put_u32_slice(&masks);
    w.put_u64(union.pairs.len() as u64);
    for &p in &union.pairs {
        w.put_u64(p);
    }
    for row in &union.scores {
        let mut bitmap = vec![0u8; union.pairs.len().div_ceil(8)];
        for (i, s) in row.iter().enumerate() {
            if s.is_some() {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        w.put_bytes(&bitmap);
        for s in row.iter().flatten() {
            w.put_f64(*s);
        }
    }
    if let Some(d) = base {
        w.put_u8(1);
        w.put_u64(d.hi);
        w.put_u64(d.lo);
    }
    w.into_bytes()
}

/// Decodes a candidate-union artifact into `(configs, q_used, union)`,
/// discarding any provenance digest. See [`decode_union_full`].
pub fn decode_union(bytes: &[u8]) -> Option<(Vec<Config>, usize, CandidateUnion)> {
    decode_union_full(bytes).map(|(c, q, u, _)| (c, q, u))
}

/// Decodes a candidate-union artifact including the optional
/// derived-from provenance digest written by
/// [`encode_union_with_base`]. Artifacts written before provenance
/// existed (no trailing bytes) decode with `None`.
pub fn decode_union_full(
    bytes: &[u8],
) -> Option<(Vec<Config>, usize, CandidateUnion, Option<Digest>)> {
    let mut r = ByteReader::new(bytes);
    let q_used = usize::try_from(r.get_u64()?).ok()?;
    if q_used == 0 {
        return None;
    }
    let configs: Vec<Config> = r
        .get_u32_vec()?
        .into_iter()
        .map(Config::from_mask)
        .collect();
    let n_pairs = usize::try_from(r.get_u64()?).ok()?;
    // A pair is ≥ 17 encoded bytes (8 + bitmap + score shares), so this
    // cap only rejects payloads that lie about their own length.
    if n_pairs > bytes.len() {
        return None;
    }
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        pairs.push(r.get_u64()?);
    }
    let mut scores = Vec::with_capacity(configs.len());
    for _ in 0..configs.len() {
        let bitmap = r.get_bytes()?;
        if bitmap.len() != n_pairs.div_ceil(8) {
            return None;
        }
        let mut row = Vec::with_capacity(n_pairs);
        for i in 0..n_pairs {
            if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                row.push(Some(r.get_f64()?));
            } else {
                row.push(None);
            }
        }
        scores.push(row);
    }
    let base = if r.is_exhausted() {
        None
    } else {
        if r.get_u8()? != 1 {
            return None;
        }
        let hi = r.get_u64()?;
        let lo = r.get_u64()?;
        Some(Digest { hi, lo })
    };
    if !r.is_exhausted() {
        return None;
    }
    Some((configs, q_used, CandidateUnion { pairs, scores }, base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_strsim::dict::TokenizedTable;
    use mc_table::{Schema, Table, Tuple, TupleId};
    use std::sync::Arc;

    fn tok_pair() -> (TokenOrder, TokenizedTable, TokenizedTable) {
        let schema = Arc::new(Schema::from_names(["name", "city"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        a.push(Tuple::from_present(["dave smith", "atlanta"]));
        a.push(Tuple::new(vec![None, Some("ny ny".into())]));
        let mut b = Table::new("B", schema);
        b.push(Tuple::from_present(["david smith", "atlanta"]));
        let attrs = [AttrId(0), AttrId(1)];
        let (ta, tb, order) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        (order, ta, tb)
    }

    #[test]
    fn tokenization_roundtrip_preserves_every_rank_vector() {
        let (order, ta, tb) = tok_pair();
        let bytes = encode_tokenization(&order, &ta, &tb);
        let (order2, ta2, tb2) = decode_tokenization(&bytes).expect("roundtrip");
        assert_eq!(order.rank_table(), order2.rank_table());
        for (orig, redone) in [(&ta, &ta2), (&tb, &tb2)] {
            assert_eq!(orig.rows(), redone.rows());
            assert_eq!(orig.attr_count(), redone.attr_count());
            for attr in 0..orig.attr_count() {
                for t in 0..orig.rows() as TupleId {
                    assert_eq!(orig.ranks(attr, t), redone.ranks(attr, t));
                }
            }
        }
    }

    #[test]
    fn tokenization_decode_rejects_trailing_garbage_and_unsorted_ranks() {
        let (order, ta, tb) = tok_pair();
        let mut bytes = encode_tokenization(&order, &ta, &tb);
        bytes.push(0);
        assert!(decode_tokenization(&bytes).is_none(), "trailing byte");
        assert!(decode_tokenization(&[]).is_none(), "empty payload");
        // Hand-build a payload with an unsorted rank vector.
        let mut w = ByteWriter::new();
        w.put_u32_slice(&[0, 1]); // rank table
        for _ in 0..2 {
            w.put_u64(1); // rows
            w.put_u64(1); // attrs
            w.put_u32_slice(&[0, 2]); // offsets
            w.put_u32_slice(&[5, 3]); // tokens, descending
        }
        assert!(decode_tokenization(&w.into_bytes()).is_none());
    }

    #[test]
    fn arena_roundtrip_preserves_records_and_bound() {
        let arena = RecordArena::from_records(&[vec![1u32, 4, 9], vec![], vec![2, 2, 7]]);
        let back = decode_arena(&encode_arena(&arena)).expect("roundtrip");
        assert_eq!(back.len(), arena.len());
        assert_eq!(back.rank_bound(), arena.rank_bound());
        for t in 0..arena.len() as TupleId {
            assert_eq!(back.record(t), arena.record(t));
        }
        assert!(decode_arena(&[1, 2, 3]).is_none(), "garbage payload");
    }

    #[test]
    fn zero_copy_arena_maps_in_place_and_rejects_corruption() {
        use mc_store::{ArtifactKind, Store, StoreConfig};
        use mc_table::digest::digest_bytes;
        let root = std::env::temp_dir().join(format!(
            "mc_store_io_zc_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let store = Store::open(&StoreConfig::at(&root)).unwrap();
        let arena = RecordArena::from_records(&[vec![1u32, 4, 9], vec![], vec![2, 2, 7, 1000]]);
        let key = digest_bytes(b"zc-arena");
        let payload = encode_arena_zc(&arena);
        assert_eq!(payload.len() % 4, 0);
        assert!(store.publish(ArtifactKind::Postings, key, &payload));

        let mapped = store.load_mapped(ArtifactKind::Postings, key).expect("hit");
        let back = map_arena(mapped).expect("valid zero-copy payload");
        assert!(back.is_mapped(), "must borrow the mapping, not copy");
        assert_eq!(back.len(), arena.len());
        assert_eq!(back.rank_bound(), arena.rank_bound());
        for t in 0..arena.len() as TupleId {
            assert_eq!(back.record(t), arena.record(t));
        }

        // An old-codec payload under the Postings kind fails the
        // sub-magic check and degrades to None (codec fallback path).
        let legacy_key = digest_bytes(b"legacy");
        store.publish(ArtifactKind::Postings, legacy_key, &encode_arena(&arena));
        let legacy = store
            .load_mapped(ArtifactKind::Postings, legacy_key)
            .expect("store-level hit");
        assert!(map_arena(legacy).is_none());

        // Flipping a section-offset byte breaks alignment/bounds checks
        // (the store checksum is recomputed so the file still "verifies").
        let mut broken = payload.clone();
        broken[32] ^= 0x01; // tokens_off 64 -> 65: misaligned
        let broken_key = digest_bytes(b"broken");
        store.publish(ArtifactKind::Postings, broken_key, &broken);
        let broken = store
            .load_mapped(ArtifactKind::Postings, broken_key)
            .expect("store-level hit");
        assert!(map_arena(broken).is_none());
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn union_roundtrip_is_bit_exact() {
        let configs = vec![Config::from_positions([0, 1]), Config::from_positions([0])];
        let union = CandidateUnion {
            pairs: vec![pair_key(0, 0), pair_key(2, 1), pair_key(1, 3)],
            scores: vec![
                vec![Some(0.75), None, Some(f64::MIN_POSITIVE)],
                vec![None, Some(1.0), None],
            ],
        };
        let bytes = encode_union(&configs, 2, &union);
        let (c2, q2, u2) = decode_union(&bytes).expect("roundtrip");
        assert_eq!(c2, configs);
        assert_eq!(q2, 2);
        assert_eq!(u2.pairs, union.pairs);
        let bits = |rows: &Vec<Vec<Option<f64>>>| -> Vec<Vec<Option<u64>>> {
            rows.iter()
                .map(|r| r.iter().map(|s| s.map(f64::to_bits)).collect())
                .collect()
        };
        assert_eq!(bits(&u2.scores), bits(&union.scores));
    }

    #[test]
    fn union_decode_rejects_truncation_anywhere() {
        let configs = vec![Config::from_positions([0])];
        let union = CandidateUnion {
            pairs: vec![pair_key(0, 1), pair_key(1, 0)],
            scores: vec![vec![Some(0.5), Some(0.25)]],
        };
        let bytes = encode_union(&configs, 1, &union);
        assert!(decode_union(&bytes).is_some());
        for cut in 0..bytes.len() {
            assert!(
                decode_union(&bytes[..cut]).is_none(),
                "truncation at {cut} must miss"
            );
        }
    }

    #[test]
    fn keys_separate_every_input_dimension() {
        let d = |n: u64| {
            let mut w = DigestWriter::new();
            w.write_u64(n);
            w.finish()
        };
        let attrs = [AttrId(0), AttrId(1)];
        let base = tok_key(d(1), d(2), &attrs, Tokenizer::Word);
        assert_ne!(base, tok_key(d(9), d(2), &attrs, Tokenizer::Word));
        assert_ne!(base, tok_key(d(1), d(9), &attrs, Tokenizer::Word));
        assert_ne!(base, tok_key(d(2), d(1), &attrs, Tokenizer::Word), "sides");
        assert_ne!(base, tok_key(d(1), d(2), &attrs[..1], Tokenizer::Word));
        assert_ne!(base, tok_key(d(1), d(2), &attrs, Tokenizer::QGram(3)));
        assert_ne!(
            tok_key(d(1), d(2), &attrs, Tokenizer::QGram(2)),
            tok_key(d(1), d(2), &attrs, Tokenizer::QGram(3))
        );

        let ak = arena_key(base, 0, &[0, 2]);
        assert_ne!(ak, arena_key(base, 1, &[0, 2]), "side");
        assert_ne!(ak, arena_key(base, 0, &[0, 1]), "positions");
        assert_ne!(ak, arena_key(d(3), 0, &[0, 2]), "tok key");
    }

    /// Fixed `union_key` inputs: a two-attribute tree, a synthetic
    /// tokenization key and a 50-pair killed set.
    fn union_key_inputs() -> (Digest, ConfigTree, PairSet) {
        use crate::config::{ConfigGenerator, ConfigGeneratorParams, PromisingAttrs};
        let promising = PromisingAttrs {
            attrs: vec![AttrId(0), AttrId(1)],
            e_scores: vec![0.9, 0.8],
            avg_tokens_a: vec![3.0, 2.0],
            avg_tokens_b: vec![3.0, 2.0],
        };
        let tree = ConfigGenerator::new(ConfigGeneratorParams::default()).build_tree(&promising);
        let d = |n: u64| {
            let mut w = DigestWriter::new();
            w.write_u64(n);
            w.finish()
        };
        let tok = tok_key(d(1), d(2), &promising.attrs, Tokenizer::Word);
        let mut killed = PairSet::new();
        for i in 0..50u32 {
            killed.insert(i, (i * 7) % 50);
        }
        (tok, tree, killed)
    }

    #[test]
    fn session_union_key_is_golden() {
        // The key sessions derived for `DebuggerParams::small()` before
        // the reuse knobs left `JointParams` (sessions always ran with
        // both off). Matching it keeps every store a session published
        // warm, for sessions and one-shot runs alike.
        let (tok, tree, killed) = union_key_inputs();
        let p = crate::debugger::DebuggerParams::small().joint;
        assert_eq!(
            union_key(tok, &tree, &p, &killed).to_hex(),
            "21a522e3f2f2a78aa0a6d0e7a69e6e8f"
        );
    }

    #[test]
    fn union_key_ignores_threads_and_killed_order() {
        let (tok, tree, killed) = union_key_inputs();
        let mut p = JointParams {
            threads: 1,
            ..Default::default()
        };
        let k1 = union_key(tok, &tree, &p, &killed);
        p.threads = 8;
        assert_eq!(k1, union_key(tok, &tree, &p, &killed), "threads excluded");
        p.k += 1;
        assert_ne!(k1, union_key(tok, &tree, &p, &killed), "k separates");
        p.k -= 1;
        p.q = QStrategy::Fixed(2);
        assert_ne!(k1, union_key(tok, &tree, &p, &killed), "q separates");
        p.q = QStrategy::Fixed(1);
        let mut more = PairSet::new();
        for (a, b) in killed.iter() {
            more.insert(a, b);
        }
        assert_eq!(k1, union_key(tok, &tree, &p, &more), "set content keys");
        more.insert(60, 60);
        assert_ne!(k1, union_key(tok, &tree, &p, &more));
    }
}
