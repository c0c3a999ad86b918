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
//! * **Postings** — one side's record arena for one config as CSR
//!   sections in the 64-byte-aligned layout ([`encode_arena_zc`]), keyed
//!   by the tokenization key plus side and config positions. A warm start
//!   copies the token and offset sections into an owned arena
//!   ([`map_arena`]); a payload that fails validation is a miss, and the
//!   arena is rebuilt. The pipeline no longer reads or writes the
//!   byte-codec **Arena** kind ([`encode_arena`]/[`decode_arena`]);
//!   store format v2 reads every artifact older builds wrote as a miss
//!   anyway. The codec stays for tools that replay or test the store.
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
//! Every encoder walks the arena's records, so a patched arena or a
//! masked view encodes to the bytes of its compacted copy: offsets `0`
//! then each record's end, and the records' tokens back to back.
//!
//! Every decoder is a plain parser over an owned payload: it returns
//! `Option` and validates structural invariants (shapes, sortedness,
//! offset monotonicity, rank bounds the join can index), so a corrupt
//! artifact that somehow passed the store's checksum still degrades to
//! a cache miss rather than a panic.

use crate::config::{Config, ConfigTree};
use crate::joint::{CandidateUnion, JointParams, QStrategy};
use mc_store::{ByteReader, ByteWriter, Digest, DigestWriter};
use mc_strsim::arena::RecordArena;
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

/// The CSR offsets of the arena's compacted copy: `0`, then each
/// record's end.
fn csr_offsets(arena: &RecordArena) -> impl Iterator<Item = u32> + '_ {
    let ends = arena.iter().scan(0u32, |end, record| {
        *end += record.len() as u32;
        Some(*end)
    });
    std::iter::once(0).chain(ends)
}

/// Writes the CSR offsets of the arena's compacted copy in
/// [`ByteWriter::put_u32_slice`]'s layout.
fn put_offsets(w: &mut ByteWriter, arena: &RecordArena) {
    w.put_u64(arena.len() as u64 + 1);
    for end in csr_offsets(arena) {
        w.put_u32(end);
    }
}

/// Writes the CSR tokens of the arena's compacted copy, the records back
/// to back, in [`ByteWriter::put_u32_slice`]'s layout.
fn put_tokens(w: &mut ByteWriter, arena: &RecordArena) {
    w.put_u64(arena.total_tokens() as u64);
    for run in arena.token_runs() {
        for &token in run {
            w.put_u32(token);
        }
    }
}

/// Writes one rank column as CSR: `offsets` (length `rows + 1`), then
/// the flattened tokens.
fn put_csr(w: &mut ByteWriter, col: &RecordArena) {
    put_offsets(w, col);
    put_tokens(w, col);
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
    RecordArena::from_parts(tokens, &offsets)
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

/// Decodes a tokenization artifact. `None` on any structural violation,
/// including a rank past the end of the rank table.
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
        if cols
            .iter()
            .any(|col| col.rank_bound() as usize > rank_table.len())
        {
            return None;
        }
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
    put_tokens(&mut w, arena);
    put_offsets(&mut w, arena);
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
    RecordArena::from_parts(tokens, &offsets)
}

/// Sub-magic of the CSR section payload ([`ArtifactKind::Postings`]
/// files). Distinct from the store's file magic: the store header says
/// "a valid artifact of kind Postings", this says "the payload is the
/// alignment-padded CSR layout below".
///
/// [`ArtifactKind::Postings`]: mc_store::ArtifactKind::Postings
const ZC_MAGIC: &[u8; 8] = b"MCZCSR01";

/// Section header length; also the offset of the first section, so
/// sections are 64-byte aligned relative to the payload.
const ZC_HEADER: usize = 64;

/// Encodes a record arena in the alignment-padded section layout
/// ([`ArtifactKind::Postings`]): a 64-byte sub-header, the token section,
/// padding to the next 64-byte boundary, then the offsets section.
/// Values are little-endian, and the rank bound is the compacted copy's.
/// Nothing reads the sections in place any more; the padding stays
/// because the layout is part of store format v2, and changing it would
/// turn every stored arena into a miss.
///
/// [`ArtifactKind::Postings`]: mc_store::ArtifactKind::Postings
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
    let n_tokens = arena.total_tokens();
    // Records are sorted, so each one's last token is its largest. A
    // patch or a view can leave `arena.rank_bound()` above this.
    let rank_bound = arena
        .iter()
        .filter_map(|record| record.last())
        .max()
        .map_or(0, |&max| max + 1);
    let tokens_off = ZC_HEADER;
    let offsets_off = (tokens_off + n_tokens * 4).next_multiple_of(64);
    let total = offsets_off + (arena.len() + 1) * 4;
    let mut out = vec![0u8; total];
    out[0..8].copy_from_slice(ZC_MAGIC);
    out[8..16].copy_from_slice(&(arena.len() as u64).to_le_bytes());
    out[16..24].copy_from_slice(&(n_tokens as u64).to_le_bytes());
    out[24..28].copy_from_slice(&rank_bound.to_le_bytes());
    out[32..40].copy_from_slice(&(tokens_off as u64).to_le_bytes());
    out[40..48].copy_from_slice(&(offsets_off as u64).to_le_bytes());
    out[48..56].copy_from_slice(&(total as u64).to_le_bytes());
    let mut at = tokens_off;
    for run in arena.token_runs() {
        put_u32_section(&mut out[at..], run.iter().copied());
        at += run.len() * 4;
    }
    put_u32_section(&mut out[offsets_off..], csr_offsets(arena));
    out
}

/// Writes `vals` as little-endian `u32`s at the start of `dst`.
fn put_u32_section(dst: &mut [u8], vals: impl Iterator<Item = u32>) {
    for (chunk, v) in dst.chunks_exact_mut(4).zip(vals) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decodes an [`encode_arena_zc`] payload by copying its token and
/// offset sections into an owned arena. `None` on a wrong sub-magic,
/// lengths that disagree with the payload or with each other, section
/// offsets off their 64-byte boundaries, out-of-bounds sections, or any
/// violation [`RecordArena::from_parts`] finds. The name predates the
/// copy; the benchmark's replay of the warm arena path calls it.
pub fn map_arena(payload: Vec<u8>) -> Option<RecordArena> {
    let b = payload.as_slice();
    if b.len() < ZC_HEADER || &b[0..8] != ZC_MAGIC {
        return None;
    }
    let le64 = |at: usize| {
        usize::try_from(u64::from_le_bytes(
            b[at..at + 8].try_into().expect("8-byte header field"),
        ))
        .ok()
    };
    let n_records = le64(8)?;
    let n_tokens = le64(16)?;
    let rank_bound = u32::from_le_bytes(b[24..28].try_into().expect("4-byte header field"));
    let tokens_off = le64(32)?;
    let offsets_off = le64(40)?;
    if le64(48)? != b.len() || tokens_off % 64 != 0 || offsets_off % 64 != 0 {
        return None;
    }
    let tokens = u32_section(b, tokens_off, n_tokens)?;
    let offsets = u32_section(b, offsets_off, n_records.checked_add(1)?)?;
    let arena = RecordArena::from_parts(tokens, &offsets)?;
    // A header that disagrees with the bound validation recomputed is
    // corrupt, not just stale.
    (arena.rank_bound() == rank_bound).then_some(arena)
}

/// Copies `count` little-endian `u32`s starting at byte `at` out of `b`;
/// `None` when the section does not fit.
fn u32_section(b: &[u8], at: usize, count: usize) -> Option<Vec<u32>> {
    let bytes = b.get(at..at.checked_add(count.checked_mul(4)?)?)?;
    Some(
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect(),
    )
}

/// Encodes the joint stage's output: `q_used`, config masks, the pair
/// list, and per-config scores as a presence bitmap plus the present
/// `f64` bit patterns (scores round-trip bit-exactly).
pub fn encode_union(configs: &[Config], q_used: usize, union: &CandidateUnion) -> Vec<u8> {
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
    w.into_bytes()
}

/// Decodes a candidate-union artifact into `(configs, q_used, union)`.
/// `None` on any structural violation, trailing bytes included.
pub fn decode_union(bytes: &[u8]) -> Option<(Vec<Config>, usize, CandidateUnion)> {
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
    if !r.is_exhausted() {
        return None;
    }
    Some((configs, q_used, CandidateUnion { pairs, scores }))
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
        // Sorted ranks, but rank 2 is past the two-entry rank table.
        let mut w = ByteWriter::new();
        w.put_u32_slice(&[0, 1]);
        for _ in 0..2 {
            w.put_u64(1);
            w.put_u64(1);
            w.put_u32_slice(&[0, 2]);
            w.put_u32_slice(&[0, 2]);
        }
        assert!(
            decode_tokenization(&w.into_bytes()).is_none(),
            "rank past table"
        );
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
        // `u32::MAX + 1` does not fit the rank bound: no join could
        // index that rank.
        let mut w = ByteWriter::new();
        w.put_u32_slice(&[u32::MAX]);
        w.put_u32_slice(&[0, 1]);
        assert!(
            decode_arena(&w.into_bytes()).is_none(),
            "wrapping rank bound"
        );
    }

    #[test]
    fn postings_payload_roundtrips_and_rejects_malformed_headers() {
        let arena = RecordArena::from_records(&[vec![1u32, 4, 9], vec![], vec![2, 2, 7, 1000]]);
        let payload = encode_arena_zc(&arena);
        let back = map_arena(payload.clone()).expect("valid payload");
        assert_eq!(back.len(), arena.len());
        assert_eq!(back.rank_bound(), arena.rank_bound());
        for t in 0..arena.len() as TupleId {
            assert_eq!(back.record(t), arena.record(t));
        }
        // A byte-codec payload fails the sub-magic check.
        assert!(map_arena(encode_arena(&arena)).is_none(), "byte codec");
        let with_field = |at: usize, value: u64| {
            let mut bytes = payload.clone();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            bytes
        };
        let tokens_off = ZC_HEADER as u64;
        let offsets_off = u64::from_le_bytes(payload[40..48].try_into().unwrap());
        for (what, bytes) in [
            (
                "token section off its boundary",
                with_field(32, tokens_off + 4),
            ),
            (
                "offsets section off its boundary",
                with_field(40, offsets_off + 4),
            ),
            (
                "token section out of bounds",
                with_field(32, offsets_off + 64),
            ),
            (
                "offsets section out of bounds",
                with_field(40, offsets_off + 64),
            ),
            ("section offset overflows", with_field(40, !63)),
            ("token count disagrees", with_field(16, 6)),
            ("token count overflows", with_field(16, u64::MAX)),
            ("record count disagrees", with_field(8, 2)),
            ("record count overflows", with_field(8, u64::MAX)),
            (
                "total length disagrees",
                with_field(48, payload.len() as u64 + 4),
            ),
            ("rank bound disagrees", with_field(24, 1000)),
        ] {
            assert!(map_arena(bytes).is_none(), "{what}");
        }
    }

    /// Asserts every record is sorted and below the arena's rank bound.
    fn assert_indexable(arena: &RecordArena) {
        for rec in arena.iter() {
            assert!(rec.windows(2).all(|w| w[0] <= w[1]), "unsorted record");
            assert!(
                rec.iter().all(|&t| t < arena.rank_bound()),
                "rank past bound"
            );
        }
    }

    /// Feeds `check` every truncation of `valid` and 300 copies of it
    /// with one to three seeded byte flips each.
    fn mutate(valid: &[u8], seed: u64, check: impl Fn(&[u8])) {
        use rand::rngs::StdRng;
        use rand::{RngExt as _, SeedableRng};
        for cut in 0..=valid.len() {
            check(&valid[..cut]);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..300 {
            let mut bytes = valid.to_vec();
            for _ in 0..rng.random_range(1..=3usize) {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= rng.random_range(1..=255u8);
            }
            check(&bytes);
        }
    }

    /// Per decoder: each mutated payload decodes to `None` or to a value
    /// whose invariants hold, and none panics.
    #[test]
    fn decoders_survive_truncations_and_seeded_byte_flips() {
        let (order, ta, tb) = tok_pair();
        mutate(&encode_tokenization(&order, &ta, &tb), 1, |b| {
            if let Some((order, ta, tb)) = decode_tokenization(b) {
                for tok in [&ta, &tb] {
                    for col in tok.columns() {
                        assert_eq!(col.len(), tok.rows(), "declared rows");
                        assert!(col.rank_bound() as usize <= order.len());
                        assert_indexable(col);
                    }
                }
            }
        });
        let arena = RecordArena::from_records(&[vec![1u32, 4, 9], vec![], vec![2, 2, 7, 1000]]);
        mutate(&encode_arena(&arena), 2, |b| {
            if let Some(a) = decode_arena(b) {
                assert_indexable(&a);
            }
        });
        mutate(&encode_arena_zc(&arena), 3, |b| {
            if let Some(a) = map_arena(b.to_vec()) {
                assert_indexable(&a);
            }
        });
        let union = CandidateUnion {
            pairs: vec![pair_key(0, 1), pair_key(1, 0), pair_key(2, 2)],
            scores: vec![
                vec![Some(0.5), None, Some(0.25)],
                vec![None, Some(1.0), None],
            ],
        };
        let configs = [Config::from_positions([0]), Config::from_positions([0, 1])];
        mutate(&encode_union(&configs, 2, &union), 4, |b| {
            if let Some((configs, q_used, union)) = decode_union(b) {
                assert!(q_used >= 1);
                assert_eq!(union.scores.len(), configs.len());
                for row in &union.scores {
                    assert_eq!(row.len(), union.pairs.len());
                }
            }
        });
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
