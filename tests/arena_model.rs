//! Model-based test of `RecordArena`.
//!
//! Seeded random sequences of `patch_record`, `tombstone`, `push_record`,
//! `compact`, `masked_view` and `clone` run against a `Vec<Vec<u32>>`
//! model. After every step the arena must hold the model's records (one
//! by one and as token runs), live token count and garbage ratio, keep
//! a rank bound at or above the model's (equal to it after a
//! compaction), and encode through every store codec to the bytes of
//! its compacted copy. Masked views must empty exactly the inactive
//! records and leave their source unchanged, and clones must not see
//! later patches.

use matchcatcher::store_io::{encode_arena, encode_arena_zc, encode_tokenization, map_arena};
use mc_strsim::arena::RecordArena;
use mc_strsim::dict::{TokenOrder, TokenizedTable};
use mc_table::TupleId;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// The arena's specification: its records, and how many tokens the
/// buffer has taken in since it was last laid out back to back (which
/// sets the garbage ratio).
#[derive(Clone)]
struct Model {
    records: Vec<Vec<u32>>,
    buffer: usize,
}

impl Model {
    fn new(records: Vec<Vec<u32>>) -> Self {
        let buffer = records.iter().map(Vec::len).sum();
        Model { records, buffer }
    }

    fn live(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }

    fn rank_bound(&self) -> u32 {
        self.records
            .iter()
            .filter_map(|r| r.last())
            .max()
            .map_or(0, |&m| m + 1)
    }

    fn garbage_ratio(&self) -> f64 {
        if self.buffer == 0 {
            0.0
        } else {
            (self.buffer - self.live()) as f64 / self.buffer as f64
        }
    }
}

/// A sorted record of up to six tokens; now and then one far above the
/// others, so patches move the rank bound.
fn random_record(rng: &mut StdRng) -> Vec<u32> {
    let len = rng.random_range(0..=6usize);
    let top = if rng.random_bool(0.1) { 5_000 } else { 60 };
    let mut r: Vec<u32> = (0..len).map(|_| rng.random_range(0..top)).collect();
    r.sort_unstable();
    r
}

/// The tokenization artifact's bytes with `arena` as the only column of
/// both sides (and a fixed rank table, which the encoder copies as is).
fn tokenization_bytes(arena: &RecordArena) -> Vec<u8> {
    let order = TokenOrder::from_rank_table(vec![0, 1, 2]);
    let side = || TokenizedTable::from_columns(vec![arena.clone()], arena.len()).unwrap();
    encode_tokenization(&order, &side(), &side())
}

fn check(arena: &RecordArena, model: &Model, what: &str) {
    assert_eq!(arena.len(), model.records.len(), "{what}: len");
    for (i, want) in model.records.iter().enumerate() {
        assert_eq!(arena.record(i as TupleId), &want[..], "{what}: record {i}");
    }
    assert_eq!(arena.iter().count(), model.records.len(), "{what}: iter");
    assert_eq!(
        arena.token_runs().flatten().collect::<Vec<_>>(),
        model.records.concat().iter().collect::<Vec<_>>(),
        "{what}: token runs"
    );
    assert_eq!(arena.total_tokens(), model.live(), "{what}: total_tokens");
    assert_eq!(
        arena.garbage_ratio(),
        model.garbage_ratio(),
        "{what}: garbage"
    );
    assert_eq!(arena.is_compact(), model.buffer == model.live(), "{what}");
    assert!(
        arena.rank_bound() >= model.rank_bound(),
        "{what}: rank bound"
    );
}

/// Every codec writes `arena` as the bytes of its compacted copy and of
/// a fresh build of the model's records, and the Postings payload
/// decodes back to the model.
fn check_codecs(arena: &RecordArena, model: &Model, what: &str) {
    let mut compacted = arena.clone();
    compacted.compact();
    let fresh = RecordArena::from_records(&model.records);
    for other in [&compacted, &fresh] {
        assert_eq!(encode_arena(arena), encode_arena(other), "{what}: arena");
        assert_eq!(encode_arena_zc(arena), encode_arena_zc(other), "{what}: zc");
        assert_eq!(
            tokenization_bytes(arena),
            tokenization_bytes(other),
            "{what}: tokenization"
        );
    }
    let back = map_arena(encode_arena_zc(arena)).expect("a valid payload");
    check(&back, &Model::new(model.records.clone()), what);
    assert_eq!(
        back.rank_bound(),
        model.rank_bound(),
        "{what}: decoded bound"
    );
}

fn run(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let start: Vec<Vec<u32>> = (0..rng.random_range(0..8usize))
        .map(|_| random_record(&mut rng))
        .collect();
    let mut arena = RecordArena::from_records(&start);
    let mut model = Model::new(start);
    // Clones taken along the way, with the model they must keep.
    let mut clones: Vec<(RecordArena, Model)> = Vec::new();
    for step in 0..steps {
        let what = format!("seed {seed} step {step}");
        let n = model.records.len();
        match rng.random_range(0..6u32) {
            0 if n > 0 => {
                let i = rng.random_range(0..n);
                let record = random_record(&mut rng);
                arena.patch_record(i as TupleId, &record);
                model.buffer += record.len();
                model.records[i] = record;
            }
            1 if n > 0 => {
                let i = rng.random_range(0..n);
                arena.tombstone(i as TupleId);
                model.records[i].clear();
            }
            2 => {
                let record = random_record(&mut rng);
                assert_eq!(arena.push_record(&record), n as TupleId, "{what}");
                model.buffer += record.len();
                model.records.push(record);
            }
            3 => {
                arena.compact();
                model.buffer = model.live();
                assert_eq!(arena.rank_bound(), model.rank_bound(), "{what}");
            }
            4 => {
                let mask: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
                let view = arena.masked_view(|t| mask[t as usize]);
                let mut hidden = model.clone();
                for (record, &active) in hidden.records.iter_mut().zip(&mask) {
                    if !active {
                        record.clear();
                    }
                }
                check(&view, &hidden, &format!("{what}: view"));
                assert_eq!(view.rank_bound(), arena.rank_bound(), "{what}: view");
                check(&arena, &model, &format!("{what}: view source"));
                check_codecs(&view, &hidden, &format!("{what}: view"));
                // Now and then the session goes on with the view, the
                // source dropped or kept alive by a clone.
                if rng.random_bool(0.3) {
                    arena = view;
                    model = hidden;
                }
            }
            _ => {
                if clones.len() == 4 {
                    clones.remove(0);
                }
                clones.push((arena.clone(), model.clone()));
            }
        }
        check(&arena, &model, &what);
        check_codecs(&arena, &model, &what);
        for (c, (clone, clone_model)) in clones.iter().enumerate() {
            check(clone, clone_model, &format!("{what}: clone {c}"));
        }
    }
}

#[test]
fn arena_follows_its_model_through_random_edits() {
    for seed in 0..64 {
        run(seed, 120);
    }
}
