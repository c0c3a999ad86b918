//! Acceptance tests for the persistent artifact store (`mc-store`) wired
//! through the debugger:
//!
//! * a warm run must reproduce the cold run's `DebugReport` byte for
//!   byte (ranked `D`, iteration records, recall numbers) at any thread
//!   count, while recording store hits and **skipping** tokenization and
//!   arena building entirely;
//! * corrupt or truncated artifacts must silently degrade to a cold
//!   recomputation with identical results;
//! * randomized tables and configs must round-trip structurally through
//!   real store files.
//!
//! The metrics registry is process-global, so every test that asserts a
//! span is *absent* holds the file-local `SERIAL` lock to keep sibling
//! tests (which run cold pipelines) from contaminating its delta.

use matchcatcher::debugger::{DebugReport, DebuggerParams, MatchCatcher};
use matchcatcher::joint::{CandidateUnion, QStrategy};
use matchcatcher::oracle::GoldOracle;
use matchcatcher::store_io;
use matchcatcher::verify::IterationRecord;
use matchcatcher::Config;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::MetricsSnapshot;
use mc_store::{ArtifactKind, Digest, DigestWriter, Store, StoreConfig};
use mc_strsim::arena::RecordArena;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::tokenize::Tokenizer;
use mc_table::{pair_key, AttrId, Schema, Table, Tuple, TupleId};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mc-store-test-{}-{}-{}",
        tag,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The result-bearing fields of a [`DebugReport`] — everything the user
/// sees, minus the metrics snapshot (which legitimately differs between
/// cold and warm runs).
type ReportSummary = (
    Vec<(TupleId, TupleId)>,
    usize,
    usize,
    usize,
    Vec<IterationRecord>,
    Vec<(String, usize)>,
);

fn summarize(r: &DebugReport) -> ReportSummary {
    (
        r.confirmed_matches.clone(),
        r.e_size,
        r.q_used,
        r.labeled,
        r.iterations.clone(),
        r.problems.clone(),
    )
}

fn run_once(dir: &Path, threads: usize) -> (DebugReport, MetricsSnapshot) {
    run_once_with(dir, threads, QStrategy::Fixed(1))
}

fn run_once_with(dir: &Path, threads: usize, q: QStrategy) -> (DebugReport, MetricsSnapshot) {
    let ds = DatasetProfile::FodorsZagats.generate_scaled(3, 0.4);
    let blocker = Blocker::Hash(KeyFunc::Attr(AttrId(0)));
    let c = blocker.apply(&ds.a, &ds.b);
    let mut params = DebuggerParams::small();
    params.joint.threads = threads;
    params.joint.q = q;
    params.store = Some(StoreConfig::at(dir));
    let mc = MatchCatcher::new(params);
    let mut oracle = GoldOracle::exact(&ds.gold);
    let before = MetricsSnapshot::capture();
    let report = mc.run(&ds.a, &ds.b, &c, &mut oracle);
    let delta = MetricsSnapshot::capture().since(&before);
    (report, delta)
}

#[test]
fn warm_run_is_byte_identical_and_skips_tokenization_and_arenas() {
    let _guard = SERIAL.lock().unwrap();
    let dir = temp_store_dir("warm");

    let (cold, cold_delta) = run_once(&dir, 2);
    assert!(
        cold_delta.counter("mc.store.publishes") > 0,
        "cold run must publish artifacts"
    );
    assert!(
        !cold.confirmed_matches.is_empty(),
        "fixture recovers matches"
    );

    // Warm runs at *different* thread counts: the union key excludes the
    // thread count because the joint stage is bit-deterministic.
    for threads in [1usize, 4] {
        let (warm, delta) = run_once(&dir, threads);
        assert_eq!(
            summarize(&cold),
            summarize(&warm),
            "warm report diverged at {threads} threads"
        );
        assert!(
            delta.counter("mc.store.hits") > 0,
            "warm run must hit the store ({threads} threads)"
        );
        for span in [
            "mc.strsim.dict.build",
            "mc.core.joint.build_arenas",
            "mc.strsim.arena.build",
            "mc.core.joint.run",
        ] {
            assert_eq!(
                delta.span(span).count,
                0,
                "{span} must not run warm ({threads} threads)"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_round_trips_the_threshold_kernel_and_auto_q() {
    // Audit for the scoring kernel: the candidate-union cache key needs
    // no bump because the threshold-aware merge and the keyed-bound memo
    // leave published scores bit-identical. A cold Auto-q run must
    // warm-start byte for byte and skip the joint stage entirely
    // (`q_used` is part of the summarized report, so the empirically
    // selected q round-trips through the artifact too).
    let _guard = SERIAL.lock().unwrap();
    let dir = temp_store_dir("kernel");
    let q = QStrategy::Auto {
        max_q: 3,
        prelude_k: 30,
    };

    let (cold, _) = run_once_with(&dir, 2, q);

    let (warm, delta) = run_once_with(&dir, 2, q);
    assert_eq!(
        summarize(&cold),
        summarize(&warm),
        "warm Auto-q report diverged"
    );
    assert!(delta.counter("mc.store.hits") > 0, "warm run must hit");
    assert_eq!(
        delta.span("mc.core.joint.run").count,
        0,
        "the union must be served from the store, not recomputed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_artifacts_degrade_to_cold_recomputation() {
    let _guard = SERIAL.lock().unwrap();
    let dir = temp_store_dir("corrupt");
    let (cold, _) = run_once(&dir, 2);

    // Truncate every union artifact and bit-flip every tokenization
    // artifact on disk.
    let mangle = |kind: &str, f: &dyn Fn(Vec<u8>) -> Vec<u8>| {
        let d = dir.join("objects").join(kind);
        for entry in std::fs::read_dir(&d).expect("kind dir exists") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "mcs") {
                let bytes = std::fs::read(&path).expect("read artifact");
                std::fs::write(&path, f(bytes)).expect("write mangled");
            }
        }
    };
    mangle("union", &|b| b[..b.len().min(10)].to_vec());
    mangle("tok", &|mut b| {
        let mid = b.len() / 2;
        b[mid] ^= 0x10;
        b
    });

    let (again, delta) = run_once(&dir, 2);
    assert_eq!(
        summarize(&cold),
        summarize(&again),
        "corruption must not change results"
    );
    assert!(
        delta.counter("mc.store.corrupt") > 0,
        "corruption must be detected and counted"
    );
    assert!(
        delta.span("mc.core.joint.run").count > 0,
        "the joint stage must recompute after corruption"
    );

    // The recomputation republished; a third run is warm again.
    let (third, delta3) = run_once(&dir, 2);
    assert_eq!(summarize(&cold), summarize(&third));
    assert_eq!(delta3.span("mc.core.joint.run").count, 0, "third run warm");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_format_version_is_a_silent_miss() {
    let _guard = SERIAL.lock().unwrap();
    let dir = temp_store_dir("version");
    let (cold, _) = run_once(&dir, 2);

    // Bump the format-version field (bytes 4..8 of the header) of every
    // artifact of every kind.
    for kind in ["tok", "arena", "union", "post"] {
        let d = dir.join("objects").join(kind);
        for entry in std::fs::read_dir(&d).expect("kind dir") {
            let path = entry.expect("entry").path();
            let mut bytes = std::fs::read(&path).expect("read");
            bytes[4] = bytes[4].wrapping_add(1);
            std::fs::write(&path, bytes).expect("write");
        }
    }
    let (again, delta) = run_once(&dir, 2);
    assert_eq!(summarize(&cold), summarize(&again));
    assert_eq!(
        delta.counter("mc.store.hits"),
        0,
        "version-mismatched artifacts must all miss"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_copy_arenas_mmap_warm_and_fall_back_on_corruption() {
    let _guard = SERIAL.lock().unwrap();
    let dir = temp_store_dir("zc");
    let (cold, _) = run_once(&dir, 2);

    // The cold run published arenas in the zero-copy layout.
    let post_dir = dir.join("objects").join("post");
    let post_files: Vec<PathBuf> = std::fs::read_dir(&post_dir)
        .expect("post dir exists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "mcs"))
        .collect();
    assert!(!post_files.is_empty(), "zero-copy arenas must be published");

    // Drop the unions so the next run must reach the arena path, then
    // warm-run: arenas come from the mapping, never from a rebuild.
    let drop_unions = || {
        for entry in std::fs::read_dir(dir.join("objects").join("union")).expect("union dir") {
            std::fs::remove_file(entry.expect("entry").path()).expect("remove union");
        }
    };
    drop_unions();
    let (warm, delta) = run_once(&dir, 2);
    assert_eq!(summarize(&cold), summarize(&warm), "mapped warm diverged");
    assert!(
        delta.counter("mc.store.mmap_maps") > 0,
        "warm arenas must come from a mapping"
    );
    assert_eq!(
        delta.span("mc.strsim.arena.build").count,
        0,
        "no arena rebuild on the mapped path"
    );

    // Corrupt the zero-copy *payload* while keeping the store header
    // valid (recompute the checksum): the store hits, `map_arena` refuses,
    // and with no byte-codec fallback artifact the arenas rebuild —
    // with identical results.
    for path in &post_files {
        let mut bytes = std::fs::read(path).expect("read post artifact");
        bytes[32] ^= 0xff; // first payload byte: breaks the sub-magic
        let sum = mc_store::payload_checksum(&bytes[32..]);
        bytes[24..32].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(path, bytes).expect("write mangled");
    }
    drop_unions();
    let (rebuilt, delta2) = run_once(&dir, 2);
    assert_eq!(summarize(&cold), summarize(&rebuilt), "fallback diverged");
    assert!(
        delta2.counter("mc.store.decode_failed") > 0,
        "refused zero-copy payloads must be counted"
    );
    assert!(
        delta2.span("mc.strsim.arena.build").count > 0,
        "arenas must rebuild after the mapped payload is refused"
    );

    // The rebuild republished; a third run maps cleanly again.
    drop_unions();
    let (third, delta3) = run_once(&dir, 2);
    assert_eq!(summarize(&cold), summarize(&third));
    assert_eq!(
        delta3.span("mc.strsim.arena.build").count,
        0,
        "mapped again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn random_table(rng: &mut StdRng, name: &str, schema: &Arc<Schema>, rows: usize) -> Table {
    let mut t = Table::new(name, Arc::clone(schema));
    for _ in 0..rows {
        let values: Vec<Option<String>> = (0..schema.len())
            .map(|_| {
                if rng.random_range(0..10u32) == 0 {
                    None
                } else {
                    let n = rng.random_range(1usize..6);
                    Some(
                        (0..n)
                            .map(|_| format!("w{}", rng.random_range(0..40u32)))
                            .collect::<Vec<_>>()
                            .join(" "),
                    )
                }
            })
            .collect();
        t.push(Tuple::new(values));
    }
    t
}

#[test]
fn randomized_artifacts_roundtrip_through_real_store_files() {
    let dir = temp_store_dir("random");
    let store = Store::open(&StoreConfig::at(dir.clone())).expect("open store");
    let mut rng = StdRng::seed_from_u64(0xca11ab1e);

    for trial in 0u64..8 {
        let n_attrs = rng.random_range(1usize..4);
        let names: Vec<String> = (0..n_attrs).map(|i| format!("f{i}")).collect();
        let schema = Arc::new(Schema::from_names(names.iter().map(|s| s.as_str())));
        let rows_a = rng.random_range(1usize..30);
        let rows_b = rng.random_range(1usize..30);
        let a = random_table(&mut rng, "A", &schema, rows_a);
        let b = random_table(&mut rng, "B", &schema, rows_b);
        let attrs: Vec<AttrId> = (0..n_attrs as u16).map(AttrId).collect();
        let (ta, tb, order) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);

        // Tokenization through the store.
        let key = {
            let mut w = DigestWriter::new();
            w.write_u64(trial);
            w.finish()
        };
        let payload = store_io::encode_tokenization(&order, &ta, &tb);
        assert!(store.publish(ArtifactKind::Tokenization, key, &payload));
        let loaded = store
            .load(ArtifactKind::Tokenization, key)
            .expect("hit just-published artifact");
        let (order2, ta2, tb2) = store_io::decode_tokenization(&loaded).expect("decode");
        assert_eq!(order.rank_table(), order2.rank_table(), "trial {trial}");
        for (orig, redone) in [(&ta, &ta2), (&tb, &tb2)] {
            assert_eq!(orig.rows(), redone.rows());
            for attr in 0..orig.attr_count() {
                for t in 0..orig.rows() as TupleId {
                    assert_eq!(orig.ranks(attr, t), redone.ranks(attr, t), "trial {trial}");
                }
            }
        }

        // A random config's arenas through the store.
        let n_pos = rng.random_range(1usize..=n_attrs);
        let mut positions: Vec<usize> = (0..n_attrs).collect();
        for i in (1..positions.len()).rev() {
            positions.swap(i, rng.random_range(0..=i));
        }
        let mut positions: Vec<usize> = positions.into_iter().take(n_pos).collect();
        positions.sort_unstable();
        let arena = RecordArena::from_tokenized(&ta, &positions);
        let akey = store_io::arena_key(key, 0, &positions);
        assert!(store.publish(ArtifactKind::Arena, akey, &store_io::encode_arena(&arena)));
        let arena2 =
            store_io::decode_arena(&store.load(ArtifactKind::Arena, akey).expect("arena hit"))
                .expect("arena decode");
        assert_eq!(arena.len(), arena2.len());
        assert_eq!(arena.rank_bound(), arena2.rank_bound());
        for t in 0..arena.len() as TupleId {
            assert_eq!(arena.record(t), arena2.record(t), "trial {trial}");
        }

        // A random candidate union through the store.
        let n_pairs = rng.random_range(0usize..20);
        let pairs: Vec<u64> = (0..n_pairs as u32)
            .map(|i| pair_key(i, i * 3 % 17))
            .collect();
        let n_configs = rng.random_range(1usize..4);
        let configs: Vec<Config> = (0..n_configs)
            .map(|i| Config::from_positions([i % n_attrs.max(1)]))
            .collect();
        let scores: Vec<Vec<Option<f64>>> = (0..n_configs)
            .map(|_| {
                (0..n_pairs)
                    .map(|_| {
                        if rng.random_range(0..3u32) == 0 {
                            None
                        } else {
                            Some(rng.random_range(0..1_000_000u32) as f64 / 1_000_000.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let union = CandidateUnion { pairs, scores };
        let ukey = store_io::arena_key(key, 9, &[trial as usize]);
        let q = rng.random_range(1usize..4);
        assert!(store.publish(
            ArtifactKind::CandidateUnion,
            ukey,
            &store_io::encode_union(&configs, q, &union)
        ));
        let (c2, q2, u2) = store_io::decode_union(
            &store
                .load(ArtifactKind::CandidateUnion, ukey)
                .expect("union hit"),
        )
        .expect("union decode");
        assert_eq!(configs, c2, "trial {trial}");
        assert_eq!(q, q2);
        assert_eq!(union.pairs, u2.pairs);
        let bits = |rows: &[Vec<Option<f64>>]| -> Vec<Vec<Option<u64>>> {
            rows.iter()
                .map(|r| r.iter().map(|s| s.map(f64::to_bits)).collect())
                .collect()
        };
        assert_eq!(bits(&union.scores), bits(&u2.scores), "trial {trial}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// Silence an unused-import lint pathway: Digest is part of the public
// key-derivation API exercised above via DigestWriter::finish.
#[allow(dead_code)]
fn _digest_is_exported(d: Digest) -> String {
    d.to_hex()
}
