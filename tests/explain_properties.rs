//! Randomized equivalence proofs for the batch explain engine.
//!
//! The `DiagnosisKernel` is an optimization, not a reinterpretation: on
//! any pair of tables it must produce **bit-identical** diagnoses,
//! pervasiveness groups and similar-pair lists to the per-pair path
//! (`explain::explain_match`, `pervasive::pervasiveness`,
//! `pervasive::similar_pairs`). These tests draw tables from a value
//! pool engineered to hit every [`Diagnosis`] class — including unicode
//! lowercase expansion and trim-empty edge cases — and compare the two
//! paths cell by cell across seeds and thread counts. A final test
//! drives the `explain`/`pervade` verbs over a live daemon and checks
//! the `mc-explain/v1` payload against the session's own report.

use matchcatcher::explain::{explain_match, Diagnosis};
use matchcatcher::joint::CandidateUnion;
use matchcatcher::pervasive;
use matchcatcher::DiagnosisKernel;
use mc_obs::JsonValue;
use mc_serve::{Client, Daemon, ServeParams};
use mc_table::{pair_key, Schema, Table, Tuple, TupleId};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Value pool engineered so random cell pairs cover every diagnosis
/// class: exact repeats, case/punctuation variants, word reorders,
/// strict token subsets, initialisms and prefixes, one-edit
/// misspellings, close numerics, missing/blank values, unicode
/// lowercase expansion ('İ' → "i" + combining dot), and plain
/// disagreements.
const POOL: &[Option<&str>] = &[
    Some("dave smith"),
    Some("Dave Smith"),
    Some("Dave, Smith!"),
    Some("smith dave"),
    Some("dave"),
    Some("dave smith jr"),
    Some("ds"),
    Some("da"),
    Some("dave smyth"),
    Some("International Business Machines"),
    Some("IBM"),
    Some("İstanbul Grill"),
    Some("istanbul grill"),
    Some("100"),
    Some("103"),
    Some("97.5"),
    Some("250"),
    Some(""),
    Some("   "),
    Some("completely unrelated value"),
    None,
];

fn random_table(name: &str, schema: &Arc<Schema>, rows: usize, rng: &mut StdRng) -> Table {
    let mut t = Table::new(name, Arc::clone(schema));
    for _ in 0..rows {
        let row: Vec<Option<String>> = (0..schema.len())
            .map(|_| POOL[rng.random_range(0..POOL.len())].map(str::to_string))
            .collect();
        t.push(Tuple::new(row));
    }
    t
}

/// A table whose cells mostly repeat one shared value, so pairs show few
/// problems and signatures repeat across pairs; a `noise` share of the
/// cells is drawn from the pool instead.
fn mostly_clean_table(
    name: &str,
    schema: &Arc<Schema>,
    rows: usize,
    noise: f64,
    rng: &mut StdRng,
) -> Table {
    let mut t = Table::new(name, Arc::clone(schema));
    for _ in 0..rows {
        let row: Vec<Option<String>> = (0..schema.len())
            .map(|_| {
                if rng.random_bool(noise) {
                    POOL[rng.random_range(0..POOL.len())].map(str::to_string)
                } else {
                    Some("dave smith".to_string())
                }
            })
            .collect();
        t.push(Tuple::new(row));
    }
    t
}

/// A synthetic candidate union: a random subset of the cross product,
/// with two configs' worth of random scores (some absent).
fn random_union(n_a: usize, n_b: usize, frac: f64, rng: &mut StdRng) -> CandidateUnion {
    let mut pairs = Vec::new();
    for x in 0..n_a {
        for y in 0..n_b {
            if rng.random_bool(frac) {
                pairs.push(pair_key(x as TupleId, y as TupleId));
            }
        }
    }
    let scores = (0..2)
        .map(|_| {
            pairs
                .iter()
                .map(|_| rng.random_bool(0.8).then(|| rng.random_range(0.0..1.0)))
                .collect()
        })
        .collect();
    CandidateUnion { pairs, scores }
}

#[test]
fn batch_diagnoses_equal_per_pair_oracle_on_every_cell() {
    let schema = Arc::new(Schema::from_names(["name", "city", "age"]));
    let mut covered: HashSet<std::mem::Discriminant<Diagnosis>> = HashSet::new();
    for seed in [1u64, 42, 0xfeed] {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_table("A", &schema, 30, &mut rng);
        let b = random_table("B", &schema, 30, &mut rng);
        // Every cell with both values present is one lookup, and every
        // distinct present value, per attribute across both tables, is
        // interned once.
        let mut present_cells = 0u64;
        let mut distinct_values = 0u64;
        for attr in schema.attr_ids() {
            let col_a = (0..a.len() as TupleId).map(|x| a.value(x, attr));
            let col_b = (0..b.len() as TupleId).map(|y| b.value(y, attr));
            let present_a = col_a.clone().flatten().count() as u64;
            let present_b = col_b.clone().flatten().count() as u64;
            present_cells += present_a * present_b;
            let distinct: HashSet<&str> = col_a.chain(col_b).flatten().collect();
            distinct_values += distinct.len() as u64;
        }
        for threads in [1usize, 4] {
            let kernel = DiagnosisKernel::build(&a, &b, threads);
            for x in 0..a.len() as TupleId {
                for y in 0..b.len() as TupleId {
                    let batch = kernel.diagnose_pair(x, y);
                    let oracle = explain_match(&a, &b, x, y);
                    assert_eq!(oracle.pair, (x, y));
                    assert_eq!(
                        batch, oracle.per_attr,
                        "seed {seed} threads {threads} pair ({x},{y}): \
                         batch and per-pair diagnoses diverge"
                    );
                    for &(_, d) in &batch {
                        covered.insert(std::mem::discriminant(&d));
                    }
                }
            }
            let stats = kernel.stats();
            assert_eq!(
                stats.lookups, present_cells,
                "seed {seed} threads {threads}"
            );
            assert_eq!(
                stats.distinct_values, distinct_values,
                "seed {seed} threads {threads}"
            );
        }
    }
    // The pool must actually exercise the whole cascade, or the
    // equivalence proof above is vacuous for the untested classes.
    let all = [
        Diagnosis::Exact,
        Diagnosis::CaseOrPunct,
        Diagnosis::MissingOneSide,
        Diagnosis::MissingBoth,
        Diagnosis::Abbreviation,
        Diagnosis::WordReorder,
        Diagnosis::TokenSubset,
        Diagnosis::SmallEdit(1),
        Diagnosis::NumericClose,
        Diagnosis::Different,
    ];
    for d in all {
        assert!(
            covered.contains(&std::mem::discriminant(&d)),
            "diagnosis class {d:?} never produced by the pool"
        );
    }
}

#[test]
fn batch_pervasiveness_and_similar_pairs_equal_slow_path() {
    let schema = Arc::new(Schema::from_names(["name", "city"]));
    for seed in [7u64, 0xbeef] {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_table("A", &schema, 25, &mut rng);
        let b = random_table("B", &schema, 25, &mut rng);
        let union = random_union(a.len(), b.len(), 0.3, &mut rng);
        // A few union pairs play the confirmed killed-off matches.
        let confirmed: Vec<(TupleId, TupleId)> = union
            .pairs
            .iter()
            .step_by(17)
            .map(|&k| mc_table::split_pair_key(k))
            .collect();

        let kernel = DiagnosisKernel::build(&a, &b, 3);
        let fast = kernel.pervasiveness(&union, &confirmed);
        let slow = pervasive::pervasiveness(&a, &b, &union, &confirmed);
        assert_eq!(fast.len(), slow.len(), "seed {seed}: group counts diverge");
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.signature, s.signature, "seed {seed}");
            assert_eq!(f.pairs, s.pairs, "seed {seed}");
            assert_eq!(f.confirmed, s.confirmed, "seed {seed}");
        }

        for &m in confirmed.iter().take(3) {
            assert_eq!(
                kernel.similar_pairs(&union, m),
                pervasive::similar_pairs(&a, &b, &union, m),
                "seed {seed}: similar_pairs({m:?}) diverges"
            );
        }
    }
}

/// A schema wider than one packed signature word (16 attributes): the
/// kernel's sweep spreads each signature over two words, and grouping and
/// the similar-pairs mask must still match the per-pair path.
#[test]
fn wide_schema_pervasiveness_and_similar_pairs_equal_slow_path() {
    let names: Vec<String> = (0..20).map(|i| format!("f{i}")).collect();
    let schema = Arc::new(Schema::from_names(names));
    for seed in [3u64, 0xabc] {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = mostly_clean_table("A", &schema, 30, 0.06, &mut rng);
        let b = mostly_clean_table("B", &schema, 30, 0.06, &mut rng);
        let union = random_union(a.len(), b.len(), 0.4, &mut rng);
        let confirmed: Vec<(TupleId, TupleId)> = union
            .pairs
            .iter()
            .step_by(11)
            .map(|&k| mc_table::split_pair_key(k))
            .collect();
        let slow = pervasive::pervasiveness(&a, &b, &union, &confirmed);
        assert!(
            slow.iter().any(|g| g.pairs.len() > 1),
            "seed {seed}: some signature must be shared"
        );
        assert!(
            slow.iter().any(|g| g
                .signature
                .problems()
                .iter()
                .any(|(attr, _)| attr.index() >= 16)),
            "seed {seed}: some problem must sit past the first signature word"
        );
        let mut similar_found = false;
        for threads in [1usize, 4] {
            let kernel = DiagnosisKernel::build(&a, &b, threads);
            let fast = kernel.pervasiveness(&union, &confirmed);
            assert_eq!(fast.len(), slow.len(), "seed {seed}: group counts diverge");
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.signature, s.signature, "seed {seed} threads {threads}");
                assert_eq!(f.pairs, s.pairs, "seed {seed} threads {threads}");
                assert_eq!(f.confirmed, s.confirmed, "seed {seed} threads {threads}");
            }
            for &m in confirmed.iter().take(6) {
                let sim = kernel.similar_pairs(&union, m);
                assert_eq!(
                    sim,
                    pervasive::similar_pairs(&a, &b, &union, m),
                    "seed {seed} threads {threads}: similar_pairs({m:?}) diverges"
                );
                similar_found |= !sim.is_empty();
            }
        }
        assert!(
            similar_found,
            "seed {seed}: some similar-pair list must be non-empty"
        );
    }
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[test]
fn serve_explain_and_pervade_round_trip() {
    let daemon = Daemon::spawn(ServeParams::default()).expect("spawn");
    let mut client = Client::connect(daemon.addr(), Duration::from_secs(120)).expect("connect");
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "open".into()),
            ("profile", "fodors-zagats".into()),
            ("scale", JsonValue::Num(0.35)),
            ("seed", 11u64.into()),
            ("blocker_attr", 0u64.into()),
            ("q", 1u64.into()),
        ]))
        .expect("open");
    let session = resp.get("session").unwrap().as_u64().unwrap();
    let confirmed = resp
        .get("report")
        .unwrap()
        .get("confirmed")
        .unwrap()
        .as_array()
        .unwrap()
        .len() as u64;

    // explain: pages align with the report, every item carries the
    // mc-explain/v1 members, and gap = score − floor where both exist.
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "explain".into()),
            ("session", session.into()),
            ("offset", 0u64.into()),
            ("limit", 100u64.into()),
        ]))
        .expect("explain");
    assert_eq!(resp.get("schema").unwrap().as_str(), Some("mc-explain/v1"));
    assert_eq!(resp.get("total").unwrap().as_u64(), Some(confirmed));
    let items = resp.get("items").unwrap().as_array().unwrap();
    assert_eq!(items.len() as u64, confirmed.min(100));
    for item in items {
        let attrs = item.get("attrs").unwrap().as_array().unwrap();
        assert!(!attrs.is_empty());
        for a in attrs {
            assert!(a.get("diagnosis").unwrap().as_str().is_some());
            assert!(a.get("agreement").unwrap().as_bool().is_some());
        }
        for s in item.get("scores").unwrap().as_array().unwrap() {
            if let (Some(score), Some(floor)) = (
                s.get("score").and_then(JsonValue::as_f64),
                s.get("floor").and_then(JsonValue::as_f64),
            ) {
                let gap = s.get("gap").and_then(JsonValue::as_f64).unwrap();
                assert!((gap - (score - floor)).abs() < 1e-12, "gap ≠ score − floor");
            }
        }
    }

    // pervade: groups are sorted most-pervasive-first and their kill
    // counts never exceed the session's confirmed matches.
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "pervade".into()),
            ("session", session.into()),
            ("limit", 50u64.into()),
        ]))
        .expect("pervade");
    assert_eq!(resp.get("schema").unwrap().as_str(), Some("mc-explain/v1"));
    assert!(resp.get("union_size").unwrap().as_u64().unwrap() > 0);
    let groups = resp.get("groups").unwrap().as_array().unwrap();
    assert!(!groups.is_empty(), "a lossy blocker must show problems");
    let mut prev: Option<(u64, u64)> = None;
    let mut kills_total = 0;
    for g in groups {
        let pairs = g.get("pairs").unwrap().as_u64().unwrap();
        let kills = g.get("kills").unwrap().as_u64().unwrap();
        assert!(kills <= pairs, "a group cannot kill more than it holds");
        assert!(!g.get("problems").unwrap().as_array().unwrap().is_empty());
        assert!(g.get("signature").unwrap().as_str().is_some());
        if let Some((pk, pp)) = prev {
            assert!(
                (kills, pairs) <= (pk, pp),
                "groups must be sorted most pervasive first"
            );
        }
        prev = Some((kills, pairs));
        kills_total += kills;
    }
    assert!(
        kills_total <= confirmed,
        "killed-match attributions exceed the confirmed count"
    );

    let (_, protocol_errors) = daemon.shutdown();
    assert_eq!(protocol_errors, 0);
}
