//! `zipf-runs`: one-shot `MatchCatcher::run` against an artifact store.
//!
//! A **write** applies a small delta to both tables (so every store
//! artifact misses) and runs the cold pipeline, publishing tokenization,
//! arenas and the candidate union. A **read** runs the same version
//! again: a warm hit on the tokenization and the union. The store is
//! trimmed between versions, outside the timed region.
//!
//! Traced ops replay `run`'s store-aware stages call by call, so each
//! public layer call gets its own span; the replayed report must
//! summarize identically to `run`'s.

use crate::trace::{TracedOp, Tracer};
use crate::{
    add_report_counts, found_gold, timed, Class, Measured, OpSample, RunConfig, TimedOracle,
};
use matchcatcher::config::ConfigGenerator;
use matchcatcher::debugger::{DebugReport, DebuggerParams, MatchCatcher};
use matchcatcher::explain_batch::explain_stage;
use matchcatcher::features::FeatureExtractor;
use matchcatcher::joint::{build_arenas, run_joint_with_arenas, CandidateUnion};
use matchcatcher::store_io;
use matchcatcher::verify::run_verifier;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::{MetricsSnapshot, ObsContext};
use mc_serve::proto::report_summary;
use mc_store::{ArtifactKind, Store, StoreConfig};
use mc_strsim::arena::RecordArena;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::tokenize::Tokenizer;
use mc_table::{AttrId, GoldMatches, PairSet, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Share of rows each write edits.
const DELTA_FRAC: f64 = 0.002;

struct Data {
    a: Table,
    b: Table,
    gold: GoldMatches,
    c: PairSet,
    rng: StdRng,
}

fn blocker() -> Blocker {
    Blocker::Hash(KeyFunc::Attr(AttrId(0)))
}

fn generate(cfg: &RunConfig) -> Data {
    let scale = if cfg.tiny { 0.01 } else { 0.25 };
    let ds = DatasetProfile::ZipfScale.generate_scaled(crate::DATASET_SEED, scale);
    let c = blocker().apply(&ds.a, &ds.b);
    Data {
        a: ds.a,
        b: ds.b,
        gold: ds.gold,
        c,
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x5eed_0001),
    }
}

fn params(cfg: &RunConfig, store: &Path) -> DebuggerParams {
    let mut p = if cfg.tiny {
        // Pinned to one thread so work counters repeat exactly.
        let mut p = DebuggerParams::small();
        p.joint.threads = 1;
        p.verifier.forest.threads = 1;
        p
    } else {
        DebuggerParams::default()
    };
    p.joint.k = if cfg.tiny { 20 } else { 200 };
    p.store = Some(StoreConfig::at(store));
    p.obs = ObsContext::session();
    p
}

/// Applies the next version's delta to both tables and re-runs the
/// blocker (the user's edit; untimed).
fn next_version(d: &mut Data) {
    for t in [&mut d.a, &mut d.b] {
        let spec = DeltaSpec::fraction_of(t.len(), DELTA_FRAC);
        let delta = random_delta(t, spec, &mut d.rng);
        delta.apply(t).expect("generated deltas validate");
    }
    d.c = blocker().apply(&d.a, &d.b);
}

fn trim(store: &Path) {
    if let Ok(s) = Store::open(&StoreConfig::at(store)) {
        s.gc(0);
    }
}

fn summary(r: &DebugReport) -> String {
    report_summary(r).to_json_string()
}

/// One timed `run`, as an op sample plus its report.
fn timed_run(mc: &MatchCatcher, d: &Data, write: bool) -> (OpSample, DebugReport) {
    let mut oracle = TimedOracle::new(&d.gold);
    let t = Instant::now();
    let (report, peak) = crate::alloc::with_peak_rss(|| mc.run(&d.a, &d.b, &d.c, &mut oracle));
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let sample = OpSample {
        write,
        wall_ms,
        first_page_ms: oracle.first.map(|f| (f - t).as_secs_f64() * 1e3),
        labels: report.labeled,
        peak_mib: Some(peak),
        found: found_gold(&report, &d.gold),
        killed_gold: d.gold.killed(&d.c),
        failed: false,
    };
    (sample, report)
}

pub(crate) fn run(cfg: &RunConfig) -> Measured {
    let store = cfg
        .work_dir
        .join(format!("store-zipf-runs-{}", std::process::id()));
    let mut m = Measured::default();
    let setups = if cfg.trace || cfg.tiny { 1 } else { 3 };
    let mut data = None;
    for _ in 0..setups {
        let _ = std::fs::remove_dir_all(&store);
        drop(data.take());
        // Set-up: generate the tables, run the blocker, open the store,
        // and run version 0 cold then warm so lazy state is initialized.
        let (d, secs) = timed(|| {
            let d = generate(cfg);
            let mc = MatchCatcher::new(params(cfg, &store));
            let _ = timed_run(&mc, &d, true);
            let _ = timed_run(&mc, &d, false);
            trim(&store);
            d
        });
        m.setups_s.push(secs / 1e3);
        data = Some(d);
    }
    let mut d = data.expect("at least one set-up");
    let mc = MatchCatcher::new(params(cfg, &store));
    let mut tr = Tracer::new(Instant::now(), 0);

    // A traced run alternates untraced and traced versions over twice the
    // phase, so both see the same machine conditions.
    let (seconds, min_versions) = if cfg.trace {
        (2.0 * cfg.seconds, 4)
    } else {
        (cfg.seconds, 2)
    };
    let start = Instant::now();
    let mut version = 0;
    while start.elapsed().as_secs_f64() < seconds || version < min_versions {
        next_version(&mut d);
        let traced = cfg.trace && version % 2 == 1;
        let mut summaries = Vec::new();
        for class in Class::ALL {
            let report = if traced {
                traced_op(&mc, &d, class, &mut tr, &mut m)
            } else {
                let (sample, report) = timed_run(&mc, &d, class == Class::Write);
                m.samples.push(sample);
                report
            };
            summaries.push(summary(&report));
        }
        if summaries[0] != summaries[1] {
            m.problems.push(format!(
                "version {version}: warm read report differs from the write report"
            ));
        }
        trim(&store);
        version += 1;
    }
    m.phase_s = start.elapsed().as_secs_f64();

    if cfg.trace {
        // The replay must summarize exactly like `run` itself: a replayed
        // write, then a cold `run` on the same version.
        next_version(&mut d);
        let mut untraced = Tracer::new(Instant::now(), 0);
        let replayed = replay(&mc, &d, &mut TimedOracle::new(&d.gold), &mut untraced);
        trim(&store);
        let (_, cold) = timed_run(&mc, &d, true);
        trim(&store);
        m.extra_attempted += 1;
        if summary(&cold) != summary(&replayed) {
            m.extra_failed += 1;
            m.problems
                .push("replayed stages summarize differently from MatchCatcher::run".into());
        }
        m.spans = tr.spans;
    }
    let _ = std::fs::remove_dir_all(&store);
    m
}

/// One traced op: the replayed pipeline with allocation counting on.
fn traced_op(
    mc: &MatchCatcher,
    d: &Data,
    class: Class,
    tr: &mut Tracer,
    m: &mut Measured,
) -> DebugReport {
    crate::alloc::set_counting(true);
    tr.begin_op();
    let t = Instant::now();
    let report = replay(mc, d, &mut TimedOracle::new(&d.gold), tr);
    let wall_us = t.elapsed().as_secs_f64() * 1e6;
    crate::alloc::set_counting(false);
    let mut op = tr.end_op(class, wall_us);
    add_report_counts(&mut op, &report);
    add_stage_values(&mut op, tr, &report);
    m.traced.push(op);
    m.extra_attempted += 1;
    report
}

/// Per-op stage values from the op's spans and the program's counters.
fn add_stage_values(op: &mut TracedOp, tr: &Tracer, report: &DebugReport) {
    let spans: Vec<_> = tr.spans.iter().filter(|s| s.op == op.id).collect();
    let ms = |pred: &dyn Fn(&str) -> bool| -> f64 {
        spans
            .iter()
            .filter(|s| pred(&s.name))
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e3
    };
    let config_ms = ms(&|n| n.starts_with("ConfigGenerator::"));
    let tokenize_ms = ms(&|n| n == "TokenizedTable::build_pair");
    let arenas_ms = ms(&|n| n == "build_arenas");
    let topk_ms = ms(&|n| n == "run_joint_with_arenas" || n == "CandidateUnion::build");
    let load_ms = ms(&|n| n.starts_with("Store::load"));
    let publish_ms = ms(&|n| n.ends_with("Store::publish"));
    let verify_ms = ms(&|n| n == "FeatureExtractor::new+run_verifier");
    let explain_ms = ms(&|n| n == "explain_stage");
    let mm = &report.metrics;
    let hits = mm.counter("mc.store.hits") as f64;
    let lookups = hits + mm.counter("mc.store.misses") as f64;
    for (k, v) in [
        ("config.promising_ms", config_ms),
        ("strsim.tokenize_ms", tokenize_ms),
        (
            "strsim.tokens",
            mm.histogram("mc.strsim.dict.tokens_per_build").sum as f64,
        ),
        ("joint.arenas_ms", arenas_ms),
        ("joint.topk_ms", topk_ms),
        ("store.load_ms", load_ms),
        ("store.publish_ms", publish_ms),
        ("store.hits", hits),
        ("store.lookups", lookups),
        (
            "store.bytes_loaded",
            mm.counter("mc.store.bytes_loaded") as f64,
        ),
        (
            "store.bytes_written",
            mm.counter("mc.store.bytes_written") as f64,
        ),
        ("verify.ms", verify_ms),
        ("explain.ms", explain_ms),
    ] {
        op.add(k, v);
    }
}

/// `MatchCatcher::run`'s store-aware pipeline, one public call per span:
/// store lookups, config generation, tokenization, arenas, joint top-k,
/// verification and explanation, publishing what had to be computed.
fn replay(mc: &MatchCatcher, d: &Data, oracle: &mut TimedOracle, tr: &mut Tracer) -> DebugReport {
    let p = &mc.params;
    let (a, b, c) = (&d.a, &d.b, &d.c);
    let _obs = p.obs.attach();
    let before = tr.span(
        "bench",
        "MetricsSnapshot::capture",
        MetricsSnapshot::capture,
    );
    let store = tr.span("store", "Store::open", || {
        Store::open(p.store.as_ref().expect("the workload configures a store"))
            .expect("the bench store opens")
    });
    let generator = ConfigGenerator::new(p.config);
    let promising = tr.span("config", "ConfigGenerator::promising", || {
        generator.promising(a, b)
    });
    let tree = tr.span("config", "ConfigGenerator::build_tree", || {
        generator.build_tree(&promising)
    });
    let attrs = &promising.attrs;
    let tok = tr.span("store", "store_io::tok_key", || {
        store_io::tok_key(
            a.content_digest(),
            b.content_digest(),
            attrs,
            Tokenizer::Word,
        )
    });
    let cached = tr.span("store", "Store::load+decode_tokenization", || {
        store
            .load(ArtifactKind::Tokenization, tok)
            .and_then(|bytes| store_io::decode_tokenization(&bytes))
            .and_then(|(_, ta, tb)| {
                (ta.rows() == a.len()
                    && tb.rows() == b.len()
                    && ta.attr_count() == attrs.len()
                    && tb.attr_count() == attrs.len())
                .then_some((ta, tb))
            })
    });
    let (tok_a, tok_b) = match cached {
        Some(pair) => pair,
        None => {
            let (ta, tb, order) = tr.span("strsim", "TokenizedTable::build_pair", || {
                TokenizedTable::build_pair(a, b, attrs, Tokenizer::Word)
            });
            tr.span("store", "encode_tokenization+Store::publish", || {
                store.publish(
                    ArtifactKind::Tokenization,
                    tok,
                    &store_io::encode_tokenization(&order, &ta, &tb),
                )
            });
            (ta, tb)
        }
    };
    let ukey = tr.span("store", "store_io::union_key", || {
        store_io::union_key(tok, &tree, &p.joint, c)
    });
    let hit = tr.span("store", "Store::load+decode_union", || {
        store
            .load(ArtifactKind::CandidateUnion, ukey)
            .and_then(|bytes| store_io::decode_union(&bytes))
            .filter(|(configs, _, _)| *configs == tree.configs())
    });
    let (configs, q_used, union) = match hit {
        Some(restored) => restored,
        None => {
            let configs = tree.configs();
            let arenas = arenas(&store, tok, &tok_a, &tok_b, &configs, p.joint.threads, tr);
            let out = tr.span("joint", "run_joint_with_arenas", || {
                run_joint_with_arenas(&tok_a, &tok_b, c, &tree, p.joint, &arenas)
            });
            let union = tr.span("joint", "CandidateUnion::build", || {
                CandidateUnion::build(&out.lists)
            });
            tr.span("store", "encode_union+Store::publish", || {
                store.publish(
                    ArtifactKind::CandidateUnion,
                    ukey,
                    &store_io::encode_union(&out.configs, out.q_used, &union),
                )
            });
            (out.configs, out.q_used, union)
        }
    };
    let outcome = tr.span("verify", "FeatureExtractor::new+run_verifier", || {
        let fx = FeatureExtractor::new(a, b, attrs, &tok_a, &tok_b);
        run_verifier(&union, &fx, oracle, &p.verifier)
    });
    let ex = tr.span("explain", "explain_stage", || {
        explain_stage(a, b, &union, &outcome.matches, p.joint.threads)
    });
    tr.span("bench", "assemble DebugReport", || DebugReport {
        promising: promising.attrs.clone(),
        configs,
        e_size: union.len(),
        confirmed_matches: ex.confirmed,
        iterations: outcome.iterations,
        labeled: outcome.labeled,
        explanations: ex.explanations,
        problems: ex.problems,
        pervasive: ex.pervasive,
        explanation_scores: ex.explanation_scores,
        config_floors: ex.config_floors,
        q_used,
        metrics: MetricsSnapshot::capture().since(&before),
    })
}

/// Per-config arenas: zero-copy store payloads first, then the byte
/// codec, else built (in parallel when nothing was restored) and
/// published in the zero-copy layout.
fn arenas(
    store: &Store,
    tok: mc_store::Digest,
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    configs: &[matchcatcher::Config],
    threads: usize,
    tr: &mut Tracer,
) -> Vec<(RecordArena, RecordArena)> {
    let keys: Vec<_> = configs
        .iter()
        .map(|c| {
            let pos = c.positions();
            (
                store_io::arena_key(tok, 0, &pos),
                store_io::arena_key(tok, 1, &pos),
            )
        })
        .collect();
    let restore = |key| {
        store
            .load_mapped(ArtifactKind::Postings, key)
            .and_then(store_io::map_arena)
            .or_else(|| {
                store
                    .load(ArtifactKind::Arena, key)
                    .and_then(|bytes| store_io::decode_arena(&bytes))
            })
    };
    let mut slots: Vec<Option<(RecordArena, RecordArena)>> =
        tr.span("store", "Store::load_mapped+map_arena", || {
            keys.iter()
                .map(|&(ka, kb)| {
                    let pair = (restore(ka)?, restore(kb)?);
                    (pair.0.len() == tok_a.rows() && pair.1.len() == tok_b.rows()).then_some(pair)
                })
                .collect()
        });
    let mut fresh = Vec::new();
    if slots.iter().all(Option::is_none) {
        let built = tr.span("joint", "build_arenas", || {
            build_arenas(tok_a, tok_b, configs, threads)
        });
        for (i, pair) in built.into_iter().enumerate() {
            slots[i] = Some(pair);
            fresh.push(i);
        }
    } else {
        tr.span("joint", "build_arenas", || {
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.is_none() {
                    let pos = configs[i].positions();
                    *slot = Some((
                        RecordArena::from_tokenized(tok_a, &pos),
                        RecordArena::from_tokenized(tok_b, &pos),
                    ));
                    fresh.push(i);
                }
            }
        });
    }
    tr.span("store", "encode_arena_zc+Store::publish", || {
        for &i in &fresh {
            let (ka, kb) = keys[i];
            let (ra, rb) = slots[i].as_ref().expect("filled above");
            store.publish(ArtifactKind::Postings, ka, &store_io::encode_arena_zc(ra));
            store.publish(ArtifactKind::Postings, kb, &store_io::encode_arena_zc(rb));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}
