//! Criterion micro-benchmarks for the top-k SSJ engine: QJoin vs the
//! TopKJoin baseline (the §4.1 improvement) and multi-config execution
//! on one worker vs one config per core (the §4.2 schedule).
//!
//! Set `MC_BENCH_SMOKE=1` to shrink the dataset and sample counts to a
//! CI-friendly smoke run that only checks the benches still execute.

use criterion::{criterion_group, criterion_main, Criterion};
use matchcatcher::config::ConfigGenerator;
use matchcatcher::joint::{run_joint, JointParams};
use matchcatcher::ssj::{topk_join, SsjInstance, SsjParams};
use mc_datagen::profiles::DatasetProfile;
use mc_strsim::arena::RecordArena;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::measures::SetMeasure;
use mc_strsim::tokenize::Tokenizer;
use mc_table::PairSet;
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("MC_BENCH_SMOKE").is_some()
}

fn scale() -> f64 {
    if smoke() {
        0.05
    } else {
        0.25
    }
}

fn ssj_records() -> (RecordArena, RecordArena) {
    // Long-ish records (the regime where QJoin's deferred scoring pays).
    let ds = DatasetProfile::AmazonGoogle.generate_scaled(3, scale());
    let gen = ConfigGenerator::default();
    let promising = gen.promising(&ds.a, &ds.b);
    let (ta, tb, _) = TokenizedTable::build_pair(&ds.a, &ds.b, &promising.attrs, Tokenizer::Word);
    let all: Vec<usize> = (0..promising.attrs.len()).collect();
    let ra = RecordArena::from_tokenized(&ta, &all);
    let rb = RecordArena::from_tokenized(&tb, &all);
    (ra, rb)
}

fn bench_qjoin_vs_topkjoin(c: &mut Criterion) {
    let (ra, rb) = ssj_records();
    let killed = PairSet::new();
    let inst = SsjInstance {
        records_a: &ra,
        records_b: &rb,
        killed: &killed,
    };
    let mut group = c.benchmark_group("topk_ssj");
    group.sample_size(10);
    for q in [1usize, 2, 3] {
        group.bench_function(format!("k200_q{q}"), |b| {
            b.iter(|| {
                let list = topk_join(
                    inst,
                    SsjParams {
                        k: 200,
                        q,
                        measure: SetMeasure::Jaccard,
                    },
                    &[],
                    None,
                );
                black_box(list.len())
            })
        });
    }
    group.finish();
}

fn bench_multi_config(c: &mut Criterion) {
    let ds = DatasetProfile::AmazonGoogle.generate_scaled(3, scale());
    let gen = ConfigGenerator::default();
    let promising = gen.promising(&ds.a, &ds.b);
    let tree = gen.build_tree(&promising);
    let (ta, tb, _) = TokenizedTable::build_pair(&ds.a, &ds.b, &promising.attrs, Tokenizer::Word);
    let killed = PairSet::new();
    let mut group = c.benchmark_group("multi_config");
    group.sample_size(10);
    for (name, threads) in [("one_worker", 1), ("config_per_core", 0)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let out = run_joint(
                    &ta,
                    &tb,
                    &killed,
                    &tree,
                    JointParams {
                        k: 100,
                        threads,
                        ..Default::default()
                    },
                );
                black_box(out.lists.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_qjoin_vs_topkjoin, bench_multi_config);
criterion_main!(benches);
