//! Joint execution of top-k joins across all configs (§4.2).
//!
//! Every config of the tree gets one exact top-k join over its own
//! record arenas, and the joins run **one config per core**: a pool of
//! workers claims configs in tree order from one atomic counter. The
//! pool is the caller plus one helper per free slot of the CPU budget
//! ([`mc_obs::par`]), at most `threads` workers in all.
//! Splitting a single config across cores suffers from skew (§4.2), so
//! parallelism is across configs.
//!
//! The paper layers two reuse mechanisms on top of this schedule: an
//! overlap database `H`, from which a child config sums its parent's
//! per-attribute-pair overlaps, and parent→child top-k list seeding.
//! This implementation has neither; EXPERIMENTS.md §6.5 records the
//! measurements behind that. The decomposed overlap overestimates a
//! pair's score whenever a token repeats across attributes, which
//! inflated `|E|`, lost matches and cost time; seeding saved about 15%
//! at one worker and cost about 20% at two, because children wait for
//! their parents. Without them:
//!
//! * each config's list is the exact canonical top-k (score descending,
//!   pair key ascending) of its own pair universe — a pure function of
//!   the arenas, the killed set, `k`, `q` and the measure. That is the
//!   property [`crate::incr::DebugSession`] maintains incrementally, so
//!   a session's first report and [`crate::debugger::MatchCatcher::run`]
//!   are one computation;
//! * no config ever waits on another, and together with the
//!   deterministic `q` selection of [`select_q`], `run_joint` produces a
//!   **bit-identical** [`JointOutput`] at every thread count.
//!
//! Configs share nothing but the arenas they read. Each worker keeps one
//! [`JoinScratch`] for every config it claims, and every join scores
//! through that scratch's bound memo, the one scoring path of
//! [`crate::ssj`]; Auto-q's preludes score the same way and keep no
//! scores for the main run.

use crate::config::{Config, ConfigTree};
use crate::ssj::{select_q, topk_join_with_scratch, JoinScratch, SsjInstance, SsjParams, TopKList};
use mc_strsim::arena::RecordArena;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::measures::SetMeasure;
use mc_table::hash::FxHashMap;
use mc_table::PairSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How QJoin's `q` is chosen.
#[derive(Debug, Clone, Copy)]
pub enum QStrategy {
    /// Use a fixed `q` (1 = TopKJoin behaviour).
    Fixed(usize),
    /// Race `q ∈ {1, …, max_q}` with a `prelude_k` join on the root
    /// config and use the winner everywhere (§4.1's empirical selection).
    Auto {
        /// Largest q to try.
        max_q: usize,
        /// Prelude list size (the paper uses 50).
        prelude_k: usize,
    },
}

/// Parameters of the joint execution.
#[derive(Debug, Clone, Copy)]
pub struct JointParams {
    /// Top-k list size per config.
    pub k: usize,
    /// Similarity measure.
    pub measure: SetMeasure,
    /// QJoin q selection.
    pub q: QStrategy,
    /// Upper bound on the workers of each joint-stage and explain-stage
    /// fan-out; the CPU budget ([`mc_obs::par`]) grants fewer while
    /// other pipeline calls hold the cores. `Default` is the machine's
    /// core count; [`run_joint`] still tolerates an explicit 0 as "all
    /// cores", but `DebuggerParams::validate` rejects it.
    pub threads: usize,
    /// No effect; defaults to `false`. The overlap database `H` it used
    /// to enable is gone (see the module docs). The field remains only
    /// so that code assigning it keeps compiling.
    pub reuse_overlaps: bool,
    /// No effect; defaults to `false`. Parent→child top-k list seeding
    /// is gone (see the module docs). The field remains only so that
    /// code assigning it keeps compiling.
    pub reuse_topk: bool,
}

impl Default for JointParams {
    fn default() -> Self {
        JointParams {
            k: 1000,
            measure: SetMeasure::Jaccard,
            q: QStrategy::Fixed(1),
            threads: mc_obs::par::cores(),
            reuse_overlaps: false,
            reuse_topk: false,
        }
    }
}

/// Result of the joint execution.
///
/// Wall-clock timing lives in the observability layer: the execution is
/// wrapped in an `mc.core.joint.run` span (and each config in a labeled
/// `mc.core.joint.config` span), so read durations from a
/// [`mc_obs::MetricsSnapshot`] delta instead of an ad-hoc field.
pub struct JointOutput {
    /// Configs in tree order.
    pub configs: Vec<Config>,
    /// One top-k list per config (same order).
    pub lists: Vec<TopKList>,
    /// The q actually used.
    pub q_used: usize,
}

/// Materializes both sides' flat record arenas for every config, on up
/// to `threads` workers (`0` = all cores) of the CPU budget
/// ([`mc_obs::par`]), so workers share them by reference (no per-worker
/// clones).
///
/// Public so warm-start callers (`mc-store`) can build — or restore —
/// arenas themselves and hand them to [`run_joint_with_arenas`].
pub fn build_arenas(
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    configs: &[Config],
    threads: usize,
) -> Vec<(RecordArena, RecordArena)> {
    let _span = mc_obs::span!("mc.core.joint.build_arenas");
    mc_obs::par::map(configs, threads, |config| {
        let idx = config.positions();
        (
            RecordArena::from_tokenized(tok_a, &idx),
            RecordArena::from_tokenized(tok_b, &idx),
        )
    })
}

/// Runs one top-k join per config of the tree, jointly.
///
/// `tok_a`/`tok_b` are the promising-attribute tokenizations (shared rank
/// space); `killed` is the blocker output `C`. Builds the per-config
/// record arenas itself; callers that keep the arenas (an incremental
/// session patches them) build them with [`build_arenas`] and call
/// [`run_joint_with_arenas`] instead.
pub fn run_joint(
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    killed: &PairSet,
    tree: &ConfigTree,
    params: JointParams,
) -> JointOutput {
    let configs = tree.configs();
    let arenas = build_arenas(tok_a, tok_b, &configs, params.threads);
    run_joint_with_arenas(tok_a, tok_b, killed, tree, params, &arenas)
}

/// Runs the joint execution over pre-built per-config record arenas
/// (`arenas[i]` = `(side A, side B)` for config `i` in tree order, as
/// [`build_arenas`] produces them from `tok_a`/`tok_b`; the joins read
/// only the arenas).
///
/// The output is bit-identical at every thread count (see the module
/// docs).
pub fn run_joint_with_arenas(
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    killed: &PairSet,
    tree: &ConfigTree,
    params: JointParams,
    arenas: &[(RecordArena, RecordArena)],
) -> JointOutput {
    let _run_span = mc_obs::span!("mc.core.joint.run");
    let configs = tree.configs();
    let n = configs.len();
    assert_eq!(arenas.len(), n, "one arena pair per config, in tree order");
    debug_assert!(
        arenas
            .iter()
            .all(|(a, b)| a.len() == tok_a.rows() && b.len() == tok_b.rows()),
        "every arena covers its tokenized table's rows"
    );

    // q selection on the root config.
    let q_used = match params.q {
        QStrategy::Fixed(q) => q.max(1),
        QStrategy::Auto { max_q, prelude_k } => {
            let (records_a, records_b) = &arenas[0];
            let inst = SsjInstance {
                records_a,
                records_b,
                killed,
            };
            select_q(inst, params.measure, max_q, prelude_k)
        }
    };

    let lists: Vec<OnceLock<TopKList>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    mc_obs::gauge!("mc.core.joint.q_used").set(q_used as i64);
    let workers = mc_obs::par::fan_out(params.threads, n, || {
        // The join scratch is reused across every config this worker
        // processes, so steady state allocates nothing.
        let mut my_configs = 0u64;
        let mut scratch = JoinScratch::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let _config_span = mc_obs::span!("mc.core.joint.config", i as u64);
            my_configs += 1;
            let (records_a, records_b) = &arenas[i];
            let list = topk_join_with_scratch(
                SsjInstance {
                    records_a,
                    records_b,
                    killed,
                },
                SsjParams {
                    k: params.k,
                    q: q_used,
                    measure: params.measure,
                },
                &[],
                None,
                &mut scratch,
            );
            lists[i]
                .set(list)
                .expect("each config is claimed exactly once");
        }
        mc_obs::counter!("mc.core.joint.configs_executed").add(my_configs);
        mc_obs::histogram!("mc.core.joint.configs_per_thread").record(my_configs);
    });
    mc_obs::gauge!("mc.core.joint.workers").set(workers as i64);

    JointOutput {
        configs,
        lists: lists
            .into_iter()
            .map(|l| l.into_inner().expect("all configs ran"))
            .collect(),
        q_used,
    }
}

/// The union `E` of all top-k lists: `(pair key, per-config scores)` with
/// `None` where a pair is absent from a config's list. Order of pairs is
/// deterministic (descending best score, then key).
pub struct CandidateUnion {
    /// Pair keys.
    pub pairs: Vec<u64>,
    /// `scores[c][i]` = score of `pairs[i]` in config `c`'s list.
    pub scores: Vec<Vec<Option<f64>>>,
}

impl CandidateUnion {
    /// Builds the union from per-config lists.
    pub fn build(lists: &[TopKList]) -> Self {
        // `sorted_entries` re-sorts the list's heap on every call — do it
        // exactly once per list and reuse for both passes.
        let entries: Vec<Vec<(f64, u64)>> = lists.iter().map(|l| l.sorted_entries()).collect();
        let mut best: FxHashMap<u64, f64> = FxHashMap::default();
        for l in &entries {
            for &(s, p) in l {
                let e = best.entry(p).or_insert(f64::MIN);
                if s > *e {
                    *e = s;
                }
            }
        }
        let mut pairs: Vec<(f64, u64)> = best.into_iter().map(|(p, s)| (s, p)).collect();
        pairs.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let pairs: Vec<u64> = pairs.into_iter().map(|(_, p)| p).collect();
        let index: FxHashMap<u64, usize> = pairs.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let mut scores = vec![vec![None; pairs.len()]; lists.len()];
        for (c, l) in entries.iter().enumerate() {
            for &(s, p) in l {
                scores[c][index[&p]] = Some(s);
            }
        }
        CandidateUnion { pairs, scores }
    }

    /// Number of candidate pairs `|E|`.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no candidates were retrieved.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigGenerator, ConfigGeneratorParams};
    use crate::ssj::brute_force_topk;
    use mc_strsim::tokenize::Tokenizer;
    use mc_table::{split_pair_key, Schema, Table, Tuple};
    use std::sync::Arc;

    /// Builds a small synthetic pair of tables with 3 promising attrs.
    fn fixture() -> (Table, Table) {
        let schema = Arc::new(Schema::from_names(["x", "y", "z"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        let mut b = Table::new("B", schema);
        for i in 0..60u32 {
            a.push(Tuple::from_present([
                format!("xa{} xb{} xc{}", i, i % 7, i % 3),
                format!("ya{} yb{}", i % 5, i),
                format!("za{} zb{} zc{} zd{}", i, i % 2, i % 11, i % 4),
            ]));
            b.push(Tuple::from_present([
                format!("xa{} xb{} xq{}", i, i % 7, i % 4),
                format!("ya{} yb{}", i % 5, i),
                format!("za{} zb{} zq{} zd{}", i, i % 2, i % 5, i % 4),
            ]));
        }
        (a, b)
    }

    fn tree_for(a: &Table, b: &Table) -> (TokenizedTable, TokenizedTable, ConfigTree) {
        let generator = ConfigGenerator::new(ConfigGeneratorParams::default());
        let promising = generator.promising(a, b);
        let tree = generator.build_tree(&promising);
        let (ta, tb, _) = TokenizedTable::build_pair(a, b, &promising.attrs, Tokenizer::Word);
        (ta, tb, tree)
    }

    /// A list as comparable bits: `(score bits, pair key)` in canonical
    /// order.
    fn bits(list: &TopKList) -> Vec<(u64, u64)> {
        list.sorted_entries()
            .into_iter()
            .map(|(s, key)| (s.to_bits(), key))
            .collect()
    }

    #[test]
    fn every_list_is_its_configs_exact_top_k() {
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        assert!(tree.len() > 1, "fixture must have child configs");
        let mut killed = PairSet::new();
        for i in (0..60u32).step_by(3) {
            killed.insert(i, i);
            killed.insert(i, (i + 7) % 60);
        }
        for threads in [1usize, 2, 4] {
            let out = run_joint(
                &ta,
                &tb,
                &killed,
                &tree,
                JointParams {
                    k: 20,
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(out.lists.len(), tree.len());
            for (c, (config, list)) in out.configs.iter().zip(&out.lists).enumerate() {
                let pos = config.positions();
                let records_a = RecordArena::from_tokenized(&ta, &pos);
                let records_b = RecordArena::from_tokenized(&tb, &pos);
                let reference = brute_force_topk(
                    SsjInstance {
                        records_a: &records_a,
                        records_b: &records_b,
                        killed: &killed,
                    },
                    20,
                    SetMeasure::Jaccard,
                );
                assert_eq!(
                    bits(list),
                    bits(&reference),
                    "config {c} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn killed_pairs_never_appear() {
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        // Kill the identity pairs.
        let mut killed = PairSet::new();
        for i in 0..60u32 {
            killed.insert(i, i);
        }
        let joint = run_joint(
            &ta,
            &tb,
            &killed,
            &tree,
            JointParams {
                k: 50,
                ..Default::default()
            },
        );
        for l in &joint.lists {
            for (_, key) in l.sorted_entries() {
                let (x, y) = split_pair_key(key);
                assert_ne!(x, y, "killed pair leaked into a top-k list");
            }
        }
    }

    #[test]
    fn results_are_thread_count_invariant() {
        // No config waits on another and q is selected deterministically,
        // so the output is *bit-identical* across worker counts: same q,
        // same pairs, same f64 score bits — with q chosen empirically.
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        let killed = PairSet::new();
        type RunBits = (usize, Vec<Vec<(u64, u64)>>);
        let runs: Vec<RunBits> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let out = run_joint(
                    &ta,
                    &tb,
                    &killed,
                    &tree,
                    JointParams {
                        k: 12,
                        threads,
                        q: QStrategy::Auto {
                            max_q: 3,
                            prelude_k: 5,
                        },
                        ..Default::default()
                    },
                );
                (out.q_used, out.lists.iter().map(bits).collect())
            })
            .collect();
        for (threads, other) in [2usize, 4].iter().zip(&runs[1..]) {
            assert_eq!(runs[0].0, other.0, "q_used differs at {threads} threads");
            assert_eq!(
                runs[0].1, other.1,
                "lists not bit-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn candidate_union_collects_all_lists() {
        let mut l1 = TopKList::new(3);
        l1.insert(0.9, 10);
        l1.insert(0.5, 20);
        let mut l2 = TopKList::new(3);
        l2.insert(0.7, 20);
        l2.insert(0.6, 30);
        let e = CandidateUnion::build(&[l1, l2]);
        assert_eq!(e.len(), 3);
        // Ordered by best score: 10 (0.9), 20 (0.7), 30 (0.6).
        assert_eq!(e.pairs, vec![10, 20, 30]);
        assert_eq!(e.scores[0][0], Some(0.9));
        assert_eq!(e.scores[0][1], Some(0.5));
        assert_eq!(e.scores[0][2], None);
        assert_eq!(e.scores[1][1], Some(0.7));
    }

    #[test]
    fn auto_q_runs() {
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        let killed = PairSet::new();
        let out = run_joint(
            &ta,
            &tb,
            &killed,
            &tree,
            JointParams {
                k: 10,
                q: QStrategy::Auto {
                    max_q: 3,
                    prelude_k: 5,
                },
                ..Default::default()
            },
        );
        assert!((1..=3).contains(&out.q_used));
        assert_eq!(out.lists.len(), tree.len());
    }
}
