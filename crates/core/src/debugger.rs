//! The top-level MatchCatcher debugger (Figure 2 wired end-to-end).
//!
//! [`MatchCatcher::run`] takes two tables, the blocker output `C`, and a
//! labeling [`Oracle`]; it returns a [`DebugReport`] with the confirmed
//! killed-off matches, per-iteration statistics, per-match explanations,
//! and a [`MetricsSnapshot`] of everything the pipeline recorded during
//! the run (stage spans, counters, flight-recorder events). The
//! individual stages ([`MatchCatcher::prepare`], [`MatchCatcher::topk`])
//! are public so benchmarks can measure them in isolation, and
//! [`MatchCatcher::run_observed`] streams per-stage metric deltas to a
//! caller-supplied [`RunObserver`].

use crate::config::{Config, ConfigGenerator, ConfigGeneratorParams, ConfigTree, PromisingAttrs};
use crate::explain::MatchExplanation;
use crate::features::FeatureExtractor;
use crate::joint::{run_joint, CandidateUnion, JointOutput, JointParams, QStrategy};
use crate::oracle::Oracle;
use crate::ssj::TopKList;
use crate::store_io;
use crate::verify::{run_verifier, IterationRecord, VerifierParams, VerifyOutcome};
use mc_obs::{MetricsSnapshot, ObsContext};
use mc_store::{ArtifactKind, Digest, Store, StoreConfig};
use mc_strsim::dict::TokenizedTable;
use mc_strsim::tokenize::Tokenizer;
use mc_table::{AttrId, PairSet, Table, TupleId};
use std::time::Duration;

/// All debugger tuning knobs.
///
/// `DebuggerParams::default()` is the **paper's configuration**: per-config
/// top-k list size `k = 1000` (§4, [`JointParams::k`]) and `n = 20` pairs
/// shown per verifier iteration (§5, [`VerifierParams::n_per_iter`]), with
/// one worker per core. Use [`DebuggerParams::small`] for unit tests and
/// tiny examples.
#[derive(Debug, Clone, Default)]
pub struct DebuggerParams {
    /// Config-generation parameters (§3).
    pub config: ConfigGeneratorParams,
    /// Joint top-k execution parameters (§4). `joint.k` is the per-config
    /// list size (the paper's `k = 1000`).
    pub joint: JointParams,
    /// Verifier parameters (§5). `verifier.n_per_iter` is the paper's
    /// `n = 20`.
    pub verifier: VerifierParams,
    /// Optional persistent artifact store for warm-start sessions.
    /// When set, [`MatchCatcher::run`] looks up the tokenization before
    /// tokenizing and the candidate union before the joint stage, and
    /// publishes whichever of the two it had to compute; per-config
    /// arenas are always rebuilt from the tokenization, never stored. A
    /// warm hit on the candidate union produces a byte-identical ranked
    /// `D` while skipping tokenization and every join. A
    /// [`crate::incr::DebugSession`] only publishes its unions. An
    /// unusable or corrupt store silently degrades to a cold run
    /// (`mc.store.*` counters record what happened).
    pub store: Option<StoreConfig>,
    /// Observability context the run records into. The default is the
    /// process-global context (historical behaviour); give each
    /// concurrent run its own [`ObsContext::session`] and
    /// [`DebugReport::metrics`] becomes a fully isolated, per-run
    /// snapshot while the global view still accounts for every run.
    pub obs: ObsContext,
    /// Incremental-session knobs ([`MatchCatcher::start_session`]): the
    /// top-k maintenance margin. Ignored by the one-shot
    /// [`MatchCatcher::run`] path.
    pub incr: crate::incr::IncrParams,
}

impl DebuggerParams {
    /// Defaults scaled down for unit tests and tiny examples
    /// (`k = 50`, `n = 10`, small forest).
    pub fn small() -> Self {
        let mut p = DebuggerParams::default();
        p.joint.k = 50;
        p.joint.threads = 2;
        p.verifier.n_per_iter = 10;
        p.verifier.forest.n_trees = 7;
        p.verifier.forest.threads = 2;
        p
    }

    /// Upper bound on `joint.k + incr.margin` accepted by
    /// [`DebuggerParams::validate`]. Each session keeps `K = k + margin`
    /// `(f64, u64)` entries *per config*, so a oversized cap turns one
    /// `open` request into gigabytes of resident list state.
    pub const MAX_LIST_CAP: usize = 1 << 22;

    /// Rejects parameter combinations that would silently produce a
    /// degenerate run. Called by [`MatchCatcher::run`] and
    /// [`MatchCatcher::topk`]; call it directly when constructing params
    /// from user input (`mc-serve` mirrors these checks in
    /// `ServeParams::validate`).
    pub fn validate(&self) -> Result<(), String> {
        if self.joint.k == 0 {
            return Err("joint.k = 0: every top-k list would be empty, so the \
                        debugger could never surface a killed match (the paper \
                        uses k = 1000)"
                .into());
        }
        if matches!(
            self.joint.q,
            QStrategy::Auto {
                max_q: 2..,
                prelude_k: 0
            }
        ) {
            return Err("joint.q = Auto with prelude_k = 0: every q-selection \
                        prelude would keep an empty top-k list, so no q could \
                        be chosen (the paper uses prelude_k = 50)"
                .into());
        }
        if self.joint.threads == 0 {
            return Err("joint.threads = 0: no workers would execute configs; \
                        use JointParams::default() to get one worker per core"
                .into());
        }
        if self.verifier.forest.n_trees == 0 {
            return Err("verifier.forest.n_trees = 0: the learning verifier \
                        would have no trees to vote, making every confidence \
                        0.5 (the paper uses 10)"
                .into());
        }
        if self.verifier.n_per_iter == 0 {
            return Err("verifier.n_per_iter = 0: no pairs would ever be shown \
                        to the user (the paper uses n = 20)"
                .into());
        }
        let cap = self.joint.k.saturating_add(self.incr.margin);
        if cap > Self::MAX_LIST_CAP {
            return Err(format!(
                "joint.k + incr.margin = {cap} exceeds the per-config list \
                 capacity limit of {} entries: a server holding a handful of \
                 such sessions resident would exhaust memory on list state \
                 alone (the paper uses k = 1000)",
                Self::MAX_LIST_CAP
            ));
        }
        Ok(())
    }

    /// Opens the configured artifact store, if any. A store that cannot
    /// be opened (unwritable root, foreign marker) must never break a
    /// debugging run or session: it is counted and ignored, and the
    /// caller runs cold.
    pub(crate) fn open_store(&self) -> Option<Store> {
        let config = self.store.as_ref()?;
        match Store::open(config) {
            Ok(s) => Some(s),
            Err(_) => {
                mc_obs::counter!("mc.store.open_failed").inc();
                None
            }
        }
    }
}

/// Precomputed state shared by the debugging stages.
pub struct Prepared {
    /// The promising attribute set `T`.
    pub promising: PromisingAttrs,
    /// The config tree.
    pub tree: ConfigTree,
    /// Word tokenization of table A over `T`.
    pub tok_a: TokenizedTable,
    /// Word tokenization of table B over `T`.
    pub tok_b: TokenizedTable,
}

/// Pipeline stages, as reported to a [`RunObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Attribute selection + config tree + tokenization.
    Prepare,
    /// Joint top-k joins over all configs.
    TopK,
    /// Interactive verification.
    Verify,
    /// Per-match explanation + problem summary.
    Explain,
}

impl Stage {
    /// The span name this stage records under in the metrics registry.
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Prepare => "mc.core.debug.prepare",
            Stage::TopK => "mc.core.debug.topk",
            Stage::Verify => "mc.core.debug.verify",
            Stage::Explain => "mc.core.debug.explain",
        }
    }

    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Prepare, Stage::TopK, Stage::Verify, Stage::Explain];
}

/// Hook into [`MatchCatcher::run_observed`]: called around every pipeline
/// stage with the metrics accrued *during* that stage, so callers can
/// stream progress (a TUI, a log line per stage, an experiment harness)
/// without waiting for the final [`DebugReport`].
pub trait RunObserver {
    /// A stage is about to run.
    fn stage_started(&mut self, _stage: Stage) {}
    /// A stage finished; `metrics` is the registry delta accrued while
    /// it ran, scoped to the run's [`ObsContext`] (with the default
    /// global context, concurrent activity elsewhere in the process is
    /// included).
    fn stage_finished(&mut self, _stage: Stage, _metrics: &MetricsSnapshot) {}
}

/// A [`RunObserver`] that ignores every callback.
pub struct NoopObserver;

impl RunObserver for NoopObserver {}

/// Counts a decode failure: the artifact passed the store's checksum but
/// failed structural validation. Treated as a miss.
fn decoded<T>(out: Option<T>) -> Option<T> {
    if out.is_none() {
        mc_obs::counter!("mc.store.decode_failed").inc();
    }
    out
}

/// Runs `f` inside the stage's span. An observer is notified around it
/// with the metrics delta the stage accrued; without one, no snapshot is
/// taken.
fn observed<T>(
    observer: Option<&mut (dyn RunObserver + '_)>,
    stage: Stage,
    f: impl FnOnce() -> T,
) -> T {
    let Some(observer) = observer else {
        let _span = mc_obs::Span::enter(stage.span_name());
        return f();
    };
    observer.stage_started(stage);
    let before = MetricsSnapshot::capture();
    let out = {
        let _span = mc_obs::Span::enter(stage.span_name());
        f()
    };
    observer.stage_finished(stage, &MetricsSnapshot::capture().since(&before));
    out
}

/// The debugger's full output.
#[derive(Debug)]
pub struct DebugReport {
    /// Promising attributes used for configs.
    pub promising: Vec<AttrId>,
    /// Configs processed (tree order).
    pub configs: Vec<Config>,
    /// `|E|`: total candidate pairs across all top-k lists.
    pub e_size: usize,
    /// Confirmed killed-off matches, in discovery order.
    pub confirmed_matches: Vec<(TupleId, TupleId)>,
    /// Per-iteration statistics (Tables 3–4).
    pub iterations: Vec<IterationRecord>,
    /// Total labels requested from the oracle.
    pub labeled: usize,
    /// Per-match explanations.
    pub explanations: Vec<MatchExplanation>,
    /// Aggregated "blocker problems" (Table 4 right column).
    pub problems: Vec<(String, usize)>,
    /// Pervasiveness groups over the *full* candidate union (batch
    /// explain engine): blocking-similar pairs clustered by problem
    /// signature, most pervasive first.
    pub pervasive: Vec<crate::pervasive::ProblemGroup>,
    /// Per explanation (aligned with `explanations`), the pair's score
    /// in each config's top-k list (`None` = not on that list) — the
    /// per-measure score contributions of `mc-explain/v1`.
    pub explanation_scores: Vec<Vec<Option<f64>>>,
    /// Per config, the lowest score still on its top-k list; a pair's
    /// distance above this floor is its "threshold gap".
    pub config_floors: Vec<Option<f64>>,
    /// QJoin `q` used.
    pub q_used: usize,
    /// Everything the observability layer recorded during the run:
    /// stage/config spans (with p50/p95/p99), join counters, verifier
    /// iteration events — the registry delta between run start and end,
    /// scoped to [`DebuggerParams::obs`]. With a session context this is
    /// exactly this run's activity; with the default global context,
    /// concurrent runs in the same process are included.
    pub metrics: MetricsSnapshot,
}

impl DebugReport {
    /// Number of verifier iterations (column I of Table 3).
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Matches confirmed within the first `n` iterations (Table 4).
    pub fn matches_in_first(&self, n: usize) -> usize {
        self.iterations
            .iter()
            .take(n)
            .map(|r| r.matches_found)
            .sum()
    }

    /// Wall time of the top-k stage, from its span.
    pub fn topk_elapsed(&self) -> Duration {
        Duration::from_micros(self.metrics.span(Stage::TopK.span_name()).total_us)
    }

    /// Wall time of the verification stage, from its span.
    pub fn verify_elapsed(&self) -> Duration {
        Duration::from_micros(self.metrics.span(Stage::Verify.span_name()).total_us)
    }
}

/// The debugger.
#[derive(Debug, Clone, Default)]
pub struct MatchCatcher {
    /// Tuning parameters.
    pub params: DebuggerParams,
}

impl MatchCatcher {
    /// A debugger with the given parameters.
    pub fn new(params: DebuggerParams) -> Self {
        MatchCatcher { params }
    }

    /// Stage 1: attribute selection, config-tree generation,
    /// tokenization. Blocker-independent (does not need `C`).
    pub fn prepare(&self, a: &Table, b: &Table) -> Prepared {
        self.prepare_cached(a, b, None, None).0
    }

    /// Like [`MatchCatcher::prepare`] but with a **manually curated**
    /// promising attribute set (§3.2: "the user can also manually curate
    /// schema S to generate T"). Statistics for the e-score and
    /// `FindLongAttr` are still computed from the data.
    pub fn prepare_with_attrs(&self, a: &Table, b: &Table, attrs: &[AttrId]) -> Prepared {
        assert!(!attrs.is_empty(), "curated attribute set must be non-empty");
        self.prepare_cached(a, b, Some(attrs), None).0
    }

    /// The one body of [`MatchCatcher::prepare`],
    /// [`MatchCatcher::prepare_with_attrs`] and [`MatchCatcher::run`]:
    /// selects the promising attributes (or scores the `curated` ones),
    /// builds the tree and tokenizes. With a store, a tokenization-artifact
    /// hit skips the `mc.strsim.dict.build` pass entirely, and the
    /// tokenization cache key is returned so later stages can derive
    /// their own keys from it.
    fn prepare_cached(
        &self,
        a: &Table,
        b: &Table,
        curated: Option<&[AttrId]>,
        store: Option<&Store>,
    ) -> (Prepared, Option<Digest>) {
        let generator = ConfigGenerator::new(self.params.config);
        let promising = match curated {
            None => generator.promising(a, b),
            Some(attrs) => {
                let (stats_a, stats_b) = mc_table::stats::TableStats::compute_pair(a, b);
                PromisingAttrs {
                    attrs: attrs.to_vec(),
                    e_scores: attrs
                        .iter()
                        .map(|&f| stats_a.attr(f).e_component() * stats_b.attr(f).e_component())
                        .collect(),
                    avg_tokens_a: attrs.iter().map(|&f| stats_a.attr(f).avg_tokens).collect(),
                    avg_tokens_b: attrs.iter().map(|&f| stats_b.attr(f).avg_tokens).collect(),
                }
            }
        };
        assert!(
            !promising.attrs.is_empty(),
            "no promising attributes — tables have no usable string/categorical columns"
        );
        let tree = generator.build_tree(&promising);
        let key = store.map(|_| {
            let (digest_a, digest_b) = store_io::content_digests(a, b);
            store_io::tok_key(digest_a, digest_b, &promising.attrs, Tokenizer::Word)
        });
        let cached = match (store, key) {
            (Some(s), Some(k)) => s
                .load(ArtifactKind::Tokenization, k)
                .and_then(|bytes| decoded(store_io::decode_tokenization(&bytes)))
                .and_then(|(_, ta, tb)| {
                    // Belt and braces against key collisions / mis-set
                    // source digests: the shape must match the inputs.
                    let n = promising.attrs.len();
                    (ta.rows() == a.len()
                        && tb.rows() == b.len()
                        && ta.attr_count() == n
                        && tb.attr_count() == n)
                        .then_some((ta, tb))
                }),
            _ => None,
        };
        let (tok_a, tok_b) = cached.unwrap_or_else(|| {
            let (tok_a, tok_b, order) =
                TokenizedTable::build_pair(a, b, &promising.attrs, Tokenizer::Word);
            if let (Some(s), Some(k)) = (store, key) {
                s.publish(
                    ArtifactKind::Tokenization,
                    k,
                    &store_io::encode_tokenization(&order, &tok_a, &tok_b),
                );
            }
            (tok_a, tok_b)
        });
        (
            Prepared {
                promising,
                tree,
                tok_a,
                tok_b,
            },
            key,
        )
    }

    /// Store-aware top-k stage. A candidate-union hit returns without
    /// building arenas or running a single join; a miss runs the joint
    /// stage (arenas built from the tokenization) and publishes the
    /// union.
    fn topk_cached(
        &self,
        prepared: &Prepared,
        c: &PairSet,
        store: Option<&Store>,
        tok: Option<Digest>,
    ) -> (usize, CandidateUnion) {
        let ukey = store
            .and(tok)
            .map(|t| store_io::union_key(t, &prepared.tree, &self.params.joint, c));
        if let (Some(s), Some(k)) = (store, ukey) {
            if let Some((configs, q_used, union)) = s
                .load(ArtifactKind::CandidateUnion, k)
                .and_then(|bytes| decoded(store_io::decode_union(&bytes)))
            {
                if configs == prepared.tree.configs() {
                    return (q_used, union);
                }
                mc_obs::counter!("mc.store.decode_failed").inc();
            }
        }
        let out = run_joint(
            &prepared.tok_a,
            &prepared.tok_b,
            c,
            &prepared.tree,
            self.params.joint,
        );
        let union = CandidateUnion::build(&out.lists);
        if let (Some(s), Some(k)) = (store, ukey) {
            s.publish(
                ArtifactKind::CandidateUnion,
                k,
                &store_io::encode_union(&out.configs, out.q_used, &union),
            );
        }
        (out.q_used, union)
    }

    /// Stage 2: joint top-k joins over all configs, excluding pairs in
    /// `C`.
    pub fn topk(&self, prepared: &Prepared, c: &PairSet) -> JointOutput {
        if let Err(e) = self.params.validate() {
            panic!("invalid DebuggerParams: {e}");
        }
        run_joint(
            &prepared.tok_a,
            &prepared.tok_b,
            c,
            &prepared.tree,
            self.params.joint,
        )
    }

    /// Stage 3: interactive verification of the candidate union.
    pub fn verify(
        &self,
        a: &Table,
        b: &Table,
        prepared: &Prepared,
        lists: &[TopKList],
        oracle: &mut dyn Oracle,
    ) -> (CandidateUnion, VerifyOutcome) {
        let union = CandidateUnion::build(lists);
        let outcome = self.verify_union(a, b, prepared, &union, oracle);
        (union, outcome)
    }

    /// Like [`MatchCatcher::verify`] but starting from an already-built
    /// candidate union — the warm-start path, where the union comes from
    /// the artifact store and no per-config lists exist.
    pub fn verify_union(
        &self,
        a: &Table,
        b: &Table,
        prepared: &Prepared,
        union: &CandidateUnion,
        oracle: &mut dyn Oracle,
    ) -> VerifyOutcome {
        let fx = FeatureExtractor::new(
            a,
            b,
            &prepared.promising.attrs,
            &prepared.tok_a,
            &prepared.tok_b,
        );
        run_verifier(union, &fx, oracle, &self.params.verifier)
    }

    /// Runs the full pipeline: prepare → top-k → verify → explain.
    pub fn run(&self, a: &Table, b: &Table, c: &PairSet, oracle: &mut dyn Oracle) -> DebugReport {
        self.run_observed(a, b, c, oracle, &mut NoopObserver)
    }

    /// Like [`MatchCatcher::run`], streaming per-stage metric deltas to
    /// `observer` as the pipeline advances.
    pub fn run_observed(
        &self,
        a: &Table,
        b: &Table,
        c: &PairSet,
        oracle: &mut dyn Oracle,
        observer: &mut dyn RunObserver,
    ) -> DebugReport {
        if let Err(e) = self.params.validate() {
            panic!("invalid DebuggerParams: {e}");
        }
        // Everything below — including fan-out helpers, which re-attach
        // it — records into this run's context, and the thread holds one
        // slot of the CPU budget for the whole call.
        let _obs = self.params.obs.attach();
        let _cpu = mc_obs::par::hold();
        let store = self.params.open_store();
        let baseline = MetricsSnapshot::capture();
        let (prepared, tok) = observed(Some(&mut *observer), Stage::Prepare, || {
            self.prepare_cached(a, b, None, store.as_ref())
        });
        let (q_used, union) = observed(Some(&mut *observer), Stage::TopK, || {
            self.topk_cached(&prepared, c, store.as_ref(), tok)
        });
        report(
            &self.params,
            a,
            b,
            &prepared,
            q_used,
            &union,
            oracle,
            Some(observer),
            &baseline,
        )
    }
}

/// The pipeline's tail, one body for [`MatchCatcher::run_observed`] and
/// every [`crate::incr::DebugSession`] report: verifies the candidate
/// union, explains the confirmed matches and assembles the report with
/// the metrics accrued since `baseline`. Only a run with an `observer`
/// snapshots metrics per stage; a session's stages record their spans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn report(
    params: &DebuggerParams,
    a: &Table,
    b: &Table,
    prepared: &Prepared,
    q_used: usize,
    union: &CandidateUnion,
    oracle: &mut dyn Oracle,
    mut observer: Option<&mut dyn RunObserver>,
    baseline: &MetricsSnapshot,
) -> DebugReport {
    let outcome = observed(observer.as_deref_mut(), Stage::Verify, || {
        let p = prepared;
        let fx = FeatureExtractor::new(a, b, &p.promising.attrs, &p.tok_a, &p.tok_b);
        run_verifier(union, &fx, oracle, &params.verifier)
    });
    let ex = observed(observer, Stage::Explain, || {
        crate::explain_batch::explain_stage(a, b, union, &outcome.matches, params.joint.threads)
    });
    DebugReport {
        promising: prepared.promising.attrs.clone(),
        configs: prepared.tree.configs(),
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
        metrics: MetricsSnapshot::capture().since(baseline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GoldOracle;
    use mc_blocking::{Blocker, KeyFunc};
    use mc_table::{GoldMatches, Schema, Tuple};
    use std::sync::Arc;

    /// The Figure 1 tables.
    fn figure1() -> (Table, Table, GoldMatches) {
        let schema = Arc::new(Schema::from_names(["name", "city", "age"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        a.push(Tuple::from_present(["Dave Smith", "Altanta", "18"]));
        a.push(Tuple::from_present(["Daniel Smith", "LA", "18"]));
        a.push(Tuple::from_present(["Joe Welson", "New York", "25"]));
        a.push(Tuple::from_present(["Charles Williams", "Chicago", "45"]));
        a.push(Tuple::from_present(["Charlie William", "Atlanta", "28"]));
        let mut b = Table::new("B", schema);
        b.push(Tuple::from_present(["David Smith", "Atlanta", "18"]));
        b.push(Tuple::from_present(["Joe Wilson", "NY", "25"]));
        b.push(Tuple::from_present(["Daniel W. Smith", "LA", "30"]));
        b.push(Tuple::from_present(["Charles Williams", "Chicago", "45"]));
        // True matches: (a1,b1), (a2,b3), (a3,b2), (a4,b4).
        let gold = GoldMatches::from_pairs([(0, 0), (1, 2), (2, 1), (3, 3)]);
        (a, b, gold)
    }

    #[test]
    fn figure1_debugging_recovers_killed_matches() {
        let (a, b, gold) = figure1();
        let q1 = Blocker::Hash(KeyFunc::Attr(a.schema().expect_id("city")));
        let c = q1.apply(&a, &b);
        // Q1 kills (a1,b1) and (a3,b2).
        assert_eq!(gold.killed(&c), 2);
        let mc = MatchCatcher::new(DebuggerParams::small());
        let mut oracle = GoldOracle::exact(&gold);
        let report = mc.run(&a, &b, &c, &mut oracle);
        let mut found = report.confirmed_matches.clone();
        found.sort_unstable();
        assert_eq!(found, vec![(0, 0), (2, 1)]);
        assert!(report.e_size > 0);
        assert!(!report.problems.is_empty());
    }

    #[test]
    fn perfect_blocker_yields_no_matches() {
        let (a, b, gold) = figure1();
        // C = all gold pairs (plus noise) → nothing killed.
        let mut c = PairSet::new();
        for (x, y) in gold.iter() {
            c.insert(x, y);
        }
        c.insert(0, 3);
        let mc = MatchCatcher::new(DebuggerParams::small());
        let mut oracle = GoldOracle::exact(&gold);
        let report = mc.run(&a, &b, &c, &mut oracle);
        assert!(report.confirmed_matches.is_empty());
        // The verifier stops at its natural stopping point quickly.
        assert!(report.iteration_count() <= 3);
    }

    #[test]
    fn report_explanations_identify_city_problem() {
        let (a, b, gold) = figure1();
        let q1 = Blocker::Hash(KeyFunc::Attr(a.schema().expect_id("city")));
        let c = q1.apply(&a, &b);
        let mc = MatchCatcher::new(DebuggerParams::small());
        let mut oracle = GoldOracle::exact(&gold);
        let report = mc.run(&a, &b, &c, &mut oracle);
        // (a1,b1) disagrees on city by misspelling; (a3,b2) by
        // abbreviation. Both should appear in the summary.
        let text = report
            .problems
            .iter()
            .map(|(s, n)| format!("{s}:{n}"))
            .collect::<Vec<_>>()
            .join("; ");
        assert!(text.contains("city"), "problems: {text}");
    }

    #[test]
    fn manual_curation_restricts_configs() {
        let (a, b, _) = figure1();
        let mc = MatchCatcher::new(DebuggerParams::small());
        let name = a.schema().expect_id("name");
        let city = a.schema().expect_id("city");
        let prepared = mc.prepare_with_attrs(&a, &b, &[name, city]);
        assert_eq!(prepared.promising.attrs, vec![name, city]);
        // |T| = 2 → tree of 2·3/2 = 3 configs.
        assert_eq!(prepared.tree.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn manual_curation_rejects_empty() {
        let (a, b, _) = figure1();
        let mc = MatchCatcher::new(DebuggerParams::small());
        let _ = mc.prepare_with_attrs(&a, &b, &[]);
    }

    #[test]
    fn default_and_small_params_validate() {
        assert!(DebuggerParams::default().validate().is_ok());
        assert!(DebuggerParams::small().validate().is_ok());
    }

    #[test]
    fn oversized_list_cap_is_rejected() {
        let mut params = DebuggerParams::small();
        params.incr.margin = DebuggerParams::MAX_LIST_CAP;
        let err = params.validate().unwrap_err();
        assert!(err.contains("list"), "unexpected error: {err}");
        params.incr.margin = 0;
        params.joint.k = DebuggerParams::MAX_LIST_CAP + 1;
        assert!(params.validate().is_err());
        params.joint.k = DebuggerParams::MAX_LIST_CAP;
        assert!(params.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "joint.k = 0")]
    fn zero_k_is_rejected() {
        let (a, b, gold) = figure1();
        let mut params = DebuggerParams::small();
        params.joint.k = 0;
        let mut oracle = GoldOracle::exact(&gold);
        let _ = MatchCatcher::new(params).run(&a, &b, &PairSet::new(), &mut oracle);
    }

    #[test]
    #[should_panic(expected = "prelude_k = 0")]
    fn zero_prelude_k_is_rejected() {
        let (a, b, gold) = figure1();
        let mut params = DebuggerParams::small();
        // With a single candidate q no prelude runs, so the size is moot.
        params.joint.q = QStrategy::Auto {
            max_q: 1,
            prelude_k: 0,
        };
        assert!(params.validate().is_ok());
        params.joint.q = QStrategy::Auto {
            max_q: 2,
            prelude_k: 0,
        };
        let mut oracle = GoldOracle::exact(&gold);
        let _ = MatchCatcher::new(params).run(&a, &b, &PairSet::new(), &mut oracle);
    }

    #[test]
    #[should_panic(expected = "joint.threads = 0")]
    fn zero_threads_is_rejected() {
        let (a, b, gold) = figure1();
        let mut params = DebuggerParams::small();
        params.joint.threads = 0;
        let mut oracle = GoldOracle::exact(&gold);
        let _ = MatchCatcher::new(params).run(&a, &b, &PairSet::new(), &mut oracle);
    }

    #[test]
    #[should_panic(expected = "n_trees = 0")]
    fn empty_forest_is_rejected() {
        let (a, b, gold) = figure1();
        let mut params = DebuggerParams::small();
        params.verifier.forest.n_trees = 0;
        let mut oracle = GoldOracle::exact(&gold);
        let _ = MatchCatcher::new(params).run(&a, &b, &PairSet::new(), &mut oracle);
    }

    #[test]
    fn observer_sees_every_stage_in_order() {
        #[derive(Default)]
        struct Recorder {
            started: Vec<Stage>,
            finished: Vec<Stage>,
        }
        impl RunObserver for Recorder {
            fn stage_started(&mut self, stage: Stage) {
                self.started.push(stage);
            }
            fn stage_finished(&mut self, stage: Stage, metrics: &MetricsSnapshot) {
                assert!(
                    metrics.span(stage.span_name()).count >= 1,
                    "{stage:?} delta must contain its own span"
                );
                self.finished.push(stage);
            }
        }
        let (a, b, gold) = figure1();
        let q1 = Blocker::Hash(KeyFunc::Attr(a.schema().expect_id("city")));
        let c = q1.apply(&a, &b);
        let mc = MatchCatcher::new(DebuggerParams::small());
        let mut oracle = GoldOracle::exact(&gold);
        let mut rec = Recorder::default();
        let report = mc.run_observed(&a, &b, &c, &mut oracle, &mut rec);
        assert_eq!(rec.started, Stage::ALL.to_vec());
        assert_eq!(rec.finished, Stage::ALL.to_vec());
        // The final report carries the whole run's metrics.
        for stage in Stage::ALL {
            assert!(
                report.metrics.span(stage.span_name()).count >= 1,
                "{stage:?}"
            );
        }
        assert!(report.topk_elapsed() >= Duration::ZERO);
    }

    #[test]
    fn stages_compose_like_run() {
        let (a, b, gold) = figure1();
        let q1 = Blocker::Hash(KeyFunc::Attr(a.schema().expect_id("city")));
        let c = q1.apply(&a, &b);
        let mc = MatchCatcher::new(DebuggerParams::small());
        let prepared = mc.prepare(&a, &b);
        assert!(!prepared.tree.is_empty());
        let joint = mc.topk(&prepared, &c);
        assert_eq!(joint.lists.len(), prepared.tree.len());
        let mut oracle = GoldOracle::exact(&gold);
        let (union, outcome) = mc.verify(&a, &b, &prepared, &joint.lists, &mut oracle);
        assert!(!union.is_empty());
        assert_eq!(outcome.matches.len(), 2);
    }
}
