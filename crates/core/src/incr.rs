//! Incremental debugging sessions: delta-patched tables and killed-set
//! diffs instead of full re-runs.
//!
//! A debugging loop rarely restarts from scratch. The user fixes a few
//! rows, re-runs the blocker, or only *changes the blocker* (a new
//! killed set `C` over unchanged tables) — and the paper's pipeline
//! would re-tokenize both tables, rebuild every arena and re-join every
//! config. A [`DebugSession`] instead keeps the pipeline's state alive
//! between runs and patches it in place:
//!
//! * **Tables** are edited through [`TableDelta`]s (insert / delete /
//!   update batches). Deletes tombstone rows so every [`TupleId`] — and
//!   with it every pair key, gold match and killed entry — stays valid.
//! * **Tokenization** is maintained by an [`IncrementalDict`]: the cold
//!   build's interning dictionary plus its frozen rank order, extended
//!   append-only as edited rows introduce new tokens. Frozen ranks are
//!   *not* the document-frequency order a cold rebuild would choose, but
//!   every similarity measure is a function of multiset overlaps and
//!   record lengths, which relabeling ranks cannot change — so results
//!   are bit-identical anyway (rank-permutation invariance).
//! * **Arenas** — the tokenized tables' per-attribute rank columns and
//!   every config's record arenas — are patched record-by-record
//!   ([`RecordArena::patch_record`]): tombstone + append into a spill
//!   region, compacted back into one contiguous buffer when the garbage
//!   ratio passes 0.4.
//! * **Top-k lists** are maintained, not recomputed. Each config keeps
//!   `K = k + margin` entries; a rerun drops the entries that touch
//!   changed records (or were newly killed), re-joins only the changed
//!   slices of the cross product via *masked arena views*, seeded with
//!   every surviving entry, re-scores un-killed pairs directly, and
//!   merges — the scoring kernel runs only for pairs touching the delta.
//!   When fewer than the report size `k` survive from the list's exact
//!   prefix, that config falls back to one full join *seeded* with the
//!   survivors (still much cheaper than cold: seeds raise the pruning
//!   threshold immediately). Each config's maintenance is one job, and
//!   the jobs fan out over the CPU budget ([`mc_obs::par`]) at most
//!   `joint.threads` wide, as the cold joint stage does. Each worker
//!   borrows a warm [`JoinScratch`] from the session's pool, whose
//!   buffers are `O(|A| + |B| + postings)`: no join keeps state per
//!   discovered pair, so a rejoin at any table size needs no memory cap.
//! * **Killed-set-only diffs** are the fast path: every join is reused
//!   verbatim; newly-killed pairs are dropped from the lists and
//!   un-killed pairs are re-scored directly against the cached arenas.
//!
//! ## Exactness
//!
//! [`DebugSession::rerun`] returns a [`DebugReport`] **byte-identical**
//! (metrics aside) to a cold run on the patched tables with the same
//! parameters, at any thread count. Each config's first `v` entries are
//! its *exact prefix*: they equal the top `v` of the config's candidate
//! universe, so every candidate canonically at or above the prefix's
//! last entry `b` (the *boundary*) is among them. A rerun drops the
//! entries that touch a changed record or a newly killed pair; the rest
//! are *survivors*, `v′` of them from the exact prefix. The argument,
//! config by config:
//!
//! * Every survivor, the unproven tail's as well as the prefix's, is a
//!   current candidate with its exact score: its records are untouched
//!   and it is not killed. All of them seed the delta joins. A seed
//!   only raises a join's threshold, and a pair the join prunes is
//!   outranked by `K` of the join's outputs, all current candidates
//!   that enter the merge.
//! * The delta joins cover exactly the pairs whose scores may have
//!   changed: `changed_A × B` and `(A ∖ changed_A) × changed_B`; direct
//!   re-scoring covers un-killed untouched pairs.
//! * Take a current candidate `p` missing from the merged top `K`. If
//!   `p` is untouched and was not un-killed, its score and candidacy
//!   are as before, so if it ranks at or above `b` it was in the exact
//!   prefix and survived. Otherwise a delta join or the re-scoring
//!   produced it, or a join pruned it. So either `p` ranks below `b`,
//!   or `K` merged entries outrank it and the truncated merge holds
//!   only entries above it. Either way every merged entry at or above
//!   `b` outranks `p`: those entries are the exact top of the universe,
//!   and the exact prefix extends to the last of them
//!   (`mc.core.incr.valid_extended` counts what this adds beyond `v′`).
//! * The `v′` exact survivors lie at or above `b`, so the new prefix
//!   holds at least `v′` entries, refilled with every join find above
//!   `b`: the margin only has to absorb one rerun's drops. When
//!   `v′ ≥ k` the report's top-`k` prefix is exact. Otherwise the
//!   config re-joins fully, seeded with every survivor, which is exact
//!   by construction.
//! * A list is *complete* when it holds the config's whole candidate
//!   universe: a full join (cold or rejoin) returned fewer than `K`
//!   entries, so nothing was pruned. A complete config never rejoins.
//!   Every current candidate of it is a survivor (untouched and not
//!   un-killed, so it was listed), a delta-join find, a pair a delta
//!   join pruned, or a re-scored un-killed pair. So if the merge holds
//!   fewer than `K` entries, no join pruned anything (a join that
//!   returns fewer than `K` entries never fills its list), the merge is
//!   the whole new universe, and it stays complete. Otherwise a missing
//!   candidate is outranked by `K` merged entries, so the truncated
//!   merge is the exact top `K`. Either way every merged entry is
//!   exact, whatever `v′` is.
//! * Jobs read only their own config's arenas and list and the shared
//!   rerun inputs, and scratch contents never reach a result, so lists,
//!   prefixes and work counts are the same at any worker count.
//!
//! Sessions **require** a fixed QJoin `q` ([`QStrategy::Fixed`]): `Auto`
//! re-selects `q` from prelude-join costs, which the patched state
//! cannot reproduce bit-identically. Everything else is the joint
//! stage's own contract ([`crate::joint`]): every list is the exact
//! top-K of one config's candidate universe, a pure function of (arena
//! contents, killed set, `k`, `q`, measure) — the property all of the
//! maintenance above relies on. So a session's first report and
//! [`MatchCatcher::run`] with the same parameters are one computation.
//!
//! Everything the session computes is instrumented under
//! `mc.core.incr.*` (see the metrics catalog in `DESIGN.md`).

use crate::config::{ConfigGenerator, ConfigTree, PromisingAttrs};
use crate::debugger::{report, DebugReport, DebuggerParams, MatchCatcher, Prepared, Stage};
use crate::joint::{build_arenas, run_joint_with_arenas, CandidateUnion, QStrategy};
use crate::oracle::Oracle;
use crate::ssj::{
    topk_join_with_scratch, topk_semi_join, JoinScratch, SsjInstance, SsjParams, TopKList,
};
use crate::store_io;
use mc_obs::MetricsSnapshot;
use mc_store::ArtifactKind;
use mc_strsim::arena::RecordArena;
use mc_strsim::dict::{IncrementalDict, TokenizedTable};
use mc_strsim::measures::multiset_overlap;
use mc_strsim::tokenize::Tokenizer;
use mc_table::hash::{fx_set, FxHashSet};
use mc_table::{split_pair_key, IncrTableStats, PairSet, Table, TableDelta, TupleId};
use std::sync::Mutex;

/// Tuning knobs of the incremental update path.
#[derive(Debug, Clone, Copy)]
pub struct IncrParams {
    /// Extra top-k slack per config: sessions maintain `K = k + margin`
    /// entries. A rerun drops the entries its delta touches and refills
    /// the exact prefix with every join find above the old boundary (see
    /// the module docs), so the margin only has to absorb one rerun's
    /// drops: a rerun that drops at most `margin` entries of a full
    /// exact prefix leaves at least `k` (no full re-join). Larger
    /// margins make re-joins rarer but cost memory and cold-start work.
    pub margin: usize,
}

impl Default for IncrParams {
    fn default() -> Self {
        IncrParams { margin: 256 }
    }
}

/// Arena compaction trigger: when a patched arena's dead-token fraction
/// ([`RecordArena::garbage_ratio`]) exceeds this, the arena is compacted
/// back into one contiguous buffer.
const COMPACT_THRESHOLD: f64 = 0.4;

/// A live incremental debugging session: the pipeline's state, kept
/// between runs so that [`DebugSession::rerun`] can patch it instead of
/// recomputing it. Created by [`MatchCatcher::start_session`].
pub struct DebugSession {
    /// Parameters; `q` is always `Fixed(q ≥ 1)`.
    params: DebuggerParams,
    a: Table,
    b: Table,
    killed: PairSet,
    /// Promising attributes, config tree and both tokenized tables.
    prepared: Prepared,
    dict: IncrementalDict,
    arenas: Vec<(RecordArena, RecordArena)>,
    /// Per-config maintained lists, in tree order.
    lists: Vec<ConfigList>,
    q: usize,
    /// Per-table statistics counters, maintained under deltas so a rerun
    /// reproduces the cold run's promising-attribute selection without
    /// rescanning two full tables ([`IncrTableStats::snapshot`] equals a
    /// fresh [`mc_table::TableStats::compute`] exactly).
    stats_a: IncrTableStats,
    stats_b: IncrTableStats,
    /// Warm join scratches for the maintenance jobs: at most one per
    /// worker that ever ran, each lent to one job at a time.
    scratch_pool: Vec<JoinScratch>,
}

/// One config's maintained top-K entries.
struct ConfigList {
    /// Canonically sorted (score descending, pair key ascending), at
    /// most `K = k + margin` long.
    entries: Vec<(f64, u64)>,
    /// Count of *valid* leading entries: the exact prefix, proven equal
    /// to a cold K-run's. Entries beyond it may be incomplete after
    /// incremental rounds; they seed the next rerun's joins but are
    /// never reported.
    valid: usize,
    /// The entries are the config's whole candidate universe (module
    /// docs), so all of them are valid.
    complete: bool,
}

impl ConfigList {
    /// The result of a full join at list size `cap`: exact throughout,
    /// and complete when the join returned fewer than `cap` entries.
    fn joined(list: &TopKList, cap: usize) -> Self {
        let entries = list.sorted_entries();
        ConfigList {
            valid: entries.len(),
            complete: entries.len() < cap,
            entries,
        }
    }
}

/// What a rerun changed, read by every config's maintenance job.
struct RerunInputs<'a> {
    changed_a: &'a FxHashSet<TupleId>,
    changed_b: &'a FxHashSet<TupleId>,
    newly_killed: &'a FxHashSet<u64>,
    unkilled: &'a [u64],
    /// The new killed set.
    killed: &'a PairSet,
    /// The report size `k`.
    k: usize,
    /// Join parameters at list size `K`.
    ssj: SsjParams,
}

/// One config's maintenance work, summed into the `mc.core.incr.*`
/// counters once every job has run.
#[derive(Default)]
struct Upkeep {
    rescored: u64,
    reused: u64,
    rejoins: u64,
    extended: u64,
}

/// Canonical entry order: score descending, pair key ascending — the
/// same total order [`TopKList`] keeps. `Less` ranks higher.
fn canonical_cmp(x: &(f64, u64), y: &(f64, u64)) -> std::cmp::Ordering {
    y.0.total_cmp(&x.0).then(x.1.cmp(&y.1))
}

impl MatchCatcher {
    /// Starts an incremental debugging session: runs the full pipeline
    /// cold (at list size `K = k + margin`) and returns the live session
    /// plus the first [`DebugReport`].
    ///
    /// A [`QStrategy::Auto`] `q` is rejected (panic) — fix `q`
    /// explicitly for sessions; a fixed `q` of 0 runs as 1, as in
    /// [`MatchCatcher::run`]. The returned report is byte-identical
    /// (metrics aside) to [`MatchCatcher::run`] with the same
    /// parameters.
    pub fn start_session(
        &self,
        a: Table,
        b: Table,
        killed: PairSet,
        oracle: &mut dyn Oracle,
    ) -> (DebugSession, DebugReport) {
        if let Err(e) = self.params.validate() {
            panic!("invalid DebuggerParams: {e}");
        }
        let mut params = self.params.clone();
        let q = match params.joint.q {
            QStrategy::Fixed(q) => q.max(1),
            QStrategy::Auto { .. } => panic!(
                "incremental sessions require QStrategy::Fixed: Auto re-selects q from \
                 prelude-join costs, which a patched session cannot reproduce bit-identically"
            ),
        };
        params.joint.q = QStrategy::Fixed(q);

        let _obs = params.obs.attach();
        let _cpu = mc_obs::par::hold();
        let baseline = MetricsSnapshot::capture();
        let (stats_a, stats_b, prepared, dict) = {
            let _span = mc_obs::Span::enter(Stage::Prepare.span_name());
            let stats_a = IncrTableStats::compute(&a);
            let stats_b = IncrTableStats::compute(&b);
            let (promising, tree) = select_configs(&params, &a, &b, &stats_a, &stats_b);
            let (prepared, dict) = tokenize(&a, &b, promising, tree);
            (stats_a, stats_b, prepared, dict)
        };
        let mut session = DebugSession {
            params,
            a,
            b,
            killed,
            prepared,
            dict,
            arenas: Vec::new(),
            lists: Vec::new(),
            q,
            stats_a,
            stats_b,
            scratch_pool: Vec::new(),
        };
        session.cold_joint();
        let report = session.finish(oracle, baseline);
        (session, report)
    }
}

/// The promising attributes and config tree a cold run would choose:
/// the session's statistics equal a fresh scan of its tables.
fn select_configs(
    params: &DebuggerParams,
    a: &Table,
    b: &Table,
    stats_a: &IncrTableStats,
    stats_b: &IncrTableStats,
) -> (PromisingAttrs, ConfigTree) {
    let generator = ConfigGenerator::new(params.config);
    let promising = generator.promising_from_stats(a, &stats_a.snapshot(a), &stats_b.snapshot(b));
    assert!(
        !promising.attrs.is_empty(),
        "no promising attributes — tables have no usable string/categorical columns"
    );
    let tree = generator.build_tree(&promising);
    (promising, tree)
}

/// Tokenizes both tables over the promising attributes into a fresh
/// incremental dictionary: a session's start and a rerun whose delta
/// changed the config tree both prepare this way, then run the joint
/// stage cold ([`DebugSession::cold_joint`]).
fn tokenize(
    a: &Table,
    b: &Table,
    promising: PromisingAttrs,
    tree: ConfigTree,
) -> (Prepared, IncrementalDict) {
    let (tok_a, tok_b, order, dict) =
        TokenizedTable::build_pair_retained(a, b, &promising.attrs, Tokenizer::Word);
    let prepared = Prepared {
        promising,
        tree,
        tok_a,
        tok_b,
    };
    (prepared, IncrementalDict::new(dict, &order))
}

impl DebugSession {
    /// The session's parameters (`q` resolved to `Fixed(q ≥ 1)`).
    pub fn params(&self) -> &DebuggerParams {
        &self.params
    }

    /// Current (patched) table A.
    pub fn table_a(&self) -> &Table {
        &self.a
    }

    /// Current (patched) table B.
    pub fn table_b(&self) -> &Table {
        &self.b
    }

    /// Current killed set `C`.
    pub fn killed(&self) -> &PairSet {
        &self.killed
    }

    /// The maintained list size `K = k + margin`.
    fn cap(&self) -> usize {
        self.params.joint.k + self.params.incr.margin
    }

    /// Estimated resident heap footprint of the session's pipeline
    /// state, in bytes: raw tables, the incremental table statistics
    /// (a lowercased key per distinct value per attribute), tokenized
    /// rank columns, per-config arenas, maintained top-K lists and every
    /// pooled join scratch, whose buffers are `O(|A| + |B| + postings)`.
    /// An *estimate* for eviction budgeting (`mc-serve`'s
    /// max-resident-bytes policy), not an allocator-exact accounting:
    /// per-allocation headers and `Vec` slack are approximated by flat
    /// per-row and per-entry constants.
    pub fn resident_bytes(&self) -> usize {
        const PER_VEC: usize = 24; // Vec header (ptr, len, cap)
        let mut total = 0usize;
        for table in [&self.a, &self.b] {
            for id in 0..table.len() as TupleId {
                for a in 0..table.schema().len() {
                    total += PER_VEC
                        + table
                            .value(id, mc_table::AttrId(a as u16))
                            .map_or(0, str::len);
                }
            }
        }
        total += self.stats_a.resident_bytes() + self.stats_b.resident_bytes();
        // Live tokens plus one `(start, end)` span per record; garbage
        // spans pending compaction are deliberately not billed.
        let arena_bytes = |arena: &RecordArena| arena.total_tokens() * 4 + arena.len() * 8;
        for tok in [&self.prepared.tok_a, &self.prepared.tok_b] {
            total += tok.columns().iter().map(arena_bytes).sum::<usize>();
        }
        for (arena_a, arena_b) in &self.arenas {
            total += arena_bytes(arena_a) + arena_bytes(arena_b);
        }
        for list in &self.lists {
            total += PER_VEC + list.entries.len() * 16;
        }
        total += self.dict.len() * 32; // interned token strings + rank table
        total
            + self
                .scratch_pool
                .iter()
                .map(JoinScratch::resident_bytes)
                .sum::<usize>()
    }

    /// Builds arenas from the tokenized tables and runs the joint stage
    /// cold at capacity `K`, replacing the session's arenas and lists.
    fn cold_joint(&mut self) {
        let _span = mc_obs::Span::enter(Stage::TopK.span_name());
        self.arenas = build_arenas(
            &self.prepared.tok_a,
            &self.prepared.tok_b,
            &self.prepared.tree.configs(),
            self.params.joint.threads,
        );
        let mut jp = self.params.joint;
        jp.k = self.cap();
        let out = run_joint_with_arenas(
            &self.prepared.tok_a,
            &self.prepared.tok_b,
            &self.killed,
            &self.prepared.tree,
            jp,
            &self.arenas,
        );
        self.q = out.q_used;
        self.lists = out
            .lists
            .iter()
            .map(|l| ConfigList::joined(l, jp.k))
            .collect();
    }

    /// Re-runs the debugger against patched state.
    ///
    /// `delta_a` / `delta_b` edit the tables (pass
    /// [`TableDelta::new()`] for "unchanged"); `new_killed` replaces the
    /// killed set (`None` keeps the current one — with empty deltas that
    /// makes the rerun a pure replay). Both deltas are validated before
    /// either is applied, so an error leaves the session untouched.
    ///
    /// The returned report is byte-identical (metrics aside) to a cold
    /// run on the patched tables with the session's parameters.
    pub fn rerun(
        &mut self,
        delta_a: &TableDelta,
        delta_b: &TableDelta,
        new_killed: Option<PairSet>,
        oracle: &mut dyn Oracle,
    ) -> Result<DebugReport, mc_table::DeltaError> {
        let _obs = self.params.obs.attach();
        let _cpu = mc_obs::par::hold();
        let baseline = MetricsSnapshot::capture();
        let _span = mc_obs::span!("mc.core.incr.rerun");
        mc_obs::counter!("mc.core.incr.reruns").inc();

        delta_a.validate(&self.a)?;
        delta_b.validate(&self.b)?;

        // Killed-set diff, computed against the *current* killed set
        // before it is replaced. Sorted for deterministic iteration.
        let (newly_killed, unkilled) = match &new_killed {
            Some(nk) => {
                let _span = mc_obs::span!("mc.core.incr.killed_diff");
                // The keys of `x ∖ y`, sorted.
                let minus = |x: &PairSet, y: &PairSet| {
                    let mut keys: Vec<u64> = x
                        .iter()
                        .filter(|&(a, b)| !y.contains(a, b))
                        .map(|(a, b)| mc_table::pair_key(a, b))
                        .collect();
                    keys.sort_unstable();
                    keys
                };
                (minus(nk, &self.killed), minus(&self.killed, nk))
            }
            None => (Vec::new(), Vec::new()),
        };
        let tables_changed = !delta_a.is_empty() || !delta_b.is_empty();
        if !tables_changed && new_killed.is_some() {
            mc_obs::counter!("mc.core.incr.killed_fast_path").inc();
        }

        let (changed_a, changed_b) = if tables_changed {
            // Fold the deltas into the stats counters against the
            // pre-patch rows, then patch the tables.
            self.stats_a.apply_delta(&self.a, delta_a);
            self.stats_b.apply_delta(&self.b, delta_b);
            let ca = delta_a.apply(&mut self.a)?;
            let cb = delta_b.apply(&mut self.b)?;
            mc_obs::counter!("mc.core.incr.records_patched").add((ca.len() + cb.len()) as u64);
            (ca, cb)
        } else {
            (Vec::new(), Vec::new())
        };

        if let Some(nk) = new_killed {
            self.killed = nk;
        }

        if tables_changed {
            // The promising attribute set and the config tree are
            // functions of table statistics, so edits can change them.
            // Recompute both; if either differs from the session's, the
            // maintained lists describe the wrong configs — fall back to
            // a full cold rebuild (exact by construction).
            let (promising, tree) = {
                let _span = mc_obs::span!("mc.core.incr.promising");
                select_configs(&self.params, &self.a, &self.b, &self.stats_a, &self.stats_b)
            };
            let old_tree = &self.prepared.tree;
            let same_shape = promising.attrs == self.prepared.promising.attrs
                && tree.configs() == old_tree.configs()
                && (0..tree.len()).all(|i| tree.parent(i) == old_tree.parent(i));
            if !same_shape {
                mc_obs::counter!("mc.core.incr.full_rebuilds").inc();
                (self.prepared, self.dict) = tokenize(&self.a, &self.b, promising, tree);
                self.cold_joint();
                return Ok(self.finish(oracle, baseline));
            }
            // Stats (e-scores, average token counts) may still have
            // drifted; adopt the recomputed set so the session's view
            // matches what a cold run would report.
            self.prepared.promising = promising;
            self.patch_tokenized(&changed_a, &changed_b);
        }

        let changed_a: FxHashSet<TupleId> = changed_a.into_iter().collect();
        let changed_b: FxHashSet<TupleId> = changed_b.into_iter().collect();
        self.maintain_lists(&changed_a, &changed_b, &newly_killed, &unkilled);
        Ok(self.finish(oracle, baseline))
    }

    /// Patches the tokenized tables and every config arena for the
    /// changed rows, compacting tokenized columns and arenas whose
    /// garbage ratio passed the threshold.
    fn patch_tokenized(&mut self, changed_a: &[TupleId], changed_b: &[TupleId]) {
        let _span = mc_obs::span!("mc.core.incr.patch");
        let attrs = &self.prepared.promising.attrs;
        // `apply` reports updates/deletes first, then inserts in
        // ascending id order, so `push_row` ids line up. Side A interns
        // its new tokens first, as a cold build would.
        for (table, tok, changed) in [
            (&self.a, &mut self.prepared.tok_a, changed_a),
            (&self.b, &mut self.prepared.tok_b, changed_b),
        ] {
            for &id in changed {
                let per_attr = self.dict.retokenize_row(table, id, attrs, Tokenizer::Word);
                if (id as usize) < tok.rows() {
                    tok.set_row(id, &per_attr);
                } else {
                    let nid = tok.push_row(&per_attr);
                    debug_assert_eq!(nid, id, "insert ids must be dense");
                }
            }
            tok.compact(COMPACT_THRESHOLD);
        }
        for ((arena_a, arena_b), config) in self.arenas.iter_mut().zip(self.prepared.tree.configs())
        {
            let pos = config.positions();
            for (arena, tok, changed) in [
                (&mut *arena_a, &self.prepared.tok_a, changed_a),
                (&mut *arena_b, &self.prepared.tok_b, changed_b),
            ] {
                for &id in changed {
                    let merged = tok.merged(&pos, id);
                    if (id as usize) < arena.len() {
                        arena.patch_record(id, &merged);
                    } else {
                        let nid = arena.push_record(&merged);
                        debug_assert_eq!(nid, id, "arena inserts must be dense");
                    }
                }
                if arena.garbage_ratio() > COMPACT_THRESHOLD {
                    arena.compact();
                    mc_obs::counter!("mc.core.incr.compactions").inc();
                }
            }
        }
    }

    /// Incrementally maintains every config's top-K entries after a
    /// patch and/or killed-set diff: one job per config, fanned out over
    /// the CPU budget. See the module docs for the exactness argument.
    fn maintain_lists(
        &mut self,
        changed_a: &FxHashSet<TupleId>,
        changed_b: &FxHashSet<TupleId>,
        newly_killed: &[u64],
        unkilled: &[u64],
    ) {
        let _span = mc_obs::Span::enter(Stage::TopK.span_name());
        let newly_killed: FxHashSet<u64> = newly_killed.iter().copied().collect();
        let inputs = RerunInputs {
            changed_a,
            changed_b,
            newly_killed: &newly_killed,
            unkilled,
            killed: &self.killed,
            k: self.params.joint.k,
            ssj: SsjParams {
                k: self.cap(),
                q: self.q,
                measure: self.params.joint.measure,
            },
        };
        let mut jobs: Vec<(&mut ConfigList, &(RecordArena, RecordArena), Upkeep)> = self
            .lists
            .iter_mut()
            .zip(&self.arenas)
            .map(|(list, arenas)| (list, arenas, Upkeep::default()))
            .collect();
        let pool = Mutex::new(std::mem::take(&mut self.scratch_pool));
        let lend = || pool.lock().expect("no job panics holding the pool");
        mc_obs::par::for_each(
            &mut jobs,
            self.params.joint.threads,
            |(list, arenas, work)| {
                let mut scratch = lend().pop().unwrap_or_default();
                *work = maintain_config(&inputs, arenas, list, &mut scratch);
                lend().push(scratch);
            },
        );
        self.scratch_pool = pool.into_inner().expect("every job returned its scratch");

        let sum = |count: fn(&Upkeep) -> u64| jobs.iter().map(|(_, _, w)| count(w)).sum::<u64>();
        mc_obs::counter!("mc.core.incr.pairs_rescored").add(sum(|w| w.rescored));
        mc_obs::counter!("mc.core.incr.pairs_reused").add(sum(|w| w.reused));
        mc_obs::counter!("mc.core.incr.full_rejoins").add(sum(|w| w.rejoins));
        mc_obs::counter!("mc.core.incr.valid_extended").add(sum(|w| w.extended));
    }

    /// Builds the report from the maintained lists: truncate each
    /// config's valid prefix to `k`, build and publish the union, then
    /// run [`MatchCatcher::run`]'s own verify → explain tail.
    fn finish(&mut self, oracle: &mut dyn Oracle, baseline: MetricsSnapshot) -> DebugReport {
        let k = self.params.joint.k;
        // How far the session is from a full rejoin: a config rejoins
        // once fewer than `k` of its exact entries survive a rerun. A
        // complete list never rejoins, so it does not count; with every
        // list complete the gauge reads `K`.
        let valid_min = self
            .lists
            .iter()
            .filter(|l| !l.complete)
            .map(|l| l.valid)
            .min()
            .unwrap_or(self.cap());
        mc_obs::gauge!("mc.core.incr.valid_min").set(valid_min as i64);
        let k_lists: Vec<TopKList> = self
            .lists
            .iter()
            .map(|list| {
                let mut l = TopKList::new(k);
                for &(s, p) in &list.entries[..list.valid] {
                    l.insert(s, p);
                }
                l
            })
            .collect();
        let union = CandidateUnion::build(&k_lists);
        self.publish_union(&union);
        report(
            &self.params,
            &self.a,
            &self.b,
            &self.prepared,
            self.q,
            &union,
            oracle,
            None,
            &baseline,
        )
    }

    /// Publishes the candidate union under the *patched* tables' content
    /// keys, as the bytes a cold run over them publishes. No-op without
    /// a configured store; store failures degrade silently (counted),
    /// exactly like the cold path.
    fn publish_union(&self, union: &CandidateUnion) {
        let Some(store) = self.params.open_store() else {
            return;
        };
        let (digest_a, digest_b) = store_io::content_digests(&self.a, &self.b);
        let tok = store_io::tok_key(
            digest_a,
            digest_b,
            &self.prepared.promising.attrs,
            Tokenizer::Word,
        );
        // Keyed at the *report* k with the session's params: the
        // published bytes are exactly what a cold run with these params
        // would produce, so the key is the one that cold run derives —
        // and a later `MatchCatcher::run` over these tables loads it.
        let ukey = store_io::union_key(tok, &self.prepared.tree, &self.params.joint, &self.killed);
        store.publish(
            ArtifactKind::CandidateUnion,
            ukey,
            &store_io::encode_union(&self.prepared.tree.configs(), self.q, union),
        );
    }
}

/// One config's maintenance job: filters the survivors, then either
/// rejoins fully or runs the delta joins, re-scores un-killed pairs and
/// merges. Rewrites `list` in place and returns the job's work.
fn maintain_config(
    inputs: &RerunInputs<'_>,
    (arena_a, arena_b): &(RecordArena, RecordArena),
    list: &mut ConfigList,
    scratch: &mut JoinScratch,
) -> Upkeep {
    let RerunInputs {
        changed_a,
        changed_b,
        newly_killed,
        unkilled,
        killed,
        k,
        ssj,
    } = *inputs;
    let mut work = Upkeep::default();
    // Every kept entry the rerun leaves untouched is still a candidate
    // with its exact score, the unproven tail's as well as the exact
    // prefix's, so all of them seed the joins.
    let survivors: Vec<(f64, u64)> = list
        .entries
        .iter()
        .copied()
        .filter(|&(_, p)| {
            let (x, y) = split_pair_key(p);
            !changed_a.contains(&x) && !changed_b.contains(&y) && !newly_killed.contains(&p)
        })
        .collect();
    // Entries at or above the exact prefix's last one: `v′` of the
    // survivors, and the new exact prefix of the merge.
    let boundary = list.valid.checked_sub(1).map(|j| list.entries[j]);
    let exact_prefix = |entries: &[(f64, u64)]| {
        boundary.map_or(0, |b| {
            entries.partition_point(|e| canonical_cmp(e, &b).is_le())
        })
    };
    let v2 = exact_prefix(&survivors);
    work.reused = v2 as u64;

    if v2 < k && !list.complete {
        // Too few exact survivors to guarantee an exact top-k prefix
        // from merging: one full join, seeded with every survivor (their
        // scores are still valid, so the threshold starts high).
        work.rejoins = 1;
        let inst = SsjInstance {
            records_a: arena_a,
            records_b: arena_b,
            killed,
        };
        let joined = topk_join_with_scratch(inst, ssj, &survivors, None, scratch);
        work.rescored = scratch.last_scored();
        *list = ConfigList::joined(&joined, ssj.k);
        return work;
    }

    // Delta joins over masked views: every pair whose score may have
    // changed has an endpoint in a changed set, and the two views
    // partition those pairs (changed_A × B, then unchanged_A ×
    // changed_B). Each join is seeded with the best entries known so
    // far — exactness does not need the seeds, only the thresholds they
    // raise. Both run the queue-free semi-join with the changed set as
    // the posted side: the full table streams past a tiny postings
    // index, which beats the event kernel's per-token queue and
    // accumulator work and is bit-identical to it.
    let mut contributions: Vec<(f64, u64)> = Vec::new();
    if !changed_a.is_empty() {
        let masked = {
            let _s = mc_obs::span!("mc.core.incr.mask");
            arena_a.masked_view(|t| changed_a.contains(&t))
        };
        let inst = SsjInstance {
            records_a: &masked,
            records_b: arena_b,
            killed,
        };
        let _s = mc_obs::span!("mc.core.incr.j1");
        let j1 = topk_semi_join(inst, ssj, &survivors, None, scratch, 0);
        work.rescored += scratch.last_scored();
        contributions.extend(j1.sorted_entries());
    }
    if !changed_b.is_empty() {
        let (masked_a, masked_b) = {
            let _s = mc_obs::span!("mc.core.incr.mask");
            (
                arena_a.masked_view(|t| !changed_a.contains(&t)),
                arena_b.masked_view(|t| changed_b.contains(&t)),
            )
        };
        let inst = SsjInstance {
            records_a: &masked_a,
            records_b: &masked_b,
            killed,
        };
        let seed = if contributions.is_empty() {
            &survivors
        } else {
            &contributions
        };
        let _s = mc_obs::span!("mc.core.incr.j2");
        let j2 = topk_semi_join(inst, ssj, seed, None, scratch, 1);
        work.rescored += scratch.last_scored();
        contributions.extend(j2.sorted_entries());
    }
    // Un-killed untouched pairs re-enter the candidate universe; delta
    // joins already cover un-killed pairs with a changed endpoint.
    // Membership mirrors QJoin: at least `q` common tokens (any pair
    // beating the final threshold with ≥ q common tokens is guaranteed
    // discovered by a cold join, so over-covering below the threshold is
    // harmless — such pairs cannot enter the valid prefix).
    for &p in unkilled {
        let (x, y) = split_pair_key(p);
        if (x as usize) >= arena_a.len()
            || (y as usize) >= arena_b.len()
            || changed_a.contains(&x)
            || changed_b.contains(&y)
            || killed.contains_key(p)
        {
            continue;
        }
        let (ra, rb) = (arena_a.record(x), arena_b.record(y));
        let o = multiset_overlap(ra, rb);
        if o >= ssj.q {
            work.rescored += 1;
            contributions.push((ssj.measure.from_overlap(o, ra.len(), rb.len()), p));
        }
    }

    // Merge, dedup by pair key (duplicate keys always carry the same
    // score — every path computes the one exact kernel), and keep the
    // canonical top K. The exact prefix extends to every merged entry at
    // or above the old boundary, or to the whole merge of a complete
    // list (module docs); the tail stays as seeds and merge fodder but
    // is never reported.
    let mut seen: FxHashSet<u64> = fx_set();
    let mut merged: Vec<(f64, u64)> = Vec::with_capacity(survivors.len() + contributions.len());
    for (s, p) in survivors.into_iter().chain(contributions) {
        if seen.insert(p) {
            merged.push((s, p));
        }
    }
    merged.sort_unstable_by(canonical_cmp);
    let complete = list.complete && merged.len() < ssj.k;
    merged.truncate(ssj.k);
    let valid = if list.complete {
        merged.len()
    } else {
        exact_prefix(&merged)
    };
    work.extended = (valid - v2) as u64;
    *list = ConfigList {
        entries: merged,
        valid,
        complete,
    };
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GoldOracle;
    use crate::verify::IterationRecord;
    use mc_blocking::{Blocker, KeyFunc};
    use mc_datagen::profiles::DatasetProfile;
    use mc_table::{AttrId, RowEdit};

    /// The result-bearing report fields, metrics excluded.
    type Summary = (
        Vec<(TupleId, TupleId)>,
        usize,
        usize,
        usize,
        Vec<IterationRecord>,
        Vec<(String, usize)>,
    );

    fn summarize(r: &DebugReport) -> Summary {
        (
            r.confirmed_matches.clone(),
            r.e_size,
            r.q_used,
            r.labeled,
            r.iterations.clone(),
            r.problems.clone(),
        )
    }

    fn fixture() -> (Table, Table, PairSet, mc_table::GoldMatches) {
        let ds = DatasetProfile::FodorsZagats.generate_scaled(11, 0.4);
        let killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
        (ds.a, ds.b, killed, ds.gold)
    }

    fn params() -> DebuggerParams {
        let mut p = DebuggerParams::small();
        p.incr.margin = 16;
        p
    }

    #[test]
    fn session_start_matches_one_shot_run() {
        // Same parameters on both sides — the paper's defaults included;
        // the session changes nothing but how it holds its lists.
        let (a, b, killed, gold) = fixture();
        for p in [params(), DebuggerParams::default()] {
            let mc = MatchCatcher::new(p);
            let cold = mc.run(&a, &b, &killed, &mut GoldOracle::exact(&gold));
            let (_, start) = mc.start_session(
                a.clone(),
                b.clone(),
                killed.clone(),
                &mut GoldOracle::exact(&gold),
            );
            assert_eq!(summarize(&cold), summarize(&start));
            assert!(
                !start.confirmed_matches.is_empty(),
                "fixture recovers matches"
            );
        }
    }

    /// A fresh store directory under the system temp dir.
    fn temp_store(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "mc_incr_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    #[test]
    fn one_shot_run_starts_warm_from_a_session_published_union() {
        use mc_store::StoreConfig;
        let root = temp_store("union");
        let (a, b, killed, gold) = fixture();
        let mut p = params();
        p.store = Some(StoreConfig::at(&root));
        p.obs = mc_obs::ObsContext::session();
        let mc = MatchCatcher::new(p);
        let (_, start) = mc.start_session(
            a.clone(),
            b.clone(),
            killed.clone(),
            &mut GoldOracle::exact(&gold),
        );
        let run = mc.run(&a, &b, &killed, &mut GoldOracle::exact(&gold));
        assert_eq!(summarize(&start), summarize(&run));
        assert_eq!(
            run.metrics.span("mc.core.joint.run").count,
            0,
            "the run must load the session's union instead of joining"
        );
        assert!(run.metrics.counter("mc.store.hits") > 0);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn delta_rerun_publishes_the_union_bytes_a_cold_run_publishes() {
        use mc_store::StoreConfig;
        let with_store = |root: &std::path::Path| {
            let mut p = params();
            p.store = Some(StoreConfig::at(root));
            MatchCatcher::new(p)
        };
        let unions = |root: &std::path::Path| {
            let mut files: Vec<_> = std::fs::read_dir(root.join("objects").join("union"))
                .expect("union dir")
                .map(|e| {
                    let path = e.expect("entry").path();
                    (
                        path.file_name().expect("name").to_owned(),
                        std::fs::read(&path).expect("read"),
                    )
                })
                .collect();
            files.sort();
            files
        };
        let (a, b, killed, gold) = fixture();
        let session_root = temp_store("session_union");
        let mut oracle = GoldOracle::exact(&gold);
        let (mut session, _) = with_store(&session_root).start_session(a, b, killed, &mut oracle);
        let delta_a = TableDelta {
            updates: vec![RowEdit {
                id: 0,
                tuple: session.table_a().tuple(1).clone(),
            }],
            deletes: vec![3],
            inserts: Vec::new(),
        };
        session
            .rerun(&delta_a, &TableDelta::new(), None, &mut oracle)
            .unwrap();

        let cold_root = temp_store("cold_union");
        with_store(&cold_root).run(
            session.table_a(),
            session.table_b(),
            session.killed(),
            &mut GoldOracle::exact(&gold),
        );
        let cold = unions(&cold_root);
        assert_eq!(cold.len(), 1, "a cold run publishes one union");
        let published = unions(&session_root);
        let rerun = published
            .iter()
            .find(|(name, _)| *name == cold[0].0)
            .expect("the rerun published the patched tables' union");
        assert!(rerun.1 == cold[0].1, "union bytes differ from a cold run's");
        std::fs::remove_dir_all(session_root).ok();
        std::fs::remove_dir_all(cold_root).ok();
    }

    #[test]
    fn empty_rerun_replays_identically() {
        let (a, b, killed, gold) = fixture();
        let mc = MatchCatcher::new(params());
        let mut oracle = GoldOracle::exact(&gold);
        let (mut session, start) = mc.start_session(a, b, killed, &mut oracle);
        let again = session
            .rerun(&TableDelta::new(), &TableDelta::new(), None, &mut oracle)
            .unwrap();
        assert_eq!(summarize(&start), summarize(&again));
    }

    #[test]
    fn delta_rerun_matches_cold_session_on_patched_tables() {
        let (a, b, killed, gold) = fixture();
        let mc = MatchCatcher::new(params());
        let mut oracle = GoldOracle::exact(&gold);
        let (mut session, _) = mc.start_session(a, b, killed, &mut oracle);

        // Update one A row, delete another, insert a B row.
        let donor_a = session.table_a().tuple(1).clone();
        let donor_b = session.table_b().tuple(0).clone();
        let delta_a = TableDelta {
            updates: vec![RowEdit {
                id: 0,
                tuple: donor_a,
            }],
            deletes: vec![3],
            inserts: Vec::new(),
        };
        let delta_b = TableDelta {
            updates: Vec::new(),
            deletes: Vec::new(),
            inserts: vec![donor_b],
        };
        let incr = session
            .rerun(&delta_a, &delta_b, None, &mut oracle)
            .unwrap();

        let (_, cold) = mc.start_session(
            session.table_a().clone(),
            session.table_b().clone(),
            session.killed().clone(),
            &mut GoldOracle::exact(&gold),
        );
        assert_eq!(summarize(&cold), summarize(&incr));
    }

    #[test]
    fn killed_only_rerun_matches_cold_session() {
        let (a, b, killed, gold) = fixture();
        let mc = MatchCatcher::new(params());
        let mut oracle = GoldOracle::exact(&gold);
        let (mut session, _) = mc.start_session(a, b, killed.clone(), &mut oracle);

        // Shrink and grow the killed set: un-kill half, kill fresh pairs.
        let mut nk = PairSet::new();
        for (i, (x, y)) in killed.iter().enumerate() {
            if i % 2 == 0 {
                nk.insert(x, y);
            }
        }
        nk.insert(0, 0);
        nk.insert(1, 1);
        let before = MetricsSnapshot::capture();
        let incr = session
            .rerun(
                &TableDelta::new(),
                &TableDelta::new(),
                Some(nk),
                &mut oracle,
            )
            .unwrap();
        let delta = MetricsSnapshot::capture().since(&before);
        assert!(delta.counter("mc.core.incr.killed_fast_path") > 0);

        let (_, cold) = mc.start_session(
            session.table_a().clone(),
            session.table_b().clone(),
            session.killed().clone(),
            &mut GoldOracle::exact(&gold),
        );
        assert_eq!(summarize(&cold), summarize(&incr));
    }

    #[test]
    fn session_start_records_each_stage_span_as_often_as_run() {
        let (a, b, killed, gold) = fixture();
        let with_obs = || {
            let mut p = params();
            p.obs = mc_obs::ObsContext::session();
            MatchCatcher::new(p)
        };
        let run = with_obs().run(&a, &b, &killed, &mut GoldOracle::exact(&gold));
        let (_, start) = with_obs().start_session(a, b, killed, &mut GoldOracle::exact(&gold));
        for stage in Stage::ALL {
            let name = stage.span_name();
            assert_eq!(
                start.metrics.span(name).count,
                run.metrics.span(name).count,
                "{stage:?} spans of a session's first report"
            );
        }
    }

    #[test]
    fn resident_bytes_counts_the_warm_join_scratch() {
        let (a, b, killed, gold) = fixture();
        let mut oracle = GoldOracle::exact(&gold);
        let (mut session, _) = MatchCatcher::new(params()).start_session(a, b, killed, &mut oracle);
        let donor = session.table_a().tuple(1).clone();
        let delta_a = TableDelta {
            updates: vec![RowEdit {
                id: 0,
                tuple: donor,
            }],
            deletes: Vec::new(),
            inserts: Vec::new(),
        };
        session
            .rerun(&delta_a, &TableDelta::new(), None, &mut oracle)
            .unwrap();
        let pooled = |s: &DebugSession| {
            s.scratch_pool
                .iter()
                .map(JoinScratch::resident_bytes)
                .sum::<usize>()
        };
        let warmed = pooled(&session);
        assert!(warmed > 0, "a delta rerun warms the session's scratch");
        // Every pooled scratch counts, however many workers ran: pool
        // one more, warmed by a join of its own.
        let mut helper = JoinScratch::new();
        let (records_a, records_b) = &session.arenas[0];
        let ssj = SsjParams {
            k: session.cap(),
            q: session.q,
            measure: session.params.joint.measure,
        };
        let inst = SsjInstance {
            records_a,
            records_b,
            killed: &session.killed,
        };
        topk_join_with_scratch(inst, ssj, &[], None, &mut helper);
        let helper_bytes = helper.resident_bytes();
        assert!(helper_bytes > 0);
        let before = session.resident_bytes();
        session.scratch_pool.push(helper);
        assert_eq!(session.resident_bytes() - before, helper_bytes);
        assert_eq!(pooled(&session), warmed + helper_bytes);
        let warm = session.resident_bytes();
        session.scratch_pool.clear();
        assert_eq!(warm - session.resident_bytes(), warmed + helper_bytes);
    }

    #[test]
    fn resident_bytes_counts_the_table_statistics() {
        let (a, b, killed, gold) = fixture();
        let mut oracle = GoldOracle::exact(&gold);
        let (mut session, _) = MatchCatcher::new(params()).start_session(a, b, killed, &mut oracle);
        let stats_bytes =
            |s: &DebugSession| s.stats_a.resident_bytes() + s.stats_b.resident_bytes();
        let counted = stats_bytes(&session);
        assert!(counted > 0, "the statistics own a key per distinct value");
        // An insert with values no row holds yet adds keys.
        let mut fresh = session.table_a().tuple(0).clone();
        for attr in session.table_a().schema().attr_ids() {
            fresh.set(attr, Some(format!("unseen value {}", attr.index())));
        }
        let delta_a = TableDelta {
            updates: Vec::new(),
            deletes: Vec::new(),
            inserts: vec![fresh],
        };
        session
            .rerun(&delta_a, &TableDelta::new(), None, &mut oracle)
            .unwrap();
        assert!(stats_bytes(&session) > counted, "fresh values add keys");
        // Dropping the statistics takes exactly their bytes off the total.
        let before = session.resident_bytes();
        let grown = stats_bytes(&session);
        let schema = session.table_a().schema().clone();
        let empty = || IncrTableStats::compute(&Table::new("E", schema.clone()));
        session.stats_a = empty();
        session.stats_b = empty();
        assert_eq!(stats_bytes(&session), 0);
        assert_eq!(before - session.resident_bytes(), grown);
    }

    /// Each config's maintenance is one job, fanned out at most
    /// `joint.threads` wide: after every rerun the lists, their exact
    /// prefixes and completeness, and the incremental work counters are
    /// the same at 1, 2 and 4 threads.
    #[test]
    fn maintained_lists_are_the_same_at_any_thread_count() {
        use mc_datagen::delta::{perturb_killed, random_delta, DeltaSpec};
        use rand::SeedableRng;
        let (a, b, killed, gold) = fixture();
        let mut sessions = [1, 2, 4].map(|threads| {
            let mut p = params();
            p.joint.threads = threads;
            p.obs = mc_obs::ObsContext::session();
            let mc = MatchCatcher::new(p);
            let start = mc.start_session(
                a.clone(),
                b.clone(),
                killed.clone(),
                &mut GoldOracle::exact(&gold),
            );
            start.0
        });
        let lists = |s: &DebugSession| {
            s.lists
                .iter()
                .map(|l| (l.entries.clone(), l.valid, l.complete))
                .collect::<Vec<_>>()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        for round in 0..4 {
            let s = &sessions[0];
            let delta_a = random_delta(
                s.table_a(),
                DeltaSpec::fraction_of(s.table_a().len(), 0.03),
                &mut rng,
            );
            let delta_b = random_delta(
                s.table_b(),
                DeltaSpec::fraction_of(s.table_b().len(), 0.03),
                &mut rng,
            );
            let nk = perturb_killed(
                s.killed(),
                (s.table_a().len() + delta_a.inserts.len()) as u32,
                (s.table_b().len() + delta_b.inserts.len()) as u32,
                0.05,
                8,
                &mut rng,
            );
            let reports: Vec<DebugReport> = sessions
                .iter_mut()
                .map(|s| {
                    s.rerun(
                        &delta_a,
                        &delta_b,
                        Some(nk.clone()),
                        &mut GoldOracle::exact(&gold),
                    )
                    .unwrap()
                })
                .collect();
            assert_eq!(
                reports[0].metrics.counter("mc.core.incr.full_rebuilds"),
                0,
                "round {round}: the deltas must keep the config tree, or no list is maintained"
            );
            for (s, r) in sessions[1..].iter().zip(&reports[1..]) {
                let threads = s.params.joint.threads;
                assert!(
                    lists(s) == lists(&sessions[0]),
                    "round {round}: lists at {threads} threads"
                );
                assert_eq!(summarize(r), summarize(&reports[0]));
                for counter in [
                    "mc.core.incr.pairs_rescored",
                    "mc.core.incr.pairs_reused",
                    "mc.core.incr.full_rejoins",
                    "mc.core.incr.valid_extended",
                ] {
                    assert_eq!(
                        r.metrics.counter(counter),
                        reports[0].metrics.counter(counter),
                        "round {round}: {counter} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "QStrategy::Fixed")]
    fn auto_q_is_rejected() {
        let (a, b, killed, gold) = fixture();
        let mut p = params();
        p.joint.q = QStrategy::Auto {
            max_q: 3,
            prelude_k: 50,
        };
        MatchCatcher::new(p).start_session(a, b, killed, &mut GoldOracle::exact(&gold));
    }

    #[test]
    fn invalid_delta_leaves_session_intact() {
        let (a, b, killed, gold) = fixture();
        let mc = MatchCatcher::new(params());
        let mut oracle = GoldOracle::exact(&gold);
        let (mut session, start) = mc.start_session(a, b, killed, &mut oracle);
        let bad = TableDelta {
            updates: Vec::new(),
            deletes: vec![TupleId::MAX],
            inserts: Vec::new(),
        };
        assert!(session
            .rerun(&bad, &TableDelta::new(), None, &mut oracle)
            .is_err());
        let again = session
            .rerun(&TableDelta::new(), &TableDelta::new(), None, &mut oracle)
            .unwrap();
        assert_eq!(summarize(&start), summarize(&again));
    }
}
