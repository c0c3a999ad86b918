//! Joint execution of top-k joins across all configs (§4.2).
//!
//! Three cooperating mechanisms, all per the paper:
//!
//! * **Overlap reuse** — while processing a config with a non-empty
//!   subtree (a *writer*), the per-attribute-pair token overlaps
//!   `o(f_i, f_j)` of every freshly scored pair are stored in an
//!   insert-only concurrent database `H`; configs in the subtree then
//!   compute scores by summing the relevant cells instead of re-merging
//!   long token vectors. (The paper uses Folly's atomic hash map; we use
//!   a sharded `RwLock` map with identical insert-only semantics.)
//!   Reuse is only engaged when the average record length is at least
//!   [`JointParams::reuse_min_avg_tokens`] tokens — below that, the
//!   bookkeeping outweighs the savings.
//! * **Top-k list reuse** — a child config re-scores its parent's
//!   finished top-k list under its own config and starts from it,
//!   raising the pruning threshold immediately.
//! * **One config per core** — configs are processed breadth-first by a
//!   pool of workers; splitting a single config across cores suffers from
//!   skew (§4.2), so parallelism is across configs.
//!
//! # Determinism
//!
//! Whenever either reuse mechanism involves a parent, the worker that
//! claims a config first **waits for the parent config to finish**
//! ([`std::sync::OnceLock::wait`]) instead of opportunistically peeking
//! at whatever partial state happens to exist. The parent's overlap
//! database is therefore always complete before any child reads it, so
//! each pair's hit/miss outcome — and with it the exact floating-point
//! score path — no longer depends on thread scheduling. Combined with
//! the deterministic `q` selection in [`select_q`], `run_joint` produces
//! a **bit-identical** [`JointOutput`] at every thread count.
//!
//! The wait cannot deadlock: configs are claimed in increasing index
//! order from one atomic counter and a parent's index is always smaller
//! than its child's, so the smallest unfinished config's parent is
//! already finished and its worker can always make progress.
//!
//! The decomposed score `Σ o(f_i, f_j)` equals the exact merged-multiset
//! overlap whenever no token appears in two different attributes of one
//! tuple; with cross-attribute repeats it can overestimate slightly (it
//! is clamped to `min(|x|, |y|)`), which is the paper's own approximation.

use crate::config::{Config, ConfigTree};
use crate::ssj::{
    select_q, topk_join_with_scratch, ExactScorer, JoinScratch, PairScorer, ScoreCache,
    ScoreOutcome, SsjInstance, SsjParams, TopKList,
};
use mc_strsim::arena::RecordArena;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::measures::{
    multiset_overlap, overlap_bound_key, overlap_with_bound, required_overlap_keyed, SetMeasure,
};
use mc_table::hash::{hash_u64, FxHashMap};
use mc_table::{split_pair_key, PairSet, TupleId};
use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

const DB_SHARDS: usize = 64;

/// The concurrent overlap database `H_γ` of one writer config.
///
/// Maps a pair key to the `m × m` matrix of per-attribute-pair multiset
/// overlaps, where `m` is the writer's attribute count. Insert-only:
/// entries are never mutated or removed, so concurrent readers can never
/// observe a torn value.
///
/// Every lookup and insert is counted both per instance (see
/// [`OverlapDb::stats`], exact and race-free for tests) and in the global
/// registry (`mc.core.joint.overlap_db.{hits,misses,inserts}`).
pub struct OverlapDb {
    /// The writer config's positions (indexes into the promising set),
    /// ascending; cell `(i, j)` refers to `attrs[i]` of A and `attrs[j]`
    /// of B.
    attrs: Vec<usize>,
    shards: Vec<RwLock<FxHashMap<u64, Arc<[u32]>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl OverlapDb {
    /// An empty database for a writer config.
    pub fn new(config: Config) -> Self {
        OverlapDb {
            attrs: config.positions(),
            shards: (0..DB_SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// The writer's attribute positions.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    #[inline]
    fn shard(&self, key: u64) -> &RwLock<FxHashMap<u64, Arc<[u32]>>> {
        &self.shards[(hash_u64(key) >> 58) as usize % DB_SHARDS]
    }

    /// Runs `f` on the pair's cell matrix without cloning the `Arc`
    /// (the shard read lock is held only for the duration of `f`). The
    /// hit/miss accounting is identical to [`OverlapDb::get`].
    pub fn with<R>(&self, key: u64, f: impl FnOnce(&[u32]) -> R) -> Option<R> {
        let out = {
            let shard = self.shard(key).read();
            shard.get(&key).map(|cells| f(cells))
        };
        if out.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mc_obs::counter!("mc.core.joint.overlap_db.hits").inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            mc_obs::counter!("mc.core.joint.overlap_db.misses").inc();
        }
        out
    }

    /// Fetches the cell matrix for a pair, if present.
    pub fn get(&self, key: u64) -> Option<Arc<[u32]>> {
        let out = self.shard(key).read().get(&key).cloned();
        if out.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mc_obs::counter!("mc.core.joint.overlap_db.hits").inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            mc_obs::counter!("mc.core.joint.overlap_db.misses").inc();
        }
        out
    }

    /// Inserts a cell matrix (first writer wins; idempotent).
    pub fn insert(&self, key: u64, cells: Arc<[u32]>) {
        debug_assert_eq!(cells.len(), self.attrs.len() * self.attrs.len());
        if let std::collections::hash_map::Entry::Vacant(v) = self.shard(key).write().entry(key) {
            v.insert(cells);
            self.inserts.fetch_add(1, Ordering::Relaxed);
            mc_obs::counter!("mc.core.joint.overlap_db.inserts").inc();
        }
    }

    /// Per-instance `(hits, misses, inserts)` — exact counts of
    /// [`OverlapDb::get`] outcomes and fresh [`OverlapDb::insert`]s on
    /// this database.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.inserts.load(Ordering::Relaxed),
        )
    }

    /// Total entries across shards (diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if no overlaps were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Computes the full cell matrix of a pair over `attrs`, reading the
/// per-attribute rank vectors from the tokenized tables.
///
/// Reference implementation (`m × m` independent merges); the hot path
/// uses the fused [`compute_cells_merged`], which this one cross-checks
/// in tests.
#[cfg(test)]
fn compute_cells(
    attrs: &[usize],
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    a: TupleId,
    b: TupleId,
) -> Arc<[u32]> {
    let m = attrs.len();
    let mut cells = vec![0u32; m * m];
    for (i, &fi) in attrs.iter().enumerate() {
        let ra = tok_a.ranks(fi, a);
        if ra.is_empty() {
            continue;
        }
        for (j, &fj) in attrs.iter().enumerate() {
            let rb = tok_b.ranks(fj, b);
            if !rb.is_empty() {
                cells[i * m + j] = multiset_overlap(ra, rb) as u32;
            }
        }
    }
    cells.into()
}

/// Fused cell matrix **and** exact merged overlap from one merge.
///
/// `ra`/`rb` are the pair's config-merged records (the ones the scorer
/// is handed anyway). A single merge over them finds every shared token
/// value; at each one the run lengths give the merged multiset overlap
/// contribution `min(n_a, n_b)` directly, and the per-attribute copy
/// counts (binary searches in the short per-attribute vectors) give
/// every cell's contribution `min(c_aᵢ, c_bⱼ)`. Correct because a token
/// shared by attribute pair `(i, j)` is necessarily shared by the merged
/// records, so iterating merged shared tokens covers all cells.
///
/// Replaces the old miss path's *separate* full-score merge plus `m × m`
/// per-cell merges with one `O(|ra| + |rb|)` pass; the returned overlap
/// is the same integer `multiset_overlap(ra, rb)` computes, so
/// `from_overlap(o, …)` yields a bit-identical score.
/// Reusable buffers of the fused cell merge: one allocation set per
/// config worker instead of five heap allocations per scored pair.
#[derive(Default)]
struct CellsScratch<'a> {
    /// Per-attribute rank slices of the current pair's records.
    ras: Vec<&'a [u32]>,
    rbs: Vec<&'a [u32]>,
    /// Monotonic per-attribute cursors: the merged records visit ranks in
    /// ascending order, so each cursor only ever moves forward and the
    /// per-attribute multiplicity splits cost `O(|ra| + |rb|)` amortized
    /// over the whole pair (no per-rank binary searches).
    cur_a: Vec<u32>,
    cur_b: Vec<u32>,
    /// Nonzero `(attribute, copies)` splits of the current shared rank —
    /// usually a single entry, which keeps the cell accumulation sparse.
    nz_a: Vec<(u32, u32)>,
    nz_b: Vec<(u32, u32)>,
    /// The `m × m` cell accumulator; read by the caller after the merge.
    cells: Vec<u32>,
}

/// Fused single-pass computation of the pair's cell matrix (into
/// `scratch.cells`) and exact merged multiset overlap (returned): the
/// score comes out of the same merge that the writer's database entry
/// needs, so writers pay one pass instead of `m² + 1` independent ones.
#[allow(clippy::too_many_arguments)]
fn compute_cells_merged<'a>(
    scratch: &mut CellsScratch<'a>,
    attrs: &[usize],
    tok_a: &'a TokenizedTable,
    tok_b: &'a TokenizedTable,
    a: TupleId,
    b: TupleId,
    ra: &[u32],
    rb: &[u32],
) -> usize {
    let m = attrs.len();
    scratch.cells.clear();
    scratch.cells.resize(m * m, 0);
    if m == 1 {
        // One attribute: the merged record *is* the attribute's vector.
        let o = multiset_overlap(ra, rb);
        scratch.cells[0] = o as u32;
        return o;
    }
    scratch.ras.clear();
    scratch.ras.extend(attrs.iter().map(|&f| tok_a.ranks(f, a)));
    scratch.rbs.clear();
    scratch.rbs.extend(attrs.iter().map(|&f| tok_b.ranks(f, b)));
    scratch.cur_a.clear();
    scratch.cur_a.resize(m, 0);
    scratch.cur_b.clear();
    scratch.cur_b.resize(m, 0);
    let mut o = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ra.len() && j < rb.len() {
        let (ta, tb) = (ra[i], rb[j]);
        if ta < tb {
            i += 1;
        } else if ta > tb {
            j += 1;
        } else {
            let i0 = i;
            while i < ra.len() && ra[i] == ta {
                i += 1;
            }
            let j0 = j;
            while j < rb.len() && rb[j] == ta {
                j += 1;
            }
            o += (i - i0).min(j - j0);
            scratch.nz_a.clear();
            for (ii, r) in scratch.ras.iter().enumerate() {
                let mut c = scratch.cur_a[ii] as usize;
                while c < r.len() && r[c] < ta {
                    c += 1;
                }
                let start = c;
                while c < r.len() && r[c] == ta {
                    c += 1;
                }
                scratch.cur_a[ii] = c as u32;
                if c > start {
                    scratch.nz_a.push((ii as u32, (c - start) as u32));
                }
            }
            scratch.nz_b.clear();
            for (jj, r) in scratch.rbs.iter().enumerate() {
                let mut c = scratch.cur_b[jj] as usize;
                while c < r.len() && r[c] < ta {
                    c += 1;
                }
                let start = c;
                while c < r.len() && r[c] == ta {
                    c += 1;
                }
                scratch.cur_b[jj] = c as u32;
                if c > start {
                    scratch.nz_b.push((jj as u32, (c - start) as u32));
                }
            }
            for &(ii, cai) in &scratch.nz_a {
                for &(jj, cbj) in &scratch.nz_b {
                    scratch.cells[ii as usize * m + jj as usize] += cai.min(cbj);
                }
            }
        }
    }
    o
}

/// Per-gate memo of [`required_overlap_keyed`]: the bound collapses to a
/// function of one small scalar per measure (see [`overlap_bound_key`]),
/// and the gate — the config's top-k threshold — changes only when the
/// list improves, orders of magnitude more rarely than pairs are scored.
struct BoundMemo {
    gate: f64,
    by_key: Vec<u32>,
}

/// Keys above this fall back to the direct computation (the table would
/// stop being "tiny"); record-length sums and products in practice sit
/// far below it.
const BOUND_MEMO_MAX: usize = 1 << 12;

impl Default for BoundMemo {
    fn default() -> Self {
        BoundMemo {
            gate: f64::NEG_INFINITY,
            by_key: Vec::new(),
        }
    }
}

impl BoundMemo {
    #[inline]
    fn required(&mut self, measure: SetMeasure, gate: f64, la: usize, lb: usize) -> usize {
        let key = overlap_bound_key(measure, la, lb);
        if key >= BOUND_MEMO_MAX {
            return required_overlap_keyed(measure, gate, key);
        }
        if self.gate != gate {
            self.gate = gate;
            self.by_key.clear();
        }
        if self.by_key.len() <= key {
            self.by_key.resize(key + 1, u32::MAX);
        }
        let slot = &mut self.by_key[key];
        if *slot == u32::MAX {
            *slot = required_overlap_keyed(measure, gate, key) as u32;
        }
        *slot as usize
    }
}

/// A scorer that reuses a parent writer's overlap database when possible
/// and records overlaps into its own database when it is itself a writer.
struct ReuseScorer<'a> {
    measure: SetMeasure,
    /// Parent writer's DB (readable while still being written).
    parent_db: Option<&'a OverlapDb>,
    /// Index of each of this config's attrs within `parent_db.attrs`.
    parent_slots: Vec<usize>,
    /// This config's own DB, when it is a writer.
    own_db: Option<&'a OverlapDb>,
    /// The prelude-populated score cache (root config only; see
    /// [`run_joint_with_arenas`]).
    score_cache: Option<&'a ScoreCache>,
    /// This config's positions.
    my_attrs: Vec<usize>,
    tok_a: &'a TokenizedTable,
    tok_b: &'a TokenizedTable,
    /// Reuse statistics: (hits, misses). A scorer lives on one worker
    /// thread, so plain cells suffice — no atomic traffic per attempt.
    hits: Cell<usize>,
    misses: Cell<usize>,
    /// Reusable buffers of the fused cell merge.
    cells_scratch: RefCell<CellsScratch<'a>>,
    /// Per-gate required-overlap memo for the direct (non-writer)
    /// scoring path.
    bound_memo: RefCell<BoundMemo>,
}

impl PairScorer for ReuseScorer<'_> {
    fn score(&self, a: TupleId, b: TupleId, ra: &[u32], rb: &[u32]) -> f64 {
        // A gate of −1 can never refute, so the gated path degenerates to
        // exact scoring (one implementation, one score path).
        match self.score_above(a, b, ra, rb, -1.0) {
            ScoreOutcome::Scored(s) | ScoreOutcome::Cached(s) => s,
            ScoreOutcome::Refuted => unreachable!("a −1 gate never refutes"),
        }
    }

    fn score_above(
        &self,
        a: TupleId,
        b: TupleId,
        ra: &[u32],
        rb: &[u32],
        gate: f64,
    ) -> ScoreOutcome {
        let key = mc_table::pair_key(a, b);
        if let Some(db) = self.parent_db {
            let hit = db.with(key, |cells| {
                let pm = db.attrs().len();
                let mut overlap = 0u64;
                for &si in &self.parent_slots {
                    for &sj in &self.parent_slots {
                        overlap += cells[si * pm + sj] as u64;
                    }
                }
                let sub: Option<Arc<[u32]>> = self.own_db.map(|_| {
                    // Project the parent's sub-matrix so our own subtree
                    // can reuse it too.
                    let m = self.my_attrs.len();
                    let mut sub = vec![0u32; m * m];
                    for (i, &si) in self.parent_slots.iter().enumerate() {
                        for (j, &sj) in self.parent_slots.iter().enumerate() {
                            sub[i * m + j] = cells[si * pm + sj];
                        }
                    }
                    sub.into()
                });
                (overlap, sub)
            });
            if let Some((overlap, sub)) = hit {
                self.hits.set(self.hits.get() + 1);
                // Clamp: the decomposed sum may exceed the merged multiset
                // intersection when a token repeats across attributes.
                let overlap = (overlap as usize).min(ra.len()).min(rb.len());
                if let (Some(own), Some(sub)) = (self.own_db, sub) {
                    own.insert(key, sub);
                }
                return ScoreOutcome::Cached(self.measure.from_overlap(
                    overlap,
                    ra.len(),
                    rb.len(),
                ));
            }
        }
        self.misses.set(self.misses.get() + 1);
        // The prelude score cache is consulted before the writer branch:
        // writer roots (the common case when reuse is engaged) would
        // otherwise never reach it and re-merge every prelude-scored
        // pair. A cached pair skips the cell computation too — its cells
        // are simply absent from the writer's DB, which is safe (children
        // miss and recompute exactly) and deterministic (the cache's
        // contents are fixed by the prelude join before this run starts,
        // so the subtree's hit/miss pattern still does not depend on any
        // transient top-k threshold).
        if let Some(cache) = self.score_cache {
            if let Some(s) = cache.get(key) {
                return ScoreOutcome::Cached(s);
            }
        }
        if let Some(own) = self.own_db {
            // A writer computes the full cell matrix for every fresh pair
            // regardless of the gate — its subtree's hit/miss pattern
            // (and with it each child's exact score path) must not depend
            // on this config's transient top-k threshold. The fused merge
            // hands back the exact merged overlap for free, so the score
            // costs nothing extra on top of the cells.
            let mut scratch = self.cells_scratch.borrow_mut();
            let overlap = compute_cells_merged(
                &mut scratch,
                &self.my_attrs,
                self.tok_a,
                self.tok_b,
                a,
                b,
                ra,
                rb,
            );
            own.insert(key, scratch.cells.as_slice().into());
            return ScoreOutcome::Scored(self.measure.from_overlap(overlap, ra.len(), rb.len()));
        }
        // Same kernel as `SetMeasure::score_above`, with the required
        // overlap served from the per-gate memo (bit-identical boundary;
        // see `required_overlap_keyed`).
        let o_min = self
            .bound_memo
            .borrow_mut()
            .required(self.measure, gate, ra.len(), rb.len());
        match overlap_with_bound(ra, rb, o_min) {
            Some(o) => ScoreOutcome::Scored(self.measure.from_overlap(o, ra.len(), rb.len())),
            None => ScoreOutcome::Refuted,
        }
    }
}

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
    /// Worker threads. `Default` resolves to the machine's available
    /// parallelism; [`run_joint`] still tolerates an explicit 0 as "all
    /// cores", but `DebuggerParams::validate` rejects it.
    pub threads: usize,
    /// Enable the overlap database `H`.
    pub reuse_overlaps: bool,
    /// Enable parent→child top-k list seeding.
    pub reuse_topk: bool,
    /// Minimum average merged record length (tokens) for overlap reuse to
    /// engage (the paper's `t = 20`).
    pub reuse_min_avg_tokens: f64,
}

impl Default for JointParams {
    fn default() -> Self {
        JointParams {
            k: 1000,
            measure: SetMeasure::Jaccard,
            q: QStrategy::Fixed(1),
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
            reuse_overlaps: true,
            reuse_topk: true,
            reuse_min_avg_tokens: 20.0,
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
    /// Overlap-database reuse hits (scores computed from `H`).
    pub reuse_hits: usize,
    /// Fresh score computations.
    pub reuse_misses: usize,
    /// The q actually used.
    pub q_used: usize,
}

/// Resolves the requested worker-thread count against the machine and
/// the number of configs.
fn resolve_threads(requested: usize, n_configs: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(4, |p| p.get())
    } else {
        requested
    }
    .min(n_configs)
    .max(1)
}

/// Materializes both sides' flat record arenas for every config, in
/// parallel, so workers share them by reference (no per-worker clones).
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
    let slots: Vec<OnceLock<(RecordArena, RecordArena)>> =
        (0..configs.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let obs = mc_obs::ObsContext::current();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(configs.len()).max(1) {
            scope.spawn(|| {
                let _obs = obs.attach();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= configs.len() {
                        break;
                    }
                    let idx = configs[i].positions();
                    let pair = (
                        RecordArena::from_tokenized(tok_a, &idx),
                        RecordArena::from_tokenized(tok_b, &idx),
                    );
                    slots[i].set(pair).expect("each slot filled once");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("all arenas built"))
        .collect()
}

/// Runs one top-k join per config of the tree, jointly.
///
/// `tok_a`/`tok_b` are the promising-attribute tokenizations (shared rank
/// space); `killed` is the blocker output `C`. Builds the per-config
/// record arenas itself; warm-start callers that restored arenas from an
/// artifact store should use [`run_joint_with_arenas`] instead.
pub fn run_joint(
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    killed: &PairSet,
    tree: &ConfigTree,
    params: JointParams,
) -> JointOutput {
    let configs = tree.configs();
    let threads = resolve_threads(params.threads, configs.len());
    let arenas = build_arenas(tok_a, tok_b, &configs, threads);
    run_joint_with_arenas(tok_a, tok_b, killed, tree, params, &arenas)
}

/// Runs the joint execution over pre-built per-config record arenas
/// (`arenas[i]` = `(side A, side B)` for config `i` in tree order, as
/// [`build_arenas`] produces them).
///
/// The output is bit-identical at every thread count (see the module
/// docs on determinism).
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

    // Decide reuse from data shape: average merged length of the root
    // config across both tables.
    let root = configs[0];
    let avg_len = {
        let idx = root.positions();
        let total_a: usize = (0..tok_a.rows() as TupleId)
            .map(|t| tok_a.merged_len(&idx, t))
            .sum();
        let total_b: usize = (0..tok_b.rows() as TupleId)
            .map(|t| tok_b.merged_len(&idx, t))
            .sum();
        (total_a + total_b) as f64 / (tok_a.rows() + tok_b.rows()).max(1) as f64
    };
    let reuse = params.reuse_overlaps && avg_len >= params.reuse_min_avg_tokens;

    // One overlap DB per writer (expanded) config.
    let mut dbs: Vec<Option<OverlapDb>> = (0..n).map(|_| None).collect();
    if reuse {
        for &w in &tree.writers() {
            dbs[w] = Some(OverlapDb::new(configs[w]));
        }
    }

    let threads = resolve_threads(params.threads, n);

    // q selection on the root config. With `Auto`, every prelude join
    // populates a pair → score cache over the root arenas; the root
    // config's main run consumes it (the preludes already paid for those
    // merges, and their scores are q-independent).
    let (root_a, root_b) = &arenas[0];
    let (q_used, score_cache) = match params.q {
        QStrategy::Fixed(q) => (q.max(1), None),
        QStrategy::Auto { max_q, prelude_k } => {
            let cache = ScoreCache::new();
            let q = select_q(
                SsjInstance {
                    records_a: root_a,
                    records_b: root_b,
                    killed,
                },
                params.measure,
                max_q,
                prelude_k,
                Some(&cache),
            );
            (q, Some(cache))
        }
    };

    // A config's final sorted entries, set exactly once when its join
    // completes. Children *wait* on their parent's slot (when any reuse
    // is engaged) rather than peeking, which is what makes the output
    // schedule-independent — see the module docs.
    let finished: Vec<OnceLock<Vec<(f64, u64)>>> = (0..n).map(|_| OnceLock::new()).collect();
    let lists: Vec<Mutex<Option<TopKList>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(0);

    mc_obs::gauge!("mc.core.joint.workers").set(threads as i64);
    mc_obs::gauge!("mc.core.joint.q_used").set(q_used as i64);
    let obs = mc_obs::ObsContext::current();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _obs = obs.attach();
                // Per-thread work statistics, flushed when the worker
                // retires. The join scratch is reused across every config
                // this worker processes, so steady state allocates
                // nothing.
                let mut my_configs = 0u64;
                let mut my_seeded = 0u64;
                let mut scratch = JoinScratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let _config_span = mc_obs::span!("mc.core.joint.config", i as u64);
                    my_configs += 1;
                    let config = configs[i];
                    let (records_a, records_b) = &arenas[i];
                    let parent = tree.parent(i);
                    let parent_db = parent.and_then(|p| dbs[p].as_ref());
                    // Determinism gate: before consulting any parent
                    // state (overlap DB or top-k seed), block until the
                    // parent config has fully finished. Its DB is
                    // populated strictly before its `finished` slot is
                    // set, so after the wait every read is against
                    // complete, frozen state.
                    let parent_final: Option<&Vec<(f64, u64)>> = match parent {
                        Some(p) if params.reuse_topk || parent_db.is_some() => {
                            Some(finished[p].wait())
                        }
                        _ => None,
                    };
                    let parent_slots = parent_db.map_or_else(Vec::new, |db| {
                        config
                            .positions()
                            .iter()
                            .map(|f| {
                                db.attrs()
                                    .iter()
                                    .position(|a| a == f)
                                    .expect("child ⊆ parent")
                            })
                            .collect()
                    });
                    let scorer = ReuseScorer {
                        measure: params.measure,
                        parent_db,
                        parent_slots,
                        own_db: dbs[i].as_ref(),
                        // The prelude cache is keyed on the *root* arenas,
                        // so only the root config may consume it.
                        score_cache: if i == 0 { score_cache.as_ref() } else { None },
                        my_attrs: config.positions(),
                        tok_a,
                        tok_b,
                        hits: Cell::new(0),
                        misses: Cell::new(0),
                        cells_scratch: RefCell::new(CellsScratch::default()),
                        bound_memo: RefCell::new(BoundMemo::default()),
                    };
                    // Top-k seeding: adopt the parent's finished list,
                    // re-scored under this config.
                    let seed: Vec<(f64, u64)> = if params.reuse_topk {
                        parent_final
                            .map(|entries| {
                                entries
                                    .iter()
                                    .map(|&(_, key)| {
                                        let (a, b) = split_pair_key(key);
                                        let s = scorer.score(
                                            a,
                                            b,
                                            records_a.record(a),
                                            records_b.record(b),
                                        );
                                        (s, key)
                                    })
                                    .collect()
                            })
                            .unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    my_seeded += seed.len() as u64;
                    let inst = SsjInstance {
                        records_a,
                        records_b,
                        killed,
                    };
                    let ssj_params = SsjParams {
                        k: params.k,
                        q: q_used,
                        measure: params.measure,
                    };
                    let list = topk_join_with_scratch(
                        inst,
                        ssj_params,
                        &scorer,
                        &seed,
                        None,
                        &mut scratch,
                    );
                    hits.fetch_add(scorer.hits.get(), Ordering::Relaxed);
                    misses.fetch_add(scorer.misses.get(), Ordering::Relaxed);
                    finished[i]
                        .set(list.sorted_entries())
                        .expect("each config finishes exactly once");
                    *lists[i].lock() = Some(list);
                }
                mc_obs::counter!("mc.core.joint.configs_executed").add(my_configs);
                mc_obs::counter!("mc.core.joint.seeded_pairs").add(my_seeded);
                mc_obs::histogram!("mc.core.joint.configs_per_thread").record(my_configs);
            });
        }
    });
    mc_obs::counter!("mc.core.joint.reuse_hits").add(hits.load(Ordering::Relaxed) as u64);
    mc_obs::counter!("mc.core.joint.reuse_misses").add(misses.load(Ordering::Relaxed) as u64);

    JointOutput {
        configs,
        lists: lists
            .into_iter()
            .map(|m| m.into_inner().expect("all configs ran"))
            .collect(),
        reuse_hits: hits.into_inner(),
        reuse_misses: misses.into_inner(),
        q_used,
    }
}

/// Baseline for the §6.5 ablation: each config executed independently
/// (no overlap DB, no list seeding) on a single thread with the exact
/// scorer.
pub fn run_individual(
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    killed: &PairSet,
    tree: &ConfigTree,
    k: usize,
    measure: SetMeasure,
) -> JointOutput {
    let _span = mc_obs::span!("mc.core.joint.run_individual");
    let configs = tree.configs();
    let scorer = ExactScorer(measure);
    let mut scratch = JoinScratch::new();
    let lists: Vec<TopKList> = configs
        .iter()
        .map(|&config| {
            let idx = config.positions();
            let records_a = RecordArena::from_tokenized(tok_a, &idx);
            let records_b = RecordArena::from_tokenized(tok_b, &idx);
            topk_join_with_scratch(
                SsjInstance {
                    records_a: &records_a,
                    records_b: &records_b,
                    killed,
                },
                SsjParams { k, q: 1, measure },
                &scorer,
                &[],
                None,
                &mut scratch,
            )
        })
        .collect();
    JointOutput {
        configs,
        lists,
        reuse_hits: 0,
        reuse_misses: 0,
        q_used: 1,
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
    use crate::config::{ConfigGenerator, ConfigGeneratorParams, PromisingAttrs};
    use mc_strsim::tokenize::Tokenizer;
    use mc_table::{AttrId, Schema, Table, Tuple};
    use std::sync::Arc as StdArc;

    /// Builds a small synthetic pair of tables with 3 promising attrs and
    /// *disjoint per-attribute vocabularies* (so decomposed == exact).
    fn fixture() -> (Table, Table) {
        let schema = StdArc::new(Schema::from_names(["x", "y", "z"]));
        let mut a = Table::new("A", StdArc::clone(&schema));
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

    #[test]
    fn joint_equals_individual_lists() {
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        let killed = PairSet::new();
        let joint = run_joint(
            &ta,
            &tb,
            &killed,
            &tree,
            JointParams {
                k: 20,
                threads: 1,
                reuse_min_avg_tokens: 0.0, // force reuse on
                ..Default::default()
            },
        );
        let indiv = run_individual(&ta, &tb, &killed, &tree, 20, SetMeasure::Jaccard);
        assert_eq!(joint.lists.len(), indiv.lists.len());
        for (c, (jl, il)) in joint.lists.iter().zip(&indiv.lists).enumerate() {
            let js = jl.sorted_scores();
            let is = il.sorted_scores();
            assert_eq!(js.len(), is.len(), "config {c}");
            for (x, y) in js.iter().zip(&is) {
                assert!((x - y).abs() < 1e-9, "config {c}: {x} vs {y}");
            }
        }
        assert!(joint.reuse_hits > 0, "reuse should fire on the subtree");
    }

    #[test]
    fn joint_without_reuse_matches_too() {
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        let killed = PairSet::new();
        let joint = run_joint(
            &ta,
            &tb,
            &killed,
            &tree,
            JointParams {
                k: 15,
                threads: 2,
                reuse_overlaps: false,
                reuse_topk: false,
                ..Default::default()
            },
        );
        let indiv = run_individual(&ta, &tb, &killed, &tree, 15, SetMeasure::Jaccard);
        for (jl, il) in joint.lists.iter().zip(&indiv.lists) {
            assert_eq!(jl.sorted_scores(), il.sorted_scores());
        }
        assert_eq!(joint.reuse_hits, 0);
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
        // Parent-gated reuse plus deterministic q selection make the
        // output *bit-identical* across worker counts: same q, same
        // pairs, same f64 score bits — with every reuse mechanism on
        // and q chosen empirically.
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
                        reuse_min_avg_tokens: 0.0,
                        ..Default::default()
                    },
                );
                let lists: Vec<Vec<(u64, u64)>> = out
                    .lists
                    .iter()
                    .map(|l| {
                        l.sorted_entries()
                            .into_iter()
                            .map(|(s, key)| (s.to_bits(), key))
                            .collect()
                    })
                    .collect();
                (out.q_used, lists)
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
    fn overlap_db_roundtrip() {
        let db = OverlapDb::new(Config::from_positions([0, 2]));
        assert_eq!(db.attrs(), &[0, 2]);
        assert!(db.is_empty());
        let cells: Arc<[u32]> = vec![1, 2, 3, 4].into();
        db.insert(42, Arc::clone(&cells));
        assert_eq!(db.get(42).as_deref(), Some(&[1u32, 2, 3, 4][..]));
        // Insert-only: second write is ignored.
        db.insert(42, vec![9, 9, 9, 9].into());
        assert_eq!(db.get(42).as_deref(), Some(&[1u32, 2, 3, 4][..]));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(7), None);
    }

    #[test]
    fn overlap_db_concurrent_insert_get() {
        // 8 threads hammer the same key range; insert-only semantics mean
        // whoever wins a key, every reader sees the same (key-derived)
        // value, and the map never tears or loses entries.
        let db = OverlapDb::new(Config::from_positions([0]));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..500u64 {
                        db.insert(i, vec![i as u32].into());
                        let got = db.get(i).expect("key just inserted");
                        assert_eq!(got.as_ref(), &[i as u32]);
                    }
                });
            }
        });
        assert_eq!(db.len(), 500);
        let (hits, misses, inserts) = db.stats();
        assert_eq!(hits, 8 * 500, "every get after insert must hit");
        assert_eq!(misses, 0);
        assert_eq!(inserts, 500, "first writer wins exactly once per key");
    }

    #[test]
    fn overlap_db_counters_match_independent_count() {
        // Replay a deterministic workload against a plain HashSet model
        // and check the db's hit/miss/insert counters agree exactly.
        let db = OverlapDb::new(Config::from_positions([0]));
        let mut model = std::collections::HashSet::new();
        let (mut hits, mut misses, mut inserts) = (0u64, 0u64, 0u64);
        for i in 0..200u64 {
            let key = (i * 7) % 40;
            if model.contains(&key) {
                hits += 1;
            } else {
                misses += 1;
            }
            let _ = db.get(key);
            if model.insert(key) {
                inserts += 1;
            }
            db.insert(key, vec![key as u32].into());
        }
        assert_eq!(db.stats(), (hits, misses, inserts));
        assert_eq!(db.len(), model.len());
    }

    #[test]
    fn pair_keys_never_alias_distinct_pairs() {
        // `pair_key` packs (a, b) losslessly into 32+32 bits, so
        // `split_pair_key` inverts it exactly and two distinct pairs can
        // never collide on the same OverlapDb key — only on the same
        // *shard*, which must still keep them separate.
        use mc_table::pair_key;
        for a in [0u32, 1, 7, 12345, u32::MAX] {
            for b in [0u32, 2, 9, 54321, u32::MAX] {
                assert_eq!(split_pair_key(pair_key(a, b)), (a, b));
            }
        }
        assert_ne!(pair_key(1, 2), pair_key(2, 1), "order matters");
        let db = OverlapDb::new(Config::from_positions([0]));
        // DB_SHARDS = 64, so keys 0 and 64·n land wherever the hash sends
        // them; insert far more keys than shards to force co-residency.
        for k in 0..256u64 {
            db.insert(k, vec![k as u32].into());
        }
        for k in 0..256u64 {
            assert_eq!(db.get(k).unwrap().as_ref(), &[k as u32]);
        }
        assert_eq!(db.len(), 256);
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

    #[test]
    fn fused_cells_match_reference_and_exact_overlap() {
        // Cross-attribute token repeats included ("p" and "t" appear in
        // both attributes of one tuple) — the fused pass must agree with
        // the reference m×m merges cell-for-cell, and its overlap must
        // equal the merged records' exact multiset overlap.
        let schema = StdArc::new(Schema::from_names(["u", "v"]));
        let mut a = Table::new("A", StdArc::clone(&schema));
        a.push(Tuple::from_present(["p q r p", "s t p"]));
        a.push(Tuple::from_present(["q", "q q t"]));
        let mut b = Table::new("B", schema);
        b.push(Tuple::from_present(["p q t", "t u v p"]));
        b.push(Tuple::from_present(["", "q t"]));
        let attrs = [AttrId(0), AttrId(1)];
        let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let all = [0usize, 1];
        for x in 0..2u32 {
            for y in 0..2u32 {
                let ra = ta.merged(&all, x);
                let rb = tb.merged(&all, y);
                let mut scratch = CellsScratch::default();
                let reference = compute_cells(&all, &ta, &tb, x, y);
                let o = compute_cells_merged(&mut scratch, &all, &ta, &tb, x, y, &ra, &rb);
                assert_eq!(&scratch.cells[..], &reference[..], "pair ({x},{y})");
                assert_eq!(o, multiset_overlap(&ra, &rb), "pair ({x},{y})");
                // Single-attribute fast path against its own reference
                // (same scratch, exercising buffer reuse across pairs).
                for sub in [[0usize], [1usize]] {
                    let ra1 = ta.merged(&sub, x);
                    let rb1 = tb.merged(&sub, y);
                    let r1 = compute_cells(&sub, &ta, &tb, x, y);
                    let o1 = compute_cells_merged(&mut scratch, &sub, &ta, &tb, x, y, &ra1, &rb1);
                    assert_eq!(&scratch.cells[..], &r1[..]);
                    assert_eq!(o1, multiset_overlap(&ra1, &rb1));
                }
            }
        }
    }

    #[test]
    fn compute_cells_matches_direct_overlap() {
        let schema = StdArc::new(Schema::from_names(["u", "v"]));
        let mut a = Table::new("A", StdArc::clone(&schema));
        a.push(Tuple::from_present(["p q r", "s t"]));
        let mut b = Table::new("B", schema);
        b.push(Tuple::from_present(["p q", "t u v"]));
        let attrs = [AttrId(0), AttrId(1)];
        let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let cells = compute_cells(&[0, 1], &ta, &tb, 0, 0);
        // o(u,u)=2 (p,q), o(u,v)=0, o(v,u)=0, o(v,v)=1 (t)
        assert_eq!(&cells[..], &[2, 0, 0, 1]);
        let _ = PromisingAttrs {
            attrs: attrs.to_vec(),
            e_scores: vec![1.0, 1.0],
            avg_tokens_a: vec![3.0, 2.0],
            avg_tokens_b: vec![2.0, 3.0],
        };
    }
}
