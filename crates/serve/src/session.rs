//! Resident debug sessions: open/rerun/page/label/metrics/close over a
//! [`matchcatcher::DebugSession`] per client session.
//!
//! Lifecycle: `open` runs the pipeline cold (publishing its candidate
//! union when a store root is configured) and parks the live session;
//! every later verb is a delta operation against that resident state.
//! Sessions serialize on their own mutex — two requests to the
//! *same* session queue behind each other, requests to different
//! sessions run concurrently — and the manager's map lock is never held
//! across pipeline work.
//!
//! Eviction: the manager tracks an estimated resident footprint per
//! session ([`matchcatcher::DebugSession::resident_bytes`]). When the
//! session count exceeds `max_sessions` or the summed footprint exceeds
//! `max_resident_bytes`, least-recently-used sessions are dropped. An
//! evicted id leaves a tombstone so later requests get the precise
//! `session_evicted` error (re-open and replay) rather than the
//! `unknown_session` they would get for an id that never existed.

use crate::proto::{
    explain_item_json, explanation_json, ok_response, pairs_json, pervade_group_json,
    report_summary, ErrorCode, OpenParams, ReqDelta, ReqKilled, Request, TableSource,
    EXPLAIN_VERSION, PROTO_VERSION,
};
use matchcatcher::joint::QStrategy;
use matchcatcher::{DebugReport, DebugSession, DebuggerParams, MatchCatcher, Oracle};
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::{JsonValue, ObsContext};
use mc_store::StoreConfig;
use mc_table::{pair_key, AttrId, GoldMatches, PairSet, Schema, Table, TableDelta, Tuple, TupleId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A request outcome: payload members for the `ok` envelope, or a
/// structured error.
pub type VerbResult = Result<Vec<(String, JsonValue)>, (ErrorCode, String)>;

/// The oracle backing a served session: gold matches (when the source
/// provides them) overlaid by labels the client sent via the `label`
/// verb. Overrides win — a user correction sticks across reruns.
struct SessionOracle {
    gold: GoldMatches,
    overrides: HashMap<u64, bool>,
    labels: usize,
}

impl Oracle for SessionOracle {
    fn is_match(&mut self, a: TupleId, b: TupleId) -> bool {
        self.labels += 1;
        match self.overrides.get(&pair_key(a, b)) {
            Some(&v) => v,
            None => self.gold.is_match(a, b),
        }
    }

    fn labels_given(&self) -> usize {
        self.labels
    }
}

/// Everything a verb needs exclusive access to.
struct SessionInner {
    session: DebugSession,
    oracle: SessionOracle,
    last: DebugReport,
    reruns: u64,
}

/// One resident session.
struct Slot {
    id: u64,
    /// The session's own metrics scope: attached around every pipeline
    /// call, so `metrics` returns exactly this session's activity.
    obs: ObsContext,
    inner: Mutex<SessionInner>,
    /// LRU clock value at last touch.
    last_used: AtomicU64,
    /// Estimated resident footprint, refreshed after open/rerun.
    resident: AtomicUsize,
}

/// Owns every resident session; shared by all worker threads.
pub struct SessionManager {
    max_sessions: usize,
    max_resident_bytes: usize,
    store_root: Option<PathBuf>,
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Ids removed by eviction (not by `close`), for precise errors.
    evicted: Mutex<HashSet<u64>>,
    next_id: AtomicU64,
    clock: AtomicU64,
}

impl SessionManager {
    /// A manager enforcing the given budgets.
    pub fn new(
        max_sessions: usize,
        max_resident_bytes: usize,
        store_root: Option<PathBuf>,
    ) -> Self {
        SessionManager {
            max_sessions,
            max_resident_bytes,
            store_root,
            slots: Mutex::new(HashMap::new()),
            evicted: Mutex::new(HashSet::new()),
            next_id: AtomicU64::new(1),
            clock: AtomicU64::new(1),
        }
    }

    /// Executes one parsed request (everything but `shutdown`, which is
    /// the server's concern) and builds the response frame.
    pub fn execute(&self, req: &Request) -> JsonValue {
        let verb = req.verb();
        let result = match req {
            Request::Open { source, params } => self.open(source, *params),
            Request::Rerun {
                session,
                delta_a,
                delta_b,
                killed,
            } => self.rerun(*session, delta_a.as_ref(), delta_b.as_ref(), killed),
            Request::Page {
                session,
                offset,
                limit,
            } => self.page(*session, *offset, *limit),
            Request::Label {
                session,
                a,
                b,
                is_match,
            } => self.label(*session, *a, *b, *is_match),
            Request::Explain {
                session,
                offset,
                limit,
            } => self.explain(*session, *offset, *limit),
            Request::Pervade { session, limit } => self.pervade(*session, *limit),
            Request::Gc { max_bytes } => self.gc(*max_bytes),
            Request::Metrics { session } => self.metrics(*session),
            Request::Close { session } => self.close(*session),
            Request::Shutdown => Err((
                ErrorCode::BadRequest,
                "shutdown is handled by the server, not a session".into(),
            )),
        };
        match result {
            Ok(payload) => ok_response(verb, payload),
            Err((code, message)) => {
                mc_obs::counter!("mc.serve.errors").inc();
                crate::proto::error_response(verb, code, &message)
            }
        }
    }

    /// Number of resident sessions.
    pub fn resident_sessions(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Summed estimated footprint of resident sessions, in bytes.
    pub fn resident_bytes(&self) -> usize {
        let slots = self.slots.lock().unwrap();
        slots
            .values()
            .map(|s| s.resident.load(Ordering::Relaxed))
            .sum()
    }

    fn touch(&self, slot: &Slot) {
        slot.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    fn slot(&self, id: u64) -> Result<Arc<Slot>, (ErrorCode, String)> {
        if let Some(slot) = self.slots.lock().unwrap().get(&id) {
            self.touch(slot);
            return Ok(Arc::clone(slot));
        }
        if self.evicted.lock().unwrap().contains(&id) {
            Err((
                ErrorCode::SessionEvicted,
                format!("session {id} was evicted (LRU / resident-byte budget); re-open it"),
            ))
        } else {
            Err((ErrorCode::UnknownSession, format!("no session {id}")))
        }
    }

    /// Locks a slot's state, converting a poisoned mutex (a panic during
    /// an earlier request left the session unusable) into an eviction.
    fn lock_inner<'s>(
        &self,
        slot: &'s Slot,
    ) -> Result<std::sync::MutexGuard<'s, SessionInner>, (ErrorCode, String)> {
        match slot.inner.lock() {
            Ok(g) => Ok(g),
            Err(_) => {
                self.slots.lock().unwrap().remove(&slot.id);
                self.evicted.lock().unwrap().insert(slot.id);
                Err((
                    ErrorCode::Internal,
                    format!(
                        "session {} is poisoned by a panic in an earlier request and has \
                         been discarded; re-open it",
                        slot.id
                    ),
                ))
            }
        }
    }

    /// Evicts LRU sessions until count and byte budgets hold. Never
    /// evicts `keep` (the session being served right now).
    fn enforce_budgets(&self, keep: u64) {
        loop {
            let victim = {
                let slots = self.slots.lock().unwrap();
                let total: usize = slots
                    .values()
                    .map(|s| s.resident.load(Ordering::Relaxed))
                    .sum();
                if slots.len() <= self.max_sessions && total <= self.max_resident_bytes {
                    return;
                }
                let lru = slots
                    .values()
                    .filter(|s| s.id != keep)
                    .min_by_key(|s| s.last_used.load(Ordering::Relaxed))
                    .map(|s| s.id);
                match lru {
                    Some(id) => id,
                    // Only the protected session is resident: over budget
                    // but nothing evictable.
                    None => return,
                }
            };
            let removed = self.slots.lock().unwrap().remove(&victim);
            if removed.is_some() {
                self.evicted.lock().unwrap().insert(victim);
                mc_obs::counter!("mc.serve.sessions.evicted").inc();
            }
        }
    }

    fn open(&self, source: &TableSource, overrides: OpenParams) -> VerbResult {
        let (a, b, killed, gold) = build_source(source)?;
        if a.is_empty() || b.is_empty() {
            return Err((
                ErrorCode::BadRequest,
                "empty table handle: both tables need at least one row".into(),
            ));
        }
        let mut params = DebuggerParams::small();
        if let Some(k) = overrides.k {
            params.joint.k = k;
        }
        params.joint.q = QStrategy::Fixed(overrides.q.unwrap_or(1));
        if let Some(m) = overrides.margin {
            params.incr.margin = m;
        }
        if let Some(t) = overrides.threads {
            params.joint.threads = t;
        }
        if let Some(n) = overrides.n_per_iter {
            params.verifier.n_per_iter = n;
        }
        let obs = ObsContext::session();
        params.obs = obs.clone();
        params.store = self.store_root.as_ref().map(StoreConfig::at);
        params
            .validate()
            .map_err(|e| (ErrorCode::BadRequest, format!("invalid params: {e}")))?;

        let mut oracle = SessionOracle {
            gold,
            overrides: HashMap::new(),
            labels: 0,
        };
        let catcher = MatchCatcher::new(params);
        let (session, report) = run_guarded(|| catcher.start_session(a, b, killed, &mut oracle))?;

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let resident = session.resident_bytes();
        let slot = Arc::new(Slot {
            id,
            obs,
            last_used: AtomicU64::new(0),
            resident: AtomicUsize::new(resident),
            inner: Mutex::new(SessionInner {
                session,
                oracle,
                last: report,
                reruns: 0,
            }),
        });
        self.touch(&slot);
        let summary = report_summary(&slot.inner.lock().unwrap().last);
        self.slots.lock().unwrap().insert(id, slot);
        mc_obs::counter!("mc.serve.sessions.opened").inc();
        self.enforce_budgets(id);
        Ok(vec![
            ("proto".into(), PROTO_VERSION.into()),
            ("session".into(), id.into()),
            ("resident_bytes".into(), resident.into()),
            ("report".into(), summary),
        ])
    }

    fn rerun(
        &self,
        id: u64,
        delta_a: Option<&ReqDelta>,
        delta_b: Option<&ReqDelta>,
        killed: &ReqKilled,
    ) -> VerbResult {
        for delta in [delta_a, delta_b].into_iter().flatten() {
            if let ReqDelta::Scripted { frac, .. } = delta {
                if !(0.0..=1.0).contains(frac) {
                    return Err((
                        ErrorCode::BadRequest,
                        format!("scripted delta frac {frac} out of [0, 1]"),
                    ));
                }
            }
        }
        let slot = self.slot(id)?;
        let mut inner = self.lock_inner(&slot)?;
        if let ReqKilled::Perturb { kills, .. } = killed {
            // The perturbed set is sized for every current pair plus
            // `kills` fresh ones, 8 bytes per pair key.
            let bytes = inner
                .session
                .killed()
                .len()
                .saturating_add(*kills)
                .saturating_mul(8);
            if bytes > self.max_resident_bytes {
                return Err((
                    ErrorCode::BadRequest,
                    format!(
                        "perturb_killed kills {kills}: the killed set would need {bytes} \
                         bytes, over the daemon's resident budget of {}",
                        self.max_resident_bytes
                    ),
                ));
            }
        }
        let da = materialize(delta_a, inner.session.table_a(), 0x0a);
        let db = materialize(delta_b, inner.session.table_b(), 0x0b);
        let new_killed = match killed {
            ReqKilled::Keep => None,
            ReqKilled::Replace(pairs) => Some(pairs.iter().copied().collect::<PairSet>()),
            ReqKilled::Perturb {
                unkill_rate,
                kills,
                seed,
            } => {
                let n_a = inner.session.table_a().len() as u32;
                let n_b = inner.session.table_b().len() as u32;
                Some(mc_datagen::delta::perturb_killed(
                    inner.session.killed(),
                    n_a,
                    n_b,
                    *unkill_rate,
                    *kills,
                    &mut StdRng::seed_from_u64(*seed),
                ))
            }
        };
        let inner = &mut *inner;
        let report = run_guarded(|| inner.session.rerun(&da, &db, new_killed, &mut inner.oracle))?
            .map_err(|e| (ErrorCode::BadRequest, format!("invalid delta: {e}")))?;
        inner.last = report;
        inner.reruns += 1;
        let resident = inner.session.resident_bytes();
        slot.resident.store(resident, Ordering::Relaxed);
        let summary = report_summary(&inner.last);
        let reruns = inner.reruns;
        mc_obs::counter!("mc.serve.reruns").inc();
        self.enforce_budgets(id);
        Ok(vec![
            ("session".into(), id.into()),
            ("rerun".into(), reruns.into()),
            ("resident_bytes".into(), resident.into()),
            ("report".into(), summary),
        ])
    }

    fn page(&self, id: u64, offset: usize, limit: usize) -> VerbResult {
        let slot = self.slot(id)?;
        let inner = self.lock_inner(&slot)?;
        let total = inner.last.explanations.len();
        let schema = inner.session.table_a().schema().as_ref();
        let items: Vec<JsonValue> = inner
            .last
            .explanations
            .iter()
            .skip(offset)
            .take(limit)
            .map(|exp| explanation_json(exp, schema))
            .collect();
        Ok(vec![
            ("session".into(), id.into()),
            ("total".into(), total.into()),
            ("offset".into(), offset.into()),
            ("items".into(), JsonValue::Arr(items)),
        ])
    }

    /// Pages the batch explain output in `mc-explain/v1`: per-attribute
    /// diagnoses plus per-config score contributions and threshold gap.
    fn explain(&self, id: u64, offset: usize, limit: usize) -> VerbResult {
        let slot = self.slot(id)?;
        let inner = self.lock_inner(&slot)?;
        let total = inner.last.explanations.len();
        let schema = inner.session.table_a().schema().as_ref();
        let items: Vec<JsonValue> = (offset..total.min(offset.saturating_add(limit)))
            .map(|i| explain_item_json(&inner.last, i, schema))
            .collect();
        mc_obs::counter!("mc.serve.explains").inc();
        Ok(vec![
            ("session".into(), id.into()),
            ("schema".into(), EXPLAIN_VERSION.into()),
            ("total".into(), total.into()),
            ("offset".into(), offset.into()),
            ("items".into(), JsonValue::Arr(items)),
        ])
    }

    /// Returns the pervasiveness aggregates: problem signatures over the
    /// full candidate union, each with its candidate-pair population and
    /// "kills N confirmed matches" count.
    fn pervade(&self, id: u64, limit: usize) -> VerbResult {
        let slot = self.slot(id)?;
        let inner = self.lock_inner(&slot)?;
        let schema = inner.session.table_a().schema().as_ref();
        let total = inner.last.pervasive.len();
        let groups: Vec<JsonValue> = inner
            .last
            .pervasive
            .iter()
            .take(limit)
            .map(|g| pervade_group_json(g, schema))
            .collect();
        mc_obs::counter!("mc.serve.pervades").inc();
        Ok(vec![
            ("session".into(), id.into()),
            ("schema".into(), EXPLAIN_VERSION.into()),
            ("union_size".into(), inner.last.e_size.into()),
            ("total".into(), total.into()),
            ("groups".into(), JsonValue::Arr(groups)),
        ])
    }

    /// Runs [`mc_store::Store::gc`] on the shared warm tier backing this
    /// daemon. Errors with `bad_request` when the daemon was started
    /// without a store root.
    fn gc(&self, max_bytes: u64) -> VerbResult {
        let root = self.store_root.as_ref().ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "no store configured: start the daemon with a store root to gc".into(),
            )
        })?;
        let store = mc_store::Store::open(&StoreConfig::at(root))
            .map_err(|e| (ErrorCode::Internal, format!("store open failed: {e}")))?;
        let report = store.gc(max_bytes);
        mc_obs::counter!("mc.serve.gcs").inc();
        Ok(vec![
            ("removed_files".into(), report.removed_files.into()),
            ("removed_bytes".into(), report.removed_bytes.into()),
            ("removed_tmp".into(), report.removed_tmp.into()),
            ("kept_bytes".into(), report.kept_bytes.into()),
        ])
    }

    fn label(&self, id: u64, a: TupleId, b: TupleId, is_match: bool) -> VerbResult {
        let slot = self.slot(id)?;
        let mut inner = self.lock_inner(&slot)?;
        inner.oracle.overrides.insert(pair_key(a, b), is_match);
        mc_obs::counter!("mc.serve.labels").inc();
        Ok(vec![
            ("session".into(), id.into()),
            ("pair".into(), pairs_json([(a, b)])),
            ("overrides".into(), inner.oracle.overrides.len().into()),
        ])
    }

    fn metrics(&self, id: u64) -> VerbResult {
        let slot = self.slot(id)?;
        let text = slot.obs.snapshot().to_json();
        let parsed = JsonValue::parse(&text)
            .map_err(|e| (ErrorCode::Internal, format!("snapshot did not parse: {e}")))?;
        Ok(vec![
            ("session".into(), id.into()),
            ("metrics".into(), parsed),
        ])
    }

    fn close(&self, id: u64) -> VerbResult {
        let removed = self.slots.lock().unwrap().remove(&id);
        match removed {
            Some(_) => {
                mc_obs::counter!("mc.serve.sessions.closed").inc();
                Ok(vec![
                    ("session".into(), id.into()),
                    ("closed".into(), true.into()),
                ])
            }
            None => self
                .slot(id)
                .map(|_| unreachable!("slot() must fail for a removed id")),
        }
    }
}

/// Runs pipeline work, converting a panic (invalid tables, internal
/// bugs) into a structured `internal` error instead of killing the
/// worker thread.
fn run_guarded<T>(f: impl FnOnce() -> T) -> Result<T, (ErrorCode, String)> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "pipeline panicked".into());
        mc_obs::counter!("mc.serve.panics").inc();
        (ErrorCode::Internal, msg)
    })
}

/// Turns a wire delta into a concrete [`TableDelta`] against the
/// session's current table. `salt` decorrelates the A- and B-side RNG
/// streams when a load script uses one seed for both.
fn materialize(delta: Option<&ReqDelta>, table: &Table, salt: u64) -> TableDelta {
    match delta {
        None => TableDelta::default(),
        Some(ReqDelta::Explicit(d)) => d.clone(),
        Some(ReqDelta::Scripted { frac, seed }) => {
            let spec = DeltaSpec::fraction_of(table.len(), *frac);
            random_delta(table, spec, &mut StdRng::seed_from_u64(seed ^ salt))
        }
    }
}

/// Builds tables + killed set + gold from an `open` source.
fn build_source(
    source: &TableSource,
) -> Result<(Table, Table, PairSet, GoldMatches), (ErrorCode, String)> {
    match source {
        TableSource::Profile {
            name,
            scale,
            seed,
            blocker_attr,
        } => {
            let profile = DatasetProfile::ALL
                .into_iter()
                .find(|p| p.name() == name)
                .ok_or_else(|| {
                    (
                        ErrorCode::BadRequest,
                        format!(
                            "unknown profile {name:?}; one of: {}",
                            DatasetProfile::ALL.map(|p| p.name()).join(", ")
                        ),
                    )
                })?;
            if !(*scale > 0.0 && *scale <= 100.0) {
                return Err((
                    ErrorCode::BadRequest,
                    format!("scale {scale} out of (0, 100]"),
                ));
            }
            let ds = run_guarded(|| profile.generate_scaled(*seed, *scale))?;
            if *blocker_attr as usize >= ds.a.schema().len() {
                return Err((
                    ErrorCode::BadRequest,
                    format!(
                        "blocker_attr {blocker_attr} out of range for {} attributes",
                        ds.a.schema().len()
                    ),
                ));
            }
            let blocker = Blocker::Hash(KeyFunc::Attr(AttrId(*blocker_attr)));
            let killed = blocker.apply(&ds.a, &ds.b);
            Ok((ds.a, ds.b, killed, ds.gold))
        }
        TableSource::Inline {
            schema,
            rows_a,
            rows_b,
            killed,
            gold,
        } => {
            if schema.is_empty() {
                return Err((ErrorCode::BadRequest, "empty schema".into()));
            }
            if rows_a.is_empty() || rows_b.is_empty() {
                return Err((
                    ErrorCode::BadRequest,
                    "empty table handle: both tables need at least one row".into(),
                ));
            }
            let shared = std::sync::Arc::new(Schema::from_names(schema.iter().cloned()));
            let build = |name: &str, rows: &[Vec<Option<String>>]| {
                let mut t = Table::new(name, std::sync::Arc::clone(&shared));
                for (i, row) in rows.iter().enumerate() {
                    if row.len() != schema.len() {
                        return Err((
                            ErrorCode::BadRequest,
                            format!(
                                "row {i} of {name} has {} values for {} attributes",
                                row.len(),
                                schema.len()
                            ),
                        ));
                    }
                    t.push(Tuple::new(row.clone()));
                }
                Ok(t)
            };
            let a = build("a", rows_a)?;
            let b = build("b", rows_b)?;
            Ok((
                a,
                b,
                killed.iter().copied().collect(),
                GoldMatches::from_pairs(gold.iter().copied()),
            ))
        }
    }
}
