//! End-to-end and per-layer benchmark of the MatchCatcher debugger.
//!
//! Three closed-loop workloads each alternate a **write** op class (the
//! tables change) with a **read** op class (the tables stay the same):
//!
//! * [`runs`] (`zipf-runs`): one-shot `MatchCatcher::run` against an
//!   artifact store; writes miss every artifact, reads are warm hits.
//! * [`session`] (`zipf-session`): one `DebugSession`; writes rerun
//!   with 1% table deltas, reads rerun with a perturbed killed set.
//! * [`serve`] (`products-serve`): an in-process `mcd` daemon driven by
//!   two client connections over TCP.
//!
//! Every latency is a median over one op class. An untraced run reports
//! the end-to-end metrics; a traced run (`--trace 1`) wraps each public
//! layer call in an in-memory span, reports the per-layer metrics, and
//! writes every span plus a per-layer self-time table to
//! `.bench_work/trace-<workload>-<seed>.json`.

pub mod alloc;
pub mod runs;
pub mod serve;
pub mod session;
pub mod stats;
pub mod trace;

use mc_obs::JsonValue;
use std::path::PathBuf;
use std::time::Instant;
use trace::TracedOp;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["zipf-runs", "zipf-session", "products-serve"];

/// Op class: whether the op changes the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// The tables change.
    Write,
    /// The tables stay the same.
    Read,
}

impl Class {
    /// Both classes, writes first.
    pub const ALL: [Class; 2] = [Class::Write, Class::Read];

    /// `write` or `read`.
    pub fn name(self) -> &'static str {
        match self {
            Class::Write => "write",
            Class::Read => "read",
        }
    }

    /// The class of the `i`-th op of a closed loop that alternates
    /// writes and reads, starting with a write.
    pub fn of_step(i: usize) -> Class {
        if i.is_multiple_of(2) {
            Class::Write
        } else {
            Class::Read
        }
    }
}

/// Generator seed of every workload's base tables. The tables are a
/// fixed dataset, like a paper benchmark's; the run's `--seed` draws the
/// edit stream applied to them (table deltas, killed-set perturbations),
/// so different seeds measure different edits on the same table shape.
pub const DATASET_SEED: u64 = 1;

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Edit-stream seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of each timed phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrinks every input to test size (the self-tests).
    pub tiny: bool,
    /// Scratch directory for the artifact store and the trace file.
    pub work_dir: PathBuf,
}

/// One untraced timed op.
#[derive(Debug, Clone, Default)]
pub struct OpSample {
    /// Whether the op is a write.
    pub write: bool,
    /// Edit to full refreshed report, milliseconds.
    pub wall_ms: f64,
    /// Edit to the first page of pairs the user can label, milliseconds.
    pub first_page_ms: Option<f64>,
    /// Oracle labels the op asked for.
    pub labels: usize,
    /// Resident-set high-water mark while the op ran, MiB.
    pub peak_mib: Option<f64>,
    /// Confirmed matches that are gold matches.
    pub found: usize,
    /// Gold matches the blocker killed, at the time of the op.
    pub killed_gold: usize,
    /// The op failed or was refused.
    pub failed: bool,
}

impl OpSample {
    /// The op's class.
    pub fn class(&self) -> Class {
        if self.write {
            Class::Write
        } else {
            Class::Read
        }
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up durations, seconds (one per repeated set-up).
    pub setups_s: Vec<f64>,
    /// Untraced timed ops.
    pub samples: Vec<OpSample>,
    /// Length of the timed phase, seconds.
    pub phase_s: f64,
    /// Traced ops (traced runs only).
    pub traced: Vec<TracedOp>,
    /// Every span of the traced ops.
    pub spans: Vec<trace::Span>,
    /// Correctness failures, one line each.
    pub problems: Vec<String>,
    /// Ops that failed outside the untraced samples (traced ops, checks).
    pub extra_failed: u64,
    /// Ops attempted outside the untraced samples.
    pub extra_attempted: u64,
}

/// One metric of the catalogue.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

/// The end-to-end metrics, reported by every untraced run.
pub fn end_to_end_metrics() -> Vec<Metric> {
    [
        ("setup_s", "s", "lower"),
        ("write_p50_ms", "ms", "lower"),
        ("read_p50_ms", "ms", "lower"),
        ("first_page_ms", "ms", "lower"),
        ("ops_per_s", "1/s", "higher"),
        ("found_frac", "ratio", "higher"),
        ("labels_per_op", "count", "lower"),
        ("peak_mem_mib", "MiB", "lower"),
    ]
    .into_iter()
    .map(|(name, unit, better)| Metric {
        name: name.into(),
        unit,
        better,
    })
    .collect()
}

/// How a per-layer metric aggregates the traced ops of one class.
#[derive(Debug, Clone)]
enum Agg {
    /// Median over ops of the per-op value.
    Median(String),
    /// Sum over ops of the first value divided by that of the second.
    Ratio(&'static str, &'static str),
    /// Largest per-op value.
    Max(&'static str),
}

/// The serve verbs of one `products-serve` step, in order.
pub const STEP_VERBS: [&str; 4] = ["rerun", "page", "explain", "pervade"];

/// Per-layer metrics without their class suffix: name, unit, direction
/// and aggregation.
fn layer_bases() -> Vec<(String, &'static str, &'static str, Agg)> {
    use Agg::*;
    let med = |key: &str, unit, better| (key.to_string(), unit, better, Median(key.to_string()));
    let mut v: Vec<(String, &'static str, &'static str, Agg)> = vec![
        med("config.promising_ms", "ms", "lower"),
        med("config.allocs", "count", "lower"),
        med("strsim.tokenize_ms", "ms", "lower"),
        med("strsim.tokens", "count", "lower"),
        med("strsim.allocs", "count", "lower"),
        med("joint.arenas_ms", "ms", "lower"),
        med("joint.topk_ms", "ms", "lower"),
        med("joint.events", "count", "lower"),
        med("joint.scored", "count", "lower"),
        med("joint.union_pairs", "count", "lower"),
        med("joint.allocs", "count", "lower"),
        med("store.load_ms", "ms", "lower"),
        med("store.publish_ms", "ms", "lower"),
        (
            "store.hit_frac".into(),
            "ratio",
            "higher",
            Ratio("store.hits", "store.lookups"),
        ),
        med("store.bytes_loaded", "bytes", "lower"),
        med("store.bytes_written", "bytes", "lower"),
        med("incr.rerun_ms", "ms", "lower"),
        med("incr.patch_ms", "ms", "lower"),
        med("incr.join_ms", "ms", "lower"),
        med("incr.pairs_rescored", "count", "lower"),
        (
            "incr.reuse_frac".into(),
            "ratio",
            "higher",
            Ratio("incr.pairs_reused", "incr.pairs_seen"),
        ),
        med("incr.full_rejoins", "count", "lower"),
        med("incr.allocs", "count", "lower"),
        med("verify.ms", "ms", "lower"),
        med("verify.iterations", "count", "lower"),
        (
            "verify.ms_per_iter".into(),
            "ms",
            "lower",
            Ratio("verify.ms", "verify.iterations"),
        ),
        med("verify.rows_built", "count", "lower"),
        med("verify.allocs", "count", "lower"),
        med("explain.ms", "ms", "lower"),
        (
            "explain.cache_hit_frac".into(),
            "ratio",
            "higher",
            Ratio("explain.cache_hits", "explain.diagnosed"),
        ),
        med("explain.values_interned", "count", "lower"),
        med("explain.allocs", "count", "lower"),
    ];
    for verb in STEP_VERBS {
        for what in ["rtt_ms", "execute_ms"] {
            v.push(med(&format!("serve.{what}.{verb}"), "ms", "lower"));
        }
    }
    v.extend([
        med("serve.overhead_ms", "ms", "lower"),
        med("serve.refused", "count", "lower"),
        med("serve.protocol_errors", "count", "lower"),
        (
            "serve.allocs".into(),
            "count",
            "lower",
            Ratio("serve.allocs", "serve.requests"),
        ),
        med("bench.self_ms", "ms", "lower"),
        (
            "bench.unaccounted_frac".into(),
            "ratio",
            "lower",
            Max("bench.unaccounted_frac"),
        ),
        (
            "bench.error_frac".into(),
            "ratio",
            "lower",
            Ratio("bench.failed", "bench.ops"),
        ),
        med("bench.trace_overhead_ms", "ms", "lower"),
    ]);
    v
}

/// The per-layer metrics, reported by every traced run: each base
/// metric once per op class, named `<module>.<metric>.<class>`.
pub fn per_layer_metrics() -> Vec<Metric> {
    layer_bases()
        .into_iter()
        .flat_map(|(base, unit, better, _)| {
            Class::ALL.map(|c| Metric {
                name: format!("{base}.{}", c.name()),
                unit,
                better,
            })
        })
        .collect()
}

/// A finished invocation: the result line's fields plus human-readable
/// diagnostics.
#[derive(Debug)]
pub struct Outcome {
    /// Every output checked out and no op failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed or refused.
    pub failed: u64,
    /// `(metric, value)` in catalogue order.
    pub metrics: Vec<(Metric, f64)>,
    /// Diagnostics: sample counts, tails, correctness failures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line.
    pub fn result_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("correct".into(), self.correct.into()),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            (
                "metrics".into(),
                JsonValue::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.name.clone(),
                                JsonValue::Obj(vec![
                                    ("value".into(), JsonValue::Num(*v)),
                                    ("unit".into(), m.unit.into()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Runs one workload and aggregates what it measured.
pub fn run_workload(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let measured = match workload {
        "zipf-runs" => runs::run(cfg),
        "zipf-session" => session::run(cfg),
        "products-serve" => serve::run(cfg),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    let mut notes = Vec::new();
    let attempted = measured.samples.len() as u64 + measured.extra_attempted;
    let failed =
        measured.samples.iter().filter(|s| s.failed).count() as u64 + measured.extra_failed;
    for class in Class::ALL {
        let walls: Vec<f64> = class_walls(&measured.samples, class);
        eprintln!(
            "{} op wall times, ms: {}",
            class.name(),
            walls
                .iter()
                .map(|w| format!("{w:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let tail = stats::tail(&walls)
            .map_or("none (fewer than 20 samples)".to_string(), |(p, v)| {
                format!("p{p} = {v:.3} ms")
            });
        notes.push(format!(
            "{} ops: n = {}, p50 = {:.3} ms, highest percentile with 10 samples beyond: {tail}",
            class.name(),
            walls.len(),
            stats::median(&walls)
        ));
    }
    if attempted == 0 {
        notes.push("no op completed".into());
    }
    notes.extend(measured.problems.iter().map(|p| format!("INCORRECT: {p}")));
    let metrics = if cfg.trace {
        per_layer_values(&measured, &mut notes, workload, cfg)?
    } else {
        end_to_end_values(&measured)
    };
    Ok(Outcome {
        correct: measured.problems.is_empty() && failed == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    })
}

fn class_walls(samples: &[OpSample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class() == class && !s.failed)
        .map(|s| s.wall_ms)
        .collect()
}

fn end_to_end_values(m: &Measured) -> Vec<(Metric, f64)> {
    let ok: Vec<&OpSample> = m.samples.iter().filter(|s| !s.failed).collect();
    let firsts: Vec<f64> = ok
        .iter()
        .filter(|s| s.write)
        .filter_map(|s| s.first_page_ms)
        .collect();
    let found: usize = ok.iter().map(|s| s.found).sum();
    let killed: usize = ok.iter().map(|s| s.killed_gold).sum();
    // Mean, not median: per-op label counts come in whole verifier pages,
    // so a median over a few ops jumps between neighbouring page counts.
    let labels = ok.iter().map(|s| s.labels).sum::<usize>() as f64 / ok.len().max(1) as f64;
    let peaks: Vec<f64> = ok.iter().filter_map(|s| s.peak_mib).collect();
    end_to_end_metrics()
        .into_iter()
        .map(|metric| {
            let v = match metric.name.as_str() {
                "setup_s" => stats::median(&m.setups_s),
                "write_p50_ms" => stats::median(&class_walls(&m.samples, Class::Write)),
                "read_p50_ms" => stats::median(&class_walls(&m.samples, Class::Read)),
                "first_page_ms" => stats::median(&firsts),
                "ops_per_s" => ok.len() as f64 / m.phase_s.max(1e-9),
                "found_frac" => found as f64 / killed.max(1) as f64,
                "labels_per_op" => labels,
                "peak_mem_mib" => stats::median(&peaks),
                other => unreachable!("uncatalogued end-to-end metric {other}"),
            };
            (metric, finite(v))
        })
        .collect()
}

fn per_layer_values(
    m: &Measured,
    notes: &mut Vec<String>,
    workload: &str,
    cfg: &RunConfig,
) -> Result<Vec<(Metric, f64)>, String> {
    let mut ops = m.traced.clone();
    for op in &mut ops {
        op.add("bench.ops", 1.0);
        let bench = op.layer_us.get("bench").copied().unwrap_or(0.0) / 1e3;
        op.add("bench.self_ms", bench);
        let u = op.unaccounted_frac();
        op.add("bench.unaccounted_frac", u);
    }
    // Tracing overhead: traced minus untraced per-class median wall time.
    for class in Class::ALL {
        let traced: Vec<f64> = ops
            .iter()
            .filter(|o| o.class == class)
            .map(|o| o.wall_us / 1e3)
            .collect();
        let overhead = stats::median(&traced) - stats::median(&class_walls(&m.samples, class));
        for op in ops.iter_mut().filter(|o| o.class == class) {
            op.add("bench.trace_overhead_ms", overhead);
        }
    }
    let worst = ops
        .iter()
        .map(TracedOp::unaccounted_frac)
        .fold(0.0, f64::max);
    notes.push(format!(
        "reconciliation: layer self times + benchmark time cover every op's wall time \
         within {:.3}% (limit 5%)",
        worst * 100.0
    ));
    for row in trace::self_time_table(&ops) {
        notes.push(format!(
            "self time {:5} {:11} median {:9.3} ms  mean {:9.3} ms  {:5.1}% of wall",
            row.class.name(),
            row.layer,
            row.median_ms,
            row.mean_ms,
            row.share * 100.0
        ));
    }
    let path = cfg
        .work_dir
        .join(format!("trace-{workload}-{}.json", cfg.seed));
    std::fs::write(
        &path,
        trace::trace_json(workload, cfg.seed, &m.spans, &ops).to_json_string(),
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!("trace written to {}", path.display()));

    let mut out = Vec::new();
    for (base, unit, better, agg) in layer_bases() {
        for class in Class::ALL {
            let of: Vec<&TracedOp> = ops.iter().filter(|o| o.class == class).collect();
            let get = |o: &TracedOp, k: &str| o.values.get(k).copied().unwrap_or(0.0);
            let v = match &agg {
                Agg::Median(k) => stats::median(&of.iter().map(|o| get(o, k)).collect::<Vec<_>>()),
                Agg::Ratio(n, d) => {
                    let num: f64 = of.iter().map(|o| get(o, n)).sum();
                    let den: f64 = of.iter().map(|o| get(o, d)).sum();
                    if den > 0.0 {
                        num / den
                    } else {
                        0.0
                    }
                }
                Agg::Max(k) => of.iter().map(|o| get(o, k)).fold(0.0, f64::max),
            };
            out.push((
                Metric {
                    name: format!("{base}.{}", class.name()),
                    unit,
                    better,
                },
                finite(v),
            ));
        }
    }
    Ok(out)
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// An oracle that answers from gold matches and records when it was
/// first asked — the moment the user sees the first page of pairs.
pub struct TimedOracle<'g> {
    gold: &'g mc_table::GoldMatches,
    labels: usize,
    /// When the first label was asked for.
    pub first: Option<Instant>,
}

impl<'g> TimedOracle<'g> {
    /// An exact oracle over `gold`.
    pub fn new(gold: &'g mc_table::GoldMatches) -> Self {
        TimedOracle {
            gold,
            labels: 0,
            first: None,
        }
    }
}

impl matchcatcher::Oracle for TimedOracle<'_> {
    fn is_match(&mut self, a: mc_table::TupleId, b: mc_table::TupleId) -> bool {
        if self.first.is_none() {
            self.first = Some(Instant::now());
        }
        self.labels += 1;
        self.gold.is_match(a, b)
    }

    fn labels_given(&self) -> usize {
        self.labels
    }
}

/// Confirmed matches of `report` that are gold matches.
pub fn found_gold(report: &matchcatcher::DebugReport, gold: &mc_table::GoldMatches) -> usize {
    report
        .confirmed_matches
        .iter()
        .filter(|&&(a, b)| gold.is_match(a, b))
        .count()
}

/// Splits a traced `DebugSession::rerun` call (span `idx`) into the
/// config, verify and explain layers, from the spans the program
/// recorded in the rerun's metrics.
pub fn derive_rerun_layers(tr: &mut trace::Tracer, idx: usize, mm: &mc_obs::MetricsSnapshot) {
    for (layer, span) in [
        ("config", "mc.core.incr.promising"),
        ("verify", "mc.core.debug.verify"),
        ("explain", "mc.core.debug.explain"),
    ] {
        tr.derive(idx, layer, span, mm.span(span).total_us as f64);
    }
}

/// A rerun's per-op `incr`, `config`, `verify` and `explain` values from
/// its metrics delta; `rerun_ms` is the whole rerun call.
pub fn add_rerun_values(op: &mut TracedOp, mm: &mc_obs::MetricsSnapshot, rerun_ms: f64) {
    let ms = |span: &str| mm.span(span).total_us as f64 / 1e3;
    let rescored = mm.counter("mc.core.incr.pairs_rescored") as f64;
    let reused = mm.counter("mc.core.incr.pairs_reused") as f64;
    for (k, v) in [
        ("config.promising_ms", ms("mc.core.incr.promising")),
        ("incr.rerun_ms", rerun_ms),
        ("incr.patch_ms", ms("mc.core.incr.patch")),
        ("incr.join_ms", ms("mc.core.debug.topk")),
        ("incr.pairs_rescored", rescored),
        ("incr.pairs_reused", reused),
        ("incr.pairs_seen", rescored + reused),
        (
            "incr.full_rejoins",
            mm.counter("mc.core.incr.full_rejoins") as f64,
        ),
        ("verify.ms", ms("mc.core.debug.verify")),
        ("explain.ms", ms("mc.core.debug.explain")),
    ] {
        op.add(k, v);
    }
}

/// Adds the program-recorded counters every in-process op shares to a
/// traced op: verifier, explain and SSJ work counts.
pub fn add_report_counts(op: &mut TracedOp, report: &matchcatcher::DebugReport) {
    add_counts(op, &report.metrics, report.iterations.len(), report.e_size);
}

/// [`add_report_counts`] from an op's metrics delta, its verifier
/// iteration count and its candidate-union size.
pub fn add_counts(
    op: &mut TracedOp,
    m: &mc_obs::MetricsSnapshot,
    iterations: usize,
    e_size: usize,
) {
    op.add("verify.iterations", iterations as f64);
    op.add(
        "verify.rows_built",
        m.counter("mc.core.verify.feature_matrix.rows_built") as f64,
    );
    op.add(
        "explain.cache_hits",
        m.counter("mc.core.explain.cache_hits") as f64,
    );
    op.add(
        "explain.diagnosed",
        m.counter("mc.core.explain.diagnosed") as f64,
    );
    op.add(
        "explain.values_interned",
        m.counter("mc.core.explain.values_interned") as f64,
    );
    op.add("joint.events", m.counter("mc.core.ssj.events") as f64);
    op.add("joint.scored", m.counter("mc.core.ssj.scored") as f64);
    op.add("joint.union_pairs", e_size as f64);
}
