//! `mc` — the MatchCatcher workspace CLI.
//!
//! Subcommands:
//!
//! ```text
//! mc obs-report [--profile NAME] [--scale X] [--seed N] [--k N]
//!               [--store DIR] [--json] [--prom]
//! mc trace --out PATH [--profile NAME] [--scale X] [--seed N] [--k N]
//!          [--store DIR] [--snapshot PATH] [--prom PATH]
//! mc bench-compare --bench NAME --baseline PATH --fresh PATH
//!                  [--budgets PATH] [--smoke | --full]
//! mc store-init DIR
//! mc store-stats DIR
//! mc store-gc DIR --max-bytes N
//! mc serve [--addr HOST:PORT] [--workers N] [--store DIR] ...
//! ```
//!
//! `obs-report` runs the full debugging pipeline (prepare → top-k →
//! verify → explain) on a synthetic datagen profile with a hash blocker,
//! then prints the observability layer's human-readable stage breakdown;
//! `--json` adds the machine-readable `mc-obs/v2` snapshot (the same
//! schema the bench binaries emit with `--obs`) and `--prom` the
//! OpenMetrics/Prometheus text rendering. With `--store DIR` the run
//! reads and publishes warm-start artifacts — run it twice with the same
//! directory and the second run skips tokenization and every join.
//!
//! `trace` runs the same pipeline inside its own session
//! [`mc_obs::ObsContext`] and writes the run's spans and
//! events as a Chrome/Perfetto trace (load the file in `about:tracing`
//! or <https://ui.perfetto.dev>). `--snapshot` and `--prom` additionally
//! write the session's `mc-obs/v2` JSON and OpenMetrics renderings —
//! CI uses this to attach an observability artifact to every build.
//!
//! `bench-compare` is the perf-regression gate: it diffs a fresh
//! `BENCH_*.json` (from `ssj_baseline`, `verifier_baseline` or
//! `store_warm`) against a committed baseline under the tolerance
//! budgets in `ci/bench_budgets.json`, and exits non-zero on any
//! regression. In smoke mode (`--smoke`, or `MC_BENCH_SMOKE` set) the
//! wall-clock budgets are skipped, so only deterministic work counters
//! and allocation counts gate — that is what keeps the CI step
//! non-flaky.
//!
//! The `store-*` subcommands manage an artifact store directory:
//! `store-init` creates (and validates) it, `store-stats` prints its
//! per-kind file/byte counts, and `store-gc` evicts oldest-first down to
//! a byte budget.
//!
//! `serve` starts the persistent debug daemon (identical to the `mcd`
//! binary): concurrent sessions over a length-prefixed JSON socket
//! protocol, each backed by an incrementally-rerun
//! [`DebugSession`](matchcatcher::DebugSession). See DESIGN.md §"Debug
//! service" for the protocol and `mc_serve::cli::USAGE` for the flags.

use matchcatcher::debugger::{DebugReport, DebuggerParams, MatchCatcher, RunObserver, Stage};
use matchcatcher::oracle::GoldOracle;
use mc_bench::compare;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::{JsonValue, MetricsSnapshot, ObsContext};
use mc_store::{Store, StoreConfig};

fn usage() -> ! {
    eprintln!(
        "usage: mc obs-report [--profile NAME] [--scale X] [--seed N] [--k N] [--store DIR] [--json] [--prom]\n\
         \x20      mc trace --out PATH [--profile NAME] [--scale X] [--seed N] [--k N] [--store DIR] [--snapshot PATH] [--prom PATH]\n\
         \x20      mc bench-compare --bench NAME --baseline PATH --fresh PATH [--budgets PATH] [--smoke | --full]\n\
         \x20      mc store-init DIR\n\
         \x20      mc store-stats DIR\n\
         \x20      mc store-gc DIR --max-bytes N\n\
         \x20      mc serve [--addr HOST:PORT] [--workers N] [--store DIR] ...\n\
         profiles: {}",
        DatasetProfile::ALL.map(|p| p.name()).join(", ")
    );
    std::process::exit(2);
}

struct StagePrinter;

impl RunObserver for StagePrinter {
    fn stage_started(&mut self, stage: Stage) {
        eprintln!("[mc] {} ...", stage.span_name());
    }

    fn stage_finished(&mut self, stage: Stage, metrics: &MetricsSnapshot) {
        let stat = metrics.span(stage.span_name());
        eprintln!("[mc] {} done in {} µs", stage.span_name(), stat.total_us);
    }
}

fn open_or_die(dir: &str) -> Store {
    match Store::open(&StoreConfig::at(dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mc: cannot open store at {dir}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_store_init(args: &[String]) {
    let [dir] = args else { usage() };
    let store = open_or_die(dir);
    println!("initialized mc-store/v1 at {}", store.root().display());
}

fn cmd_store_stats(args: &[String]) {
    let [dir] = args else { usage() };
    let store = open_or_die(dir);
    let stats = store.stats();
    println!("store {}", store.root().display());
    for (kind, ks) in &stats.kinds {
        println!("  {kind:<8} {:>6} files  {:>12} bytes", ks.files, ks.bytes);
    }
    println!(
        "  total    {:>6} files  {:>12} bytes  ({} stray tmp)",
        stats.files, stats.bytes, stats.stray_tmp
    );
}

fn cmd_store_gc(args: &[String]) {
    let (dir, max_bytes) = match args {
        [dir, flag, n] if flag == "--max-bytes" => {
            (dir, n.parse::<u64>().unwrap_or_else(|_| usage()))
        }
        _ => usage(),
    };
    let store = open_or_die(dir);
    let report = store.gc(max_bytes);
    println!(
        "gc: removed {} artifacts ({} bytes) and {} stray tmp files; {} bytes kept",
        report.removed_files, report.removed_bytes, report.removed_tmp, report.kept_bytes
    );
}

/// Flags shared by `obs-report` and `trace`: which synthetic pipeline
/// run to instrument.
struct PipelineOpts {
    profile: DatasetProfile,
    scale: f64,
    seed: u64,
    k: usize,
    store_dir: Option<String>,
    /// Flags the caller handles itself: `--flag value` pairs…
    extra_valued: Vec<(String, String)>,
    /// …and bare switches.
    extra_bare: Vec<String>,
}

impl PipelineOpts {
    /// Parses `args`, routing flags named in `valued`/`bare` into the
    /// `extra_*` buckets and rejecting anything else.
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Self {
        let mut opts = PipelineOpts {
            profile: DatasetProfile::FodorsZagats,
            scale: 1.0,
            seed: 42,
            k: 200,
            store_dir: None,
            extra_valued: Vec::new(),
            extra_bare: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if bare.contains(&a) {
                opts.extra_bare.push(a.to_string());
                i += 1;
                continue;
            }
            if valued.contains(&a) && i + 1 < args.len() {
                opts.extra_valued.push((a.to_string(), args[i + 1].clone()));
                i += 2;
                continue;
            }
            match a {
                "--profile" if i + 1 < args.len() => {
                    let name = &args[i + 1];
                    opts.profile = DatasetProfile::ALL
                        .into_iter()
                        .find(|p| p.name().eq_ignore_ascii_case(name))
                        .unwrap_or_else(|| usage());
                }
                "--scale" if i + 1 < args.len() => {
                    opts.scale = args[i + 1].parse().unwrap_or_else(|_| usage())
                }
                "--seed" if i + 1 < args.len() => {
                    opts.seed = args[i + 1].parse().unwrap_or_else(|_| usage())
                }
                "--k" if i + 1 < args.len() => {
                    opts.k = args[i + 1].parse().unwrap_or_else(|_| usage())
                }
                "--store" if i + 1 < args.len() => opts.store_dir = Some(args[i + 1].clone()),
                _ => usage(),
            }
            i += 2;
        }
        opts
    }

    fn extra(&self, flag: &str) -> Option<&str> {
        self.extra_valued
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.extra_bare.iter().any(|f| f == flag)
    }

    /// Runs the standard synthetic debugging pipeline: a datagen profile,
    /// a deliberately lossy hash blocker on the first attribute, then the
    /// full prepare → top-k → verify → explain debugger under `obs`.
    fn run(&self, obs: ObsContext, observer: &mut dyn RunObserver) -> DebugReport {
        let ds = self.profile.generate_scaled(self.seed, self.scale);
        eprintln!(
            "[mc] dataset {} ({} × {} tuples, {} matches)",
            ds.name,
            ds.a.len(),
            ds.b.len(),
            ds.gold.len()
        );
        let blocker = Blocker::Hash(KeyFunc::Attr(mc_table::AttrId(0)));
        let c = blocker.apply(&ds.a, &ds.b);

        let mut params = DebuggerParams::default();
        params.joint.k = self.k;
        params.store = self.store_dir.clone().map(StoreConfig::at);
        params.obs = obs;
        if let Err(e) = params.validate() {
            eprintln!("mc: invalid parameters: {e}");
            std::process::exit(2);
        }
        let mc = MatchCatcher::new(params);
        let mut oracle = GoldOracle::exact(&ds.gold);
        let report = mc.run_observed(&ds.a, &ds.b, &c, &mut oracle, observer);
        println!(
            "confirmed {} killed-off matches in {} iterations ({} labels, |E| = {})",
            report.confirmed_matches.len(),
            report.iteration_count(),
            report.labeled,
            report.e_size
        );
        report
    }
}

fn cmd_obs_report(args: &[String]) {
    let opts = PipelineOpts::parse(args, &[], &["--json", "--prom"]);
    let baseline = MetricsSnapshot::capture();
    let _report = opts.run(ObsContext::current(), &mut StagePrinter);
    let delta = MetricsSnapshot::capture().since(&baseline);
    let hits = delta.counter("mc.store.hits");
    let misses = delta.counter("mc.store.misses");
    if hits + misses > 0 {
        println!("store: {hits} hits, {misses} misses");
    }
    println!("\n{}", delta.render());
    if opts.has("--json") {
        println!("{}", delta.to_json());
    }
    if opts.has("--prom") {
        println!("{}", delta.to_prometheus());
    }
}

fn cmd_trace(args: &[String]) {
    let opts = PipelineOpts::parse(args, &["--out", "--snapshot", "--prom"], &[]);
    let Some(out) = opts.extra("--out") else {
        usage()
    };

    // The whole run — dataset generation, blocker, debugger — executes
    // inside a fresh session context, so the trace holds exactly this
    // pipeline's spans and events and nothing else.
    let ctx = ObsContext::session();
    let guard = ctx.attach();
    let _report = opts.run(ctx.clone(), &mut StagePrinter);
    drop(guard);

    let snap = MetricsSnapshot::capture_from(&ctx);
    std::fs::write(out, snap.to_chrome_trace()).unwrap_or_else(|e| {
        eprintln!("mc trace: cannot write {out}: {e}");
        std::process::exit(1);
    });
    let spans = snap.events.iter().filter(|e| e.dur_ns > 0).count();
    println!(
        "wrote {out} ({spans} spans, {} instant events) — load it in about:tracing \
         or ui.perfetto.dev",
        snap.events.len() - spans
    );
    if let Some(path) = opts.extra("--snapshot") {
        std::fs::write(path, snap.to_json()).unwrap_or_else(|e| {
            eprintln!("mc trace: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path} (mc-obs/v2 snapshot)");
    }
    if let Some(path) = opts.extra("--prom") {
        std::fs::write(path, snap.to_prometheus()).unwrap_or_else(|e| {
            eprintln!("mc trace: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path} (OpenMetrics text)");
    }
}

fn cmd_bench_compare(args: &[String]) {
    let mut bench: Option<&str> = None;
    let mut baseline_path: Option<&str> = None;
    let mut fresh_path: Option<&str> = None;
    let mut budgets_path = "ci/bench_budgets.json";
    let mut smoke = std::env::var("MC_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--full" => {
                smoke = false;
                i += 1;
            }
            "--bench" if i + 1 < args.len() => {
                bench = Some(args[i + 1].as_str());
                i += 2;
            }
            "--baseline" if i + 1 < args.len() => {
                baseline_path = Some(args[i + 1].as_str());
                i += 2;
            }
            "--fresh" if i + 1 < args.len() => {
                fresh_path = Some(args[i + 1].as_str());
                i += 2;
            }
            "--budgets" if i + 1 < args.len() => {
                budgets_path = args[i + 1].as_str();
                i += 2;
            }
            _ => usage(),
        }
    }
    let (Some(bench), Some(baseline_path), Some(fresh_path)) = (bench, baseline_path, fresh_path)
    else {
        usage()
    };

    let read_json = |path: &str| -> JsonValue {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("mc bench-compare: cannot read {path}: {e}");
            std::process::exit(1);
        });
        JsonValue::parse(&text).unwrap_or_else(|e| {
            eprintln!("mc bench-compare: {path} is not valid JSON: {e}");
            std::process::exit(1);
        })
    };
    let budgets_text = std::fs::read_to_string(budgets_path).unwrap_or_else(|e| {
        eprintln!("mc bench-compare: cannot read {budgets_path}: {e}");
        std::process::exit(1);
    });
    let rules = compare::parse_budgets(&budgets_text).unwrap_or_else(|e| {
        eprintln!("mc bench-compare: {budgets_path}: {e}");
        std::process::exit(1);
    });
    if !rules.iter().any(|r| r.bench == bench) {
        eprintln!("mc bench-compare: no rules for bench '{bench}' in {budgets_path}");
        std::process::exit(1);
    }

    let report = compare::compare(
        bench,
        &read_json(baseline_path),
        &read_json(fresh_path),
        &rules,
        smoke,
    );
    print!("{}", report.render());
    if report.failed() {
        eprintln!(
            "mc bench-compare: PERF REGRESSION in '{bench}' — inspect the checks above; \
             raising a budget in {budgets_path} or regenerating {baseline_path} requires \
             understanding which change made the pipeline do more work"
        );
        std::process::exit(1);
    }
    println!("bench-compare: '{bench}' within budget");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(cmd) = args.get(1) else { usage() };
    let rest = &args[2..];
    match cmd.as_str() {
        "obs-report" => cmd_obs_report(rest),
        "trace" => cmd_trace(rest),
        "bench-compare" => cmd_bench_compare(rest),
        "store-init" => cmd_store_init(rest),
        "store-stats" => cmd_store_stats(rest),
        "store-gc" => cmd_store_gc(rest),
        "serve" => std::process::exit(mc_serve::cli::run(rest)),
        _ => usage(),
    }
}
