#![warn(missing_docs)]

//! # mc-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! MatchCatcher paper's evaluation (§6):
//!
//! * [`blockers`] — the per-dataset blocker suites of Table 2 (overlap,
//!   hash, SIM, rule blockers) and the "best hash blockers" of §6.2;
//! * [`learned`] — a greedy union-of-predicates blocker learner standing
//!   in for the crowdsourced Falcon-learned blockers of §6.2;
//! * [`harness`] — per-experiment drivers producing the rows of Tables
//!   1/3/4, the §6.2 debugging loops, §6.4 runtimes, Figure 9's scaling
//!   sweeps and the §6.5 ablations.
//!
//! Each table/figure has a binary (`table1`, `table3`, `figure9`, …); see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! The perf-regression side of the harness lives in three support
//! modules: [`env`](mod@env) (the shared `--flag`/`MC_BENCH_SMOKE` parsing every
//! bench binary uses), [`alloc`] (a counting global allocator that turns
//! allocation pressure into a deterministic work counter), and
//! [`compare`] (the tolerance-budget gate behind `mc bench-compare`).

pub mod alloc;
pub mod blockers;
pub mod compare;
pub mod env;
pub mod harness;
pub mod learned;
