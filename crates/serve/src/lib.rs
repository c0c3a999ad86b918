#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mc-serve
//!
//! A persistent MatchCatcher debug daemon (`mcd` / `mc serve`): the
//! paper's *interactive* debugging loop as a long-running service
//! instead of a one-shot `MatchCatcher::run` per interaction.
//!
//! The daemon is **std-only** (no async runtime — the workspace is
//! offline): a [`std::net::TcpListener`] accept loop, one lightweight
//! reader thread per connection, and a bounded worker pool with a
//! backpressure queue executing requests. Each client session wraps a
//! [`matchcatcher::DebugSession`], so blocker-output / killed-set /
//! label edits are **delta reruns** against resident state instead of
//! cold runs; when the daemon is given a store root, sessions restore
//! their config arenas through `mc-store` and publish arenas and
//! candidate unions there; and every session attaches its own
//! [`mc_obs::ObsContext::session`], so the `metrics` verb returns
//! exactly that session's activity.
//!
//! ## Wire protocol
//!
//! Length-prefixed JSON frames ([`frame`]): a 4-byte little-endian
//! payload length, then that many bytes of UTF-8 JSON, serialized with
//! [`mc_obs::JsonValue::to_json_string`] — the same emitter the
//! `obs-report` snapshots use. Requests are objects with a `"verb"`
//! member; responses carry `"ok"` plus either the verb's payload or a
//! structured `"error": {"code", "message"}` ([`proto`]). Verbs:
//!
//! | verb       | request                                      | response |
//! |------------|----------------------------------------------|----------|
//! | `open`     | tables (profile or inline) + params          | session id + report summary |
//! | `rerun`    | table deltas + killed diff                   | report summary |
//! | `page`     | session + offset/limit                       | killed-match page with explain payloads |
//! | `label`    | session + pair + is_match                    | labels recorded |
//! | `metrics`  | session                                      | the session's `mc-obs/v2` snapshot |
//! | `close`    | session                                      | freed |
//! | `shutdown` | —                                            | daemon drains and exits |
//!
//! Sessions are evicted LRU when the resident-byte budget or session
//! cap is exceeded ([`session`]); a full queue answers `busy`
//! immediately; queued requests that exceed their deadline answer
//! `timeout` without executing. See DESIGN.md §"Debug service" for the
//! lifecycle state machine.

pub mod cli;
pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod session;

pub use client::Client;
pub use server::{Daemon, DaemonHandle};
pub use session::SessionManager;

use std::path::PathBuf;

/// Daemon tuning knobs, validated by [`ServeParams::validate`] the same
/// way `DebuggerParams::validate` guards the pipeline's.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Bind address. Port 0 picks an ephemeral port (the bound address
    /// is reported by [`DaemonHandle::addr`]).
    pub addr: String,
    /// Worker threads executing requests. Connection reader threads are
    /// extra and cheap (they block on their socket).
    pub workers: usize,
    /// Backpressure bound: requests queued beyond this answer `busy`
    /// immediately instead of waiting.
    pub queue_depth: usize,
    /// Largest accepted (and emitted) frame payload, in bytes. A client
    /// announcing a larger frame gets a structured error and the
    /// connection closes (the stream cannot be resynchronized).
    pub max_frame_bytes: usize,
    /// Resident session cap: opening session `n + 1` evicts the least
    /// recently used.
    pub max_sessions: usize,
    /// Eviction budget over the *estimated* resident bytes of all
    /// sessions (`DebugSession::resident_bytes`); exceeded → LRU
    /// sessions are evicted until under budget.
    pub max_resident_bytes: usize,
    /// Per-request deadline in milliseconds: time a request may spend
    /// *queued* before it answers `timeout` instead of executing; also
    /// the socket write timeout and the stall bound for a half-read
    /// frame. Execution itself is not preempted (no async runtime) —
    /// see DESIGN.md.
    pub request_timeout_ms: u64,
    /// Warm artifact tier shared by every session: when set, sessions
    /// open with `DebuggerParams::store = StoreConfig::at(root)`, so
    /// tokenization-compatible arenas memory-map in from prior runs and
    /// cold builds publish for the next session.
    pub store_root: Option<PathBuf>,
}

impl Default for ServeParams {
    fn default() -> Self {
        ServeParams {
            addr: "127.0.0.1:0".into(),
            workers: mc_obs::par::cores().min(8),
            queue_depth: 64,
            max_frame_bytes: 8 << 20,
            max_sessions: 64,
            max_resident_bytes: 512 << 20,
            request_timeout_ms: 30_000,
            store_root: None,
        }
    }
}

impl ServeParams {
    /// Rejects configurations that would make the daemon degenerate,
    /// mirroring `DebuggerParams::validate` for the serving layer.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers = 0: no thread would ever execute a request".into());
        }
        if self.workers > 1024 {
            return Err(format!(
                "workers = {}: far beyond any machine this serves on (max 1024)",
                self.workers
            ));
        }
        if self.queue_depth == 0 {
            return Err("queue_depth = 0: every request would answer busy".into());
        }
        if self.queue_depth > 1 << 16 {
            return Err(format!(
                "queue_depth = {}: an unbounded-in-practice queue defeats \
                 backpressure (max 65536)",
                self.queue_depth
            ));
        }
        if self.max_frame_bytes < 1024 {
            return Err(format!(
                "max_frame_bytes = {}: even an empty report summary does not \
                 fit (min 1024)",
                self.max_frame_bytes
            ));
        }
        if self.max_frame_bytes > 1 << 30 {
            return Err(format!(
                "max_frame_bytes = {}: a single frame above 1 GiB is a \
                 memory-exhaustion vector, not a workload",
                self.max_frame_bytes
            ));
        }
        if self.max_sessions == 0 {
            return Err("max_sessions = 0: no session could ever be opened".into());
        }
        if self.max_resident_bytes == 0 {
            return Err("max_resident_bytes = 0: every session would be evicted \
                        the moment it opened"
                .into());
        }
        if self.request_timeout_ms == 0 {
            return Err("request_timeout_ms = 0: every queued request would time \
                        out before a worker could claim it"
                .into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        assert!(ServeParams::default().validate().is_ok());
    }

    #[test]
    fn degenerate_params_are_rejected() {
        for mutate in [
            (|p: &mut ServeParams| p.workers = 0) as fn(&mut ServeParams),
            |p| p.workers = 2048,
            |p| p.queue_depth = 0,
            |p| p.queue_depth = 1 << 20,
            |p| p.max_frame_bytes = 16,
            |p| p.max_frame_bytes = 2 << 30,
            |p| p.max_sessions = 0,
            |p| p.max_resident_bytes = 0,
            |p| p.request_timeout_ms = 0,
        ] {
            let mut p = ServeParams::default();
            mutate(&mut p);
            assert!(p.validate().is_err());
        }
    }
}
