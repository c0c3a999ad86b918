//! The daemon: accept loop, per-connection reader threads, and a
//! bounded worker pool with a backpressure queue.
//!
//! Threading model (std-only — no async runtime):
//!
//! - **accept thread**: blocks on [`std::net::TcpListener::accept`],
//!   spawns one reader thread per connection.
//! - **reader threads**: block on their socket with a short read
//!   timeout, parse frames, and enqueue `Job`s. Each job carries a
//!   reply channel; the reader writes responses back in request order,
//!   so one connection is a sequential script while different
//!   connections interleave freely in the pool.
//! - **worker pool**: `workers` threads pop jobs from a bounded queue.
//!   A full queue rejects at enqueue time with `busy` (backpressure —
//!   the daemon never buffers unboundedly); a job whose deadline passed
//!   while queued answers `timeout` without executing.
//!
//! Every request's round trip is split in the daemon's own metrics
//! scope ([`DaemonHandle::metrics`], chained into the global registry)
//! into three per-verb histograms: `mc.serve.<verb>.queue_wait_us` (from
//! enqueue to dequeue), `mc.serve.<verb>.service_us` (the time spent in
//! [`SessionManager::execute`]) and `mc.serve.<verb>.encode_us` (response
//! encoding plus the frame write).
//!
//! Shutdown (`shutdown` verb or [`Daemon::shutdown`]) is a
//! **graceful drain**: the flag flips, the listener is woken by a
//! self-connection and stops accepting, readers answer `shutting_down`
//! to new requests and exit at their next idle poll, workers finish the
//! queue and exit. There is no OS signal handling (std-only); front
//! `mcd` with a supervisor that translates SIGTERM into the `shutdown`
//! verb — see DESIGN.md §"Debug service".

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{error_response, ok_response, parse_request, ErrorCode, Request};
use crate::session::SessionManager;
use crate::ServeParams;
use mc_obs::{JsonValue, MetricsSnapshot, ObsContext};
use std::collections::VecDeque;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often idle reader threads and the accept loop re-check the
/// shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// One queued request.
struct Job {
    request: Request,
    /// Response goes back to the owning connection's reader.
    reply: mpsc::Sender<JsonValue>,
    /// When the job entered the queue.
    enqueued: Instant,
    /// Queued-past-this → `timeout` without executing.
    deadline: Instant,
}

/// `mc.serve.<verb>.{queue_wait,service,encode}_us`: the three in-daemon
/// parts of one verb's round trip.
fn split_names(verb: &str) -> [&'static str; 3] {
    macro_rules! names {
        ($($verb:literal),*) => {
            match verb {
                $($verb => [
                    concat!("mc.serve.", $verb, ".queue_wait_us"),
                    concat!("mc.serve.", $verb, ".service_us"),
                    concat!("mc.serve.", $verb, ".encode_us"),
                ],)*
                _ => [
                    "mc.serve.other.queue_wait_us",
                    "mc.serve.other.service_us",
                    "mc.serve.other.encode_us",
                ],
            }
        };
    }
    names!("open", "rerun", "page", "label", "explain", "pervade", "gc", "metrics", "close")
}

/// State shared by every daemon thread.
struct Shared {
    params: ServeParams,
    /// The bound listen address (used to self-connect and wake the
    /// blocking accept loop on drain).
    addr: SocketAddr,
    sessions: SessionManager,
    queue: Mutex<VecDeque<Job>>,
    /// Signals workers that the queue is non-empty (or draining).
    wake: Condvar,
    shutdown: AtomicBool,
    /// Protocol-error count across all connections (frame decode or
    /// request parse failures) — the load bench asserts this stays 0.
    protocol_errors: AtomicU64,
    requests: AtomicU64,
    /// The daemon's own metrics scope: the round-trip split histograms.
    obs: ObsContext,
}

impl Shared {
    /// Records `since.elapsed()` in microseconds under `name`.
    fn record_since(&self, name: &'static str, since: Instant) {
        self.obs
            .registry()
            .histogram(name)
            .record(since.elapsed().as_micros() as u64);
    }

    /// Enqueues a job, applying backpressure at `queue_depth`.
    fn enqueue(&self, job: Job) -> Result<(), ErrorCode> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ErrorCode::ShuttingDown);
        }
        let mut q = self.queue.lock().unwrap();
        if q.len() >= self.params.queue_depth {
            return Err(ErrorCode::Busy);
        }
        q.push_back(job);
        drop(q);
        self.wake.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or the daemon is draining and the
    /// queue is empty (→ `None`, worker exits).
    fn dequeue(&self) -> Option<Job> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            q = self.wake.wait(q).unwrap();
        }
    }
}

/// A running daemon (background threads), plus the handle to stop it.
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// A cheap clone-able control handle onto a spawned [`Daemon`].
#[derive(Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl Daemon {
    /// Binds, spawns the accept loop and worker pool, and returns
    /// immediately. `params.addr` with port 0 picks an ephemeral port;
    /// read the bound address back with [`Daemon::addr`].
    pub fn spawn(params: ServeParams) -> Result<Daemon, String> {
        params.validate()?;
        let listener =
            TcpListener::bind(&params.addr).map_err(|e| format!("bind {}: {e}", params.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let sessions = SessionManager::new(
            params.max_sessions,
            params.max_resident_bytes,
            params.store_root.clone(),
        );
        let shared = Arc::new(Shared {
            params,
            addr,
            sessions,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            protocol_errors: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            obs: ObsContext::session(),
        });

        let workers = (0..shared.params.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mcd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mcd-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .map_err(|e| e.to_string())?
        };

        Ok(Daemon {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Blocks until something initiates a drain (the `shutdown` verb or
    /// a [`DaemonHandle`]), then joins every thread. The foreground mode
    /// of `mcd`.
    pub fn wait(self) -> (u64, u64) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(IDLE_POLL);
        }
        self.shutdown()
    }

    /// Initiates a graceful drain and joins every daemon thread:
    /// in-flight and already-queued requests finish, new ones are
    /// refused. Returns (requests served, protocol errors).
    pub fn shutdown(mut self) -> (u64, u64) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        // Wake the blocking accept() so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        (
            self.shared.requests.load(Ordering::Relaxed),
            self.shared.protocol_errors.load(Ordering::Relaxed),
        )
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Dropping a daemon drains it; `shutdown` already emptied the
        // handles, making this a no-op after an explicit drain.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl DaemonHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a drain has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Total requests executed so far.
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Frame-decode / request-parse failures so far.
    pub fn protocol_errors(&self) -> u64 {
        self.shared.protocol_errors.load(Ordering::Relaxed)
    }

    /// Resident sessions right now.
    pub fn resident_sessions(&self) -> usize {
        self.shared.sessions.resident_sessions()
    }

    /// Estimated resident bytes across sessions right now.
    pub fn resident_bytes(&self) -> usize {
        self.shared.sessions.resident_bytes()
    }

    /// Everything the daemon recorded in its own scope so far: the
    /// per-verb round-trip split histograms (see the module docs).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.obs.snapshot()
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("mcd-conn".into())
                    .spawn(move || connection_loop(stream, &shared));
                if spawned.is_err() {
                    // Thread exhaustion: drop the connection rather than
                    // the daemon.
                    mc_obs::counter!("mc.serve.conn.spawn_failed").inc();
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(IDLE_POLL);
            }
        }
    }
}

/// Reads frames off one connection, queues them, and writes replies
/// back in order.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        shared.params.request_timeout_ms,
    )));
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    let cap = shared.params.max_frame_bytes;
    let stall = shared.params.request_timeout_ms;

    loop {
        let value = match read_frame(&mut reader, cap, stall) {
            Ok(v) => v,
            Err(FrameError::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(FrameError::Closed) => return,
            Err(FrameError::TooLarge { len, cap }) => {
                // The unread body would desync the stream: answer, close.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = error_response(
                    "?",
                    ErrorCode::BadRequest,
                    &format!("frame of {len} bytes exceeds the {cap}-byte cap"),
                );
                let _ = write_frame(&mut writer, &resp);
                return;
            }
            Err(FrameError::Malformed(m)) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = error_response("?", ErrorCode::BadRequest, &m);
                if write_frame(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
            Err(FrameError::Io(_)) => return,
        };

        let request = match parse_request(&value) {
            Ok(r) => r,
            Err(m) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let verb = value
                    .get("verb")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string();
                let resp = error_response(&verb, ErrorCode::BadRequest, &m);
                if write_frame(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
        };

        if matches!(request, Request::Shutdown) {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.wake.notify_all();
            // Wake the accept loop so the drain completes without
            // waiting for another client.
            let _ = TcpStream::connect(shared.addr);
            let resp = ok_response("shutdown", vec![("draining".into(), true.into())]);
            let _ = write_frame(&mut writer, &resp);
            return;
        }

        let verb = request.verb();
        let (tx, rx) = mpsc::channel();
        let enqueued = Instant::now();
        let job = Job {
            request,
            reply: tx,
            enqueued,
            deadline: enqueued + Duration::from_millis(shared.params.request_timeout_ms),
        };
        let response = match shared.enqueue(job) {
            Ok(()) => match rx.recv() {
                Ok(resp) => resp,
                Err(_) => error_response(
                    verb,
                    ErrorCode::Internal,
                    "worker dropped the request (daemon drained mid-flight)",
                ),
            },
            Err(code) => {
                let msg = match code {
                    ErrorCode::Busy => "queue full — retry with backoff",
                    _ => "daemon is draining",
                };
                error_response(verb, code, msg)
            }
        };
        let encode = Instant::now();
        let written = write_frame(&mut writer, &response);
        shared.record_since(split_names(verb)[2], encode);
        if written.is_err() {
            return;
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.dequeue() {
        let verb = job.request.verb();
        let [queue_wait, service, _] = split_names(verb);
        shared.record_since(queue_wait, job.enqueued);
        let response = if Instant::now() > job.deadline {
            mc_obs::counter!("mc.serve.timeouts").inc();
            error_response(
                verb,
                ErrorCode::Timeout,
                "request exceeded its deadline while queued",
            )
        } else {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            // Session verbs guard their own pipeline panics, but a
            // worker must survive *any* panic: a dead worker would
            // strand queued jobs (their reply senders live in the
            // queue) and hang every waiting connection.
            let start = Instant::now();
            let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shared.sessions.execute(&job.request)
            }))
            .unwrap_or_else(|_| {
                error_response(verb, ErrorCode::Internal, "request handler panicked")
            });
            shared.record_since(service, start);
            response
        };
        // A reader that gave up (connection dropped) is fine to ignore.
        let _ = job.reply.send(response);
    }
}
