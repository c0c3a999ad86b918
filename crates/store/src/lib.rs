#![warn(missing_docs)]

//! # mc-store
//!
//! A content-addressed, versioned on-disk artifact store
//! (**`mc-store/v1`**) that turns repeated MatchCatcher debugging
//! iterations from cold starts into warm starts.
//!
//! The debugger is iterative: the user inspects `D`, edits the blocker,
//! and re-runs. Within one process run §4.2's joint execution already
//! reuses overlaps and top-k lists, but every *new* process run rebuilds
//! tokenized tables, dictionaries, per-config arenas, and the candidate
//! union from raw CSVs. This crate persists those intermediates:
//!
//! * artifacts are **content-addressed** — the key is a stable
//!   [`mc_table::Digest`] over the inputs that determine the artifact
//!   (input-table content, tokenizer/measure parameters, `k`, the
//!   killed-pair set — derived in `mc-core`'s `store_io` module), so a
//!   changed input can never hit a stale artifact;
//! * files are written **atomically** (unique temp file + rename), so
//!   concurrent writers and crashes can never expose a half-written
//!   artifact under its final name;
//! * every file carries a fixed-layout 32-byte header (magic, format
//!   version, artifact kind, payload length, payload checksum) and any
//!   mismatch — truncation, bit flips, stale format versions — is
//!   detected on load and **silently treated as a miss** (counted under
//!   `mc.store.corrupt`), falling back to a cold build.
//!
//! The store itself is payload-agnostic: it moves opaque byte payloads.
//! Encoding/decoding of `TokenizedTable`s, `RecordArena`s, and
//! `CandidateUnion`s lives next to those types (in `mc-core`), built on
//! this crate's [`codec`].
//!
//! ## File layout
//!
//! ```text
//! <root>/
//!   STORE_MARKER            "mc-store/v1\n"
//!   objects/
//!     tok/<key-hex>.mcs     tokenization artifacts
//!     arena/<key-hex>.mcs   per-config record arenas (byte codec)
//!     post/<key-hex>.mcs    zero-copy arena/postings payloads (mmap-ready)
//!     union/<key-hex>.mcs   joint-stage candidate unions
//! ```
//!
//! [`Store::load_mapped`] is the zero-copy sibling of [`Store::load`]:
//! instead of reading the file into a `Vec`, it memory-maps it (see
//! [`mmap`]), verifies the same 32-byte header against the mapped bytes,
//! and hands back a [`MappedPayload`] whose payload view borrows the
//! mapping. `mc-core`'s `store_io` layers an alignment-padded CSR layout
//! on top so warm starts point the join at the file's pages directly.
//!
//! ## Metrics
//!
//! `mc.store.{hits,misses,publishes,corrupt,errors}` counters,
//! `mc.store.{mmap_maps,mmap_fallbacks}` for the mapping path,
//! `mc.store.gc.{reclaimed_bytes,skipped_live}` for collection passes,
//! `mc.store.{load,save}` spans, `mc.store.{bytes_on_disk,artifacts}`
//! gauges (refreshed by [`Store::stats`]).

pub mod codec;
pub mod mmap;

pub use codec::{ByteReader, ByteWriter};
pub use mc_table::digest::{Digest, DigestWriter};
pub use mmap::Mapping;

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// On-disk format version; bumping it invalidates every stored artifact.
pub const FORMAT_VERSION: u32 = 2;

/// Artifact file magic.
const MAGIC: [u8; 4] = *b"MCST";

/// Fixed header length in bytes.
const HEADER_LEN: usize = 32;

/// Marker file written at the store root by [`Store::open`].
const MARKER_NAME: &str = "STORE_MARKER";
const MARKER_BODY: &[u8] = b"mc-store/v1\n";

/// Artifact file extension.
const EXT: &str = "mcs";

/// What kind of intermediate an artifact holds. The kind is part of both
/// the on-disk path and the header, so a key collision across kinds (or
/// a file moved between kind directories) can never decode as the wrong
/// type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Per-table-pair tokenizations + token order (`mc-strsim` dicts).
    Tokenization,
    /// One config's flat record arena (CSR token buffer + offsets) in
    /// the byte codec. The pipeline publishes arenas as [`Postings`]
    /// instead; this kind remains for tools that replay or test a store.
    ///
    /// [`Postings`]: ArtifactKind::Postings
    Arena,
    /// The joint stage's candidate union (pairs + per-config scores).
    CandidateUnion,
    /// Zero-copy CSR arena/postings payload: alignment-padded sections
    /// a warm start can memory-map and use in place (no decode pass).
    /// See `mc-core`'s `store_io` for the layout.
    Postings,
}

impl ArtifactKind {
    /// All kinds, in a stable order.
    pub const ALL: [ArtifactKind; 4] = [
        ArtifactKind::Tokenization,
        ArtifactKind::Arena,
        ArtifactKind::CandidateUnion,
        ArtifactKind::Postings,
    ];

    /// Subdirectory name under `objects/`.
    pub fn dir(self) -> &'static str {
        match self {
            ArtifactKind::Tokenization => "tok",
            ArtifactKind::Arena => "arena",
            ArtifactKind::CandidateUnion => "union",
            ArtifactKind::Postings => "post",
        }
    }

    /// Header tag (stable; never reuse a value).
    fn tag(self) -> u32 {
        match self {
            ArtifactKind::Tokenization => 1,
            ArtifactKind::Arena => 2,
            ArtifactKind::CandidateUnion => 3,
            ArtifactKind::Postings => 4,
        }
    }
}

/// Where (and how) a store lives. Carried by `DebuggerParams` as
/// `Option<StoreConfig>`; `None` means every run is cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Store root directory (created on first use).
    pub root: PathBuf,
    /// Byte budget enforced by [`Store::gc`] when invoked without an
    /// explicit budget (`None` = unbounded).
    pub max_bytes: Option<u64>,
}

impl StoreConfig {
    /// A store rooted at `root` with no size budget.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        StoreConfig {
            root: root.into(),
            max_bytes: None,
        }
    }
}

/// Errors opening a store (artifact-level problems never error — they
/// degrade to misses).
#[derive(Debug)]
pub enum StoreError {
    /// The root could not be created or the marker could not be written.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The root exists but carries a marker from an incompatible store
    /// format (e.g. a future `mc-store/v2`).
    IncompatibleMarker {
        /// The marker's first line.
        found: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, error } => write!(f, "store I/O error at {path}: {error}"),
            StoreError::IncompatibleMarker { found } => {
                write!(
                    f,
                    "store root has incompatible marker {found:?} (expected mc-store/v1)"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Aggregate numbers for one artifact kind, as reported by
/// [`Store::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Artifact files present.
    pub files: u64,
    /// Their total size in bytes (headers included).
    pub bytes: u64,
}

/// A point-in-time inventory of the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Per-kind inventory, in [`ArtifactKind::ALL`] order.
    pub kinds: Vec<(&'static str, KindStats)>,
    /// Total artifact files.
    pub files: u64,
    /// Total bytes on disk (artifact files only).
    pub bytes: u64,
    /// Stray temp files left by crashed writers (removed by gc).
    pub stray_tmp: u64,
}

/// What a [`Store::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Artifact files removed (oldest first).
    pub removed_files: u64,
    /// Bytes those files held.
    pub removed_bytes: u64,
    /// Stray temp files removed.
    pub removed_tmp: u64,
    /// Bytes remaining after the pass.
    pub kept_bytes: u64,
    /// Artifacts left in place because a live [`MappedPayload`] still
    /// borrows their pages (see [`Store::gc`]).
    pub skipped_live: u64,
}

/// Process-wide registry of artifact files with outstanding
/// [`MappedPayload`] handles. [`Store::load_mapped`] registers the path;
/// the payload's `Drop` releases it. [`Store::gc`] consults this table so
/// it never unlinks a file some session is still reading through — the
/// portable guarantee (on Linux an unlinked mapping stays valid, but
/// skipping live objects also keeps warm artifacts resident for reuse
/// instead of silently discarding them mid-session).
fn live_mappings() -> &'static Mutex<HashMap<PathBuf, usize>> {
    static LIVE: OnceLock<Mutex<HashMap<PathBuf, usize>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn live_acquire(path: &Path) {
    let mut table = live_mappings().lock().unwrap();
    *table.entry(path.to_path_buf()).or_insert(0) += 1;
}

fn live_release(path: &Path) {
    let mut table = live_mappings().lock().unwrap();
    if let Some(count) = table.get_mut(path) {
        *count -= 1;
        if *count == 0 {
            table.remove(path);
        }
    }
}

fn live_contains(path: &Path) -> bool {
    live_mappings().lock().unwrap().contains_key(path)
}

/// A verified artifact whose payload is a borrowed view of the backing
/// file ([`Store::load_mapped`]) rather than an owned `Vec<u8>`.
///
/// The 32-byte header has already been checked (magic, version, kind
/// tag, length, checksum); [`MappedPayload::payload`] exposes only the
/// payload region. Because the header is exactly 32 bytes and the
/// mapping base is at least 8-byte aligned (page-aligned when truly
/// mmapped), the payload view always starts on an 8-byte boundary —
/// the invariant zero-copy layouts build on.
#[derive(Debug)]
pub struct MappedPayload {
    map: mmap::Mapping,
    payload_at: usize,
    /// Registered in [`live_mappings`] until drop so [`Store::gc`] skips
    /// the backing file while this handle is alive.
    path: PathBuf,
}

impl MappedPayload {
    /// The verified payload bytes (header stripped).
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.map.bytes()[self.payload_at..]
    }

    /// True when backed by a kernel mapping (false on the heap fallback).
    pub fn is_mmap(&self) -> bool {
        self.map.is_mmap()
    }
}

impl Drop for MappedPayload {
    fn drop(&mut self) {
        live_release(&self.path);
    }
}

/// A handle on an opened artifact store.
///
/// All artifact-level operations are infallible by design: [`Store::load`]
/// returns `None` for anything it cannot fully verify, and
/// [`Store::publish`] reports failure with `false` (and a
/// `mc.store.errors` count) without disturbing the caller's cold path.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

/// Process-wide counter making temp-file names unique across threads.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// Opens (creating if necessary) the store at `config.root`.
    pub fn open(config: &StoreConfig) -> Result<Store, StoreError> {
        let root = config.root.clone();
        let io = |path: &Path| {
            let p = path.display().to_string();
            move |error| StoreError::Io { path: p, error }
        };
        fs::create_dir_all(&root).map_err(io(&root))?;
        let marker = root.join(MARKER_NAME);
        match fs::read(&marker) {
            Ok(body) => {
                if body != MARKER_BODY {
                    let found = String::from_utf8_lossy(&body)
                        .lines()
                        .next()
                        .unwrap_or("")
                        .to_string();
                    return Err(StoreError::IncompatibleMarker { found });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                fs::write(&marker, MARKER_BODY).map_err(io(&marker))?;
            }
            Err(error) => {
                return Err(StoreError::Io {
                    path: marker.display().to_string(),
                    error,
                })
            }
        }
        for kind in ArtifactKind::ALL {
            let dir = root.join("objects").join(kind.dir());
            fs::create_dir_all(&dir).map_err(io(&dir))?;
        }
        Ok(Store { root })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, kind: ArtifactKind, key: Digest) -> PathBuf {
        self.root
            .join("objects")
            .join(kind.dir())
            .join(format!("{}.{EXT}", key.to_hex()))
    }

    /// Loads and verifies an artifact. Returns `None` on a miss **or**
    /// on any integrity failure (truncation, bit flips, foreign magic,
    /// stale format version, kind mismatch) — corruption is counted
    /// under `mc.store.corrupt` but otherwise indistinguishable from a
    /// miss, so callers always have a working cold path.
    pub fn load(&self, kind: ArtifactKind, key: Digest) -> Option<Vec<u8>> {
        let _span = mc_obs::span!("mc.store.load", kind.tag() as u64);
        let path = self.object_path(kind, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                mc_obs::counter!("mc.store.misses").inc();
                return None;
            }
        };
        match verify_artifact(&bytes, kind) {
            Some(payload_range) => {
                mc_obs::counter!("mc.store.hits").inc();
                mc_obs::counter!("mc.store.bytes_loaded").add(bytes.len() as u64);
                let mut bytes = bytes;
                bytes.drain(..payload_range);
                Some(bytes)
            }
            None => {
                mc_obs::counter!("mc.store.corrupt").inc();
                mc_obs::counter!("mc.store.misses").inc();
                None
            }
        }
    }

    /// Zero-copy sibling of [`Store::load`]: memory-maps the artifact
    /// file (heap-buffered on targets without mmap support) and runs the
    /// same header verification against the mapped bytes. Counters
    /// behave exactly like [`Store::load`]'s — a corrupt file counts
    /// under `mc.store.corrupt` and degrades to a miss — so callers can
    /// chain `load_mapped → load → rebuild` and every step is accounted.
    pub fn load_mapped(&self, kind: ArtifactKind, key: Digest) -> Option<MappedPayload> {
        let _span = mc_obs::span!("mc.store.load", kind.tag() as u64);
        let path = self.object_path(kind, key);
        let map = match mmap::Mapping::open(&path) {
            Some(m) => m,
            None => {
                mc_obs::counter!("mc.store.misses").inc();
                return None;
            }
        };
        match verify_artifact(map.bytes(), kind) {
            Some(payload_at) => {
                mc_obs::counter!("mc.store.hits").inc();
                mc_obs::counter!("mc.store.bytes_loaded").add(map.bytes().len() as u64);
                live_acquire(&path);
                Some(MappedPayload {
                    map,
                    payload_at,
                    path,
                })
            }
            None => {
                mc_obs::counter!("mc.store.corrupt").inc();
                mc_obs::counter!("mc.store.misses").inc();
                None
            }
        }
    }

    /// Atomically publishes an artifact under its key: the header +
    /// payload are written to a unique temp file in the same directory
    /// and renamed into place, so readers only ever observe complete
    /// files. Publishing the same key twice is idempotent (last rename
    /// wins; contents are equal by construction since keys are
    /// content-derived). Returns `false` (with `mc.store.errors`
    /// counted) if anything fails.
    pub fn publish(&self, kind: ArtifactKind, key: Digest, payload: &[u8]) -> bool {
        let _span = mc_obs::span!("mc.store.save", kind.tag() as u64);
        let path = self.object_path(kind, key);
        let tmp = path.with_extension(format!(
            "{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&encode_header(kind, payload))?;
            f.write_all(payload)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, &path)
        })();
        match result {
            Ok(()) => {
                mc_obs::counter!("mc.store.publishes").inc();
                mc_obs::counter!("mc.store.bytes_written").add((HEADER_LEN + payload.len()) as u64);
                true
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                mc_obs::counter!("mc.store.errors").inc();
                false
            }
        }
    }

    /// Walks the store and reports per-kind file counts and sizes,
    /// refreshing the `mc.store.bytes_on_disk` / `mc.store.artifacts`
    /// gauges.
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats::default();
        for kind in ArtifactKind::ALL {
            let mut ks = KindStats::default();
            for entry in self.kind_entries(kind) {
                if entry.is_tmp {
                    out.stray_tmp += 1;
                } else {
                    ks.files += 1;
                    ks.bytes += entry.len;
                }
            }
            out.files += ks.files;
            out.bytes += ks.bytes;
            out.kinds.push((kind.dir(), ks));
        }
        mc_obs::gauge!("mc.store.bytes_on_disk").set(out.bytes as i64);
        mc_obs::gauge!("mc.store.artifacts").set(out.files as i64);
        out
    }

    /// Garbage-collects the store down to `max_bytes` total artifact
    /// bytes: stray temp files always go, then whole artifacts are
    /// removed oldest-modification-first (path as a deterministic
    /// tie-break) until the budget is met. Artifacts are re-creatable by
    /// construction, so eviction is always safe — **except** files some
    /// concurrent reader still holds a [`MappedPayload`] over, which are
    /// skipped (and counted under `mc.store.gc.skipped_live`) so a
    /// long-running session never loses its warm pages mid-read. Skipped
    /// files keep counting toward `kept_bytes`, so a store full of live
    /// artifacts can legitimately end a pass above budget.
    pub fn gc(&self, max_bytes: u64) -> GcReport {
        let mut report = GcReport::default();
        let mut entries: Vec<StoreEntry> = Vec::new();
        for kind in ArtifactKind::ALL {
            for entry in self.kind_entries(kind) {
                if entry.is_tmp {
                    if fs::remove_file(&entry.path).is_ok() {
                        report.removed_tmp += 1;
                    }
                } else {
                    entries.push(entry);
                }
            }
        }
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        entries.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
        for entry in &entries {
            if total <= max_bytes {
                break;
            }
            if live_contains(&entry.path) {
                report.skipped_live += 1;
                continue;
            }
            if fs::remove_file(&entry.path).is_ok() {
                report.removed_files += 1;
                report.removed_bytes += entry.len;
                total -= entry.len;
            }
        }
        report.kept_bytes = total;
        mc_obs::counter!("mc.store.gc_removed").add(report.removed_files);
        mc_obs::counter!("mc.store.gc.reclaimed_bytes").add(report.removed_bytes);
        mc_obs::counter!("mc.store.gc.skipped_live").add(report.skipped_live);
        mc_obs::gauge!("mc.store.bytes_on_disk").set(total as i64);
        report
    }

    fn kind_entries(&self, kind: ArtifactKind) -> Vec<StoreEntry> {
        let dir = self.root.join("objects").join(kind.dir());
        let mut out = Vec::new();
        let Ok(read) = fs::read_dir(&dir) else {
            return out;
        };
        for entry in read.flatten() {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let is_tmp = name.ends_with(".tmp");
            if !is_tmp && !name.ends_with(&format!(".{EXT}")) {
                continue;
            }
            out.push(StoreEntry {
                path,
                len: meta.len(),
                mtime: meta.modified().ok(),
                is_tmp,
            });
        }
        out
    }
}

struct StoreEntry {
    path: PathBuf,
    len: u64,
    mtime: Option<std::time::SystemTime>,
    is_tmp: bool,
}

const CK_P1: u64 = 0x9E37_79B1_85EB_CA87;
const CK_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const CK_P3: u64 = 0x1656_67B1_9E37_79F9;
const CK_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const CK_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane step: a bijection of the lane for a fixed word and of the
/// word for a fixed lane (odd multipliers, add, rotate).
#[inline(always)]
fn ck_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(CK_P2))
        .rotate_left(31)
        .wrapping_mul(CK_P1)
}

/// The store's payload checksum: four independent 64-bit lanes of
/// multiply-rotate steps over little-endian `u64` words (32 bytes per
/// stripe), then the remaining words and tail bytes, then an avalanche.
/// Every step is a bijection of the running state and of the word or
/// byte it absorbs, so changing any single word or tail byte always
/// changes the result. Word-wise, it runs several times faster than a
/// byte-serial hash over the megabytes a cold run publishes.
pub fn payload_checksum(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [CK_P1.wrapping_add(CK_P2), CK_P2, 0, CK_P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = ck_round(*lane, word(w));
            }
        }
        lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18))
    } else {
        CK_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ ck_round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(CK_P1)
            .wrapping_add(CK_P4);
    }
    for &b in words.remainder() {
        h = (h ^ (b as u64).wrapping_mul(CK_P5))
            .rotate_left(11)
            .wrapping_mul(CK_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(CK_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(CK_P3);
    h ^ (h >> 32)
}

/// Builds the 32-byte artifact header:
///
/// ```text
/// offset  size  field
///      0     4  magic "MCST"
///      4     4  format version (LE u32)
///      8     4  artifact kind tag (LE u32)
///     12     4  reserved (0)
///     16     8  payload length (LE u64)
///     24     8  payload checksum (LE u64, see [`payload_checksum`])
/// ```
fn encode_header(kind: ArtifactKind, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..12].copy_from_slice(&kind.tag().to_le_bytes());
    h[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[24..32].copy_from_slice(&payload_checksum(payload).to_le_bytes());
    h
}

/// Verifies a whole artifact file; returns the payload offset if every
/// check passes.
fn verify_artifact(bytes: &[u8], kind: ArtifactKind) -> Option<usize> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    if header[0..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return None;
    }
    let tag = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if tag != kind.tag() {
        return None;
    }
    let len = u64::from_le_bytes(header[16..24].try_into().unwrap());
    if len != payload.len() as u64 {
        return None;
    }
    let hash = u64::from_le_bytes(header[24..32].try_into().unwrap());
    if hash != payload_checksum(payload) {
        return None;
    }
    Some(HEADER_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_table::digest::digest_bytes;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_store() -> (Store, PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "mc_store_test_{}_{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = Store::open(&StoreConfig::at(&root)).unwrap();
        (store, root)
    }

    #[test]
    fn publish_then_load_roundtrips() {
        let (store, root) = temp_store();
        let key = digest_bytes(b"some key material");
        let payload = b"the artifact payload".to_vec();
        assert_eq!(store.load(ArtifactKind::Arena, key), None, "cold miss");
        assert!(store.publish(ArtifactKind::Arena, key, &payload));
        assert_eq!(store.load(ArtifactKind::Arena, key), Some(payload.clone()));
        // Same key under a different kind is independent.
        assert_eq!(store.load(ArtifactKind::Tokenization, key), None);
        // Republishing is idempotent.
        assert!(store.publish(ArtifactKind::Arena, key, &payload));
        assert_eq!(store.load(ArtifactKind::Arena, key), Some(payload));
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn reopen_preserves_artifacts() {
        let (store, root) = temp_store();
        let key = digest_bytes(b"k");
        assert!(store.publish(ArtifactKind::CandidateUnion, key, b"v"));
        drop(store);
        let again = Store::open(&StoreConfig::at(&root)).unwrap();
        assert_eq!(
            again.load(ArtifactKind::CandidateUnion, key),
            Some(b"v".to_vec())
        );
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn incompatible_marker_is_rejected() {
        let (_, root) = temp_store();
        fs::write(root.join(MARKER_NAME), b"mc-store/v9\n").unwrap();
        match Store::open(&StoreConfig::at(&root)) {
            Err(StoreError::IncompatibleMarker { found }) => assert_eq!(found, "mc-store/v9"),
            other => panic!("expected marker rejection, got {other:?}"),
        }
        fs::remove_dir_all(root).ok();
    }

    fn artifact_file(store: &Store, kind: ArtifactKind, key: Digest) -> PathBuf {
        store.object_path(kind, key)
    }

    #[test]
    fn truncated_artifact_is_a_silent_miss() {
        let (store, root) = temp_store();
        let key = digest_bytes(b"t");
        store.publish(ArtifactKind::Arena, key, b"0123456789abcdef");
        let path = artifact_file(&store, ArtifactKind::Arena, key);
        let full = fs::read(&path).unwrap();
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(store.load(ArtifactKind::Arena, key), None, "cut at {cut}");
        }
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn bit_flip_anywhere_is_a_silent_miss() {
        let (store, root) = temp_store();
        let key = digest_bytes(b"b");
        store.publish(ArtifactKind::Arena, key, b"payload bytes here");
        let path = artifact_file(&store, ArtifactKind::Arena, key);
        let full = fs::read(&path).unwrap();
        for pos in [0, 5, 9, 20, 27, HEADER_LEN, full.len() - 1] {
            let mut flipped = full.clone();
            flipped[pos] ^= 0x40;
            fs::write(&path, &flipped).unwrap();
            assert_eq!(store.load(ArtifactKind::Arena, key), None, "flip at {pos}");
        }
        // Restoring the original bytes restores the hit.
        fs::write(&path, &full).unwrap();
        assert!(store.load(ArtifactKind::Arena, key).is_some());
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn checksum_catches_every_single_byte_flip() {
        // A flip at the first, a middle, the last and a tail position,
        // for every length across the 32-byte stripes, the 8-byte words
        // and the tail bytes.
        for len in 1..=97usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let base = payload_checksum(&bytes);
            let tail = len - len % 8;
            let positions = [0, len / 2, len - 1, tail.min(len - 1)];
            for pos in positions {
                for bit in [0x01u8, 0x80, 0xff] {
                    let mut flipped = bytes.clone();
                    flipped[pos] ^= bit;
                    assert_ne!(
                        payload_checksum(&flipped),
                        base,
                        "len {len} pos {pos} bit {bit:#x}"
                    );
                }
            }
            // Length is covered too: a zero byte appended or dropped.
            assert_ne!(payload_checksum(&bytes[..len - 1]), base, "len {len}");
        }
    }

    #[test]
    fn stale_format_version_is_a_silent_miss() {
        let (store, root) = temp_store();
        let key = digest_bytes(b"v");
        store.publish(ArtifactKind::Arena, key, b"versioned");
        let path = artifact_file(&store, ArtifactKind::Arena, key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(ArtifactKind::Arena, key), None);
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn stats_and_gc_enforce_budget_oldest_first() {
        let (store, root) = temp_store();
        let keys: Vec<Digest> = (0..4u8).map(|i| digest_bytes(&[i])).collect();
        for (i, &key) in keys.iter().enumerate() {
            store.publish(ArtifactKind::Arena, key, &[i as u8; 100]);
            // Distinct mtimes, oldest first.
            let path = artifact_file(&store, ArtifactKind::Arena, key);
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000 + i as u64);
            let f = fs::File::options().append(true).open(&path).unwrap();
            f.set_modified(t).unwrap();
        }
        // A stray tmp file from a "crashed" writer.
        fs::write(
            root.join("objects").join("arena").join("dead.1.2.tmp"),
            b"junk",
        )
        .unwrap();
        let stats = store.stats();
        assert_eq!(stats.files, 4);
        assert_eq!(stats.bytes, 4 * (100 + HEADER_LEN as u64));
        assert_eq!(stats.stray_tmp, 1);

        // Budget for two artifacts: the two oldest must go.
        let budget = 2 * (100 + HEADER_LEN as u64);
        let report = store.gc(budget);
        assert_eq!(report.removed_tmp, 1);
        assert_eq!(report.removed_files, 2);
        assert_eq!(report.kept_bytes, budget);
        assert_eq!(store.load(ArtifactKind::Arena, keys[0]), None);
        assert_eq!(store.load(ArtifactKind::Arena, keys[1]), None);
        assert!(store.load(ArtifactKind::Arena, keys[2]).is_some());
        assert!(store.load(ArtifactKind::Arena, keys[3]).is_some());
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn load_mapped_verifies_header_and_exposes_aligned_payload() {
        let (store, root) = temp_store();
        let key = digest_bytes(b"zc");
        let payload: Vec<u8> = (0..200u8).collect();
        assert!(store.load_mapped(ArtifactKind::Postings, key).is_none());
        assert!(store.publish(ArtifactKind::Postings, key, &payload));
        let mapped = store.load_mapped(ArtifactKind::Postings, key).expect("hit");
        assert_eq!(mapped.payload(), &payload[..]);
        assert_eq!(
            mapped.payload().as_ptr() as usize % 8,
            0,
            "payload must start 8-aligned (header is 32 bytes)"
        );
        // Kind confusion is rejected just like Store::load.
        assert!(store.load_mapped(ArtifactKind::Arena, key).is_none());
        // A flipped payload byte fails the checksum.
        let path = artifact_file(&store, ArtifactKind::Postings, key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 3] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_mapped(ArtifactKind::Postings, key).is_none());
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn postings_kind_is_accounted_by_stats_and_gc() {
        let (store, root) = temp_store();
        store.publish(ArtifactKind::Postings, digest_bytes(b"p"), &[7u8; 64]);
        store.publish(ArtifactKind::Arena, digest_bytes(b"a"), &[1u8; 32]);
        let stats = store.stats();
        assert_eq!(stats.files, 2);
        let post = stats
            .kinds
            .iter()
            .find(|(name, _)| *name == "post")
            .expect("post kind listed");
        assert_eq!(post.1.files, 1);
        assert_eq!(post.1.bytes, 64 + HEADER_LEN as u64);
        // gc sees postings files too: budget 0 removes both.
        let report = store.gc(0);
        assert_eq!(report.removed_files, 2);
        assert_eq!(report.kept_bytes, 0);
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn gc_skips_artifacts_with_live_mapped_handles() {
        let (store, root) = temp_store();
        let live_key = digest_bytes(b"live artifact");
        let dead_key = digest_bytes(b"dead artifact");
        store.publish(ArtifactKind::Postings, live_key, &[1u8; 128]);
        store.publish(ArtifactKind::Postings, dead_key, &[2u8; 128]);
        // Make the live artifact the *older* one so oldest-first eviction
        // would pick it absent the live-handle guard.
        for (key, secs) in [(live_key, 1_000u64), (dead_key, 2_000)] {
            let path = artifact_file(&store, ArtifactKind::Postings, key);
            let f = fs::File::options().append(true).open(&path).unwrap();
            f.set_modified(
                std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs),
            )
            .unwrap();
        }
        let ctx = mc_obs::ObsContext::session();
        let mapped = {
            let _g = ctx.attach();
            store.load_mapped(ArtifactKind::Postings, live_key).unwrap()
        };
        let report = {
            let _g = ctx.attach();
            store.gc(0)
        };
        assert_eq!(report.skipped_live, 1);
        assert_eq!(report.removed_files, 1, "only the unmapped artifact goes");
        let artifact_len = 128 + HEADER_LEN as u64;
        assert_eq!(report.removed_bytes, artifact_len);
        assert_eq!(report.kept_bytes, artifact_len);
        // The mapped payload is still fully readable after the pass.
        assert_eq!(mapped.payload(), &[1u8; 128]);
        assert!(store.load(ArtifactKind::Postings, live_key).is_some());
        assert_eq!(store.load(ArtifactKind::Postings, dead_key), None);
        let snap = ctx.snapshot();
        assert_eq!(snap.counter("mc.store.gc.skipped_live"), 1);
        assert_eq!(snap.counter("mc.store.gc.reclaimed_bytes"), artifact_len);
        // Dropping the handle releases the guard; the next pass collects.
        drop(mapped);
        let report = store.gc(0);
        assert_eq!(report.skipped_live, 0);
        assert_eq!(report.removed_files, 1);
        assert_eq!(report.kept_bytes, 0);
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn gc_with_generous_budget_removes_nothing() {
        let (store, root) = temp_store();
        let key = digest_bytes(b"keep");
        store.publish(ArtifactKind::Tokenization, key, b"data");
        let report = store.gc(u64::MAX);
        assert_eq!(report.removed_files, 0);
        assert!(store.load(ArtifactKind::Tokenization, key).is_some());
        fs::remove_dir_all(root).ok();
    }
}
