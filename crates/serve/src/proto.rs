//! Request/response schema: typed views over the JSON frames.
//!
//! Requests are objects with a `"verb"` member; everything else is
//! verb-specific. Responses are `{"ok": true, "verb": ..., ...payload}`
//! or `{"ok": false, "verb": ..., "error": {"code", "message"}}`. Error
//! codes are a closed set ([`ErrorCode`]) so clients can switch on them
//! without string-matching messages.

use matchcatcher::explain::MatchExplanation;
use matchcatcher::DebugReport;
use mc_obs::JsonValue;
use mc_table::{RowEdit, Schema, TableDelta, Tuple, TupleId};

/// Protocol schema tag, included in `open` responses.
pub const PROTO_VERSION: &str = "mc-serve/v1";

/// Schema tag of the batch explain payloads (`explain` / `pervade`
/// responses): per-attribute diagnosis, per-config score contributions
/// and threshold gaps, signature aggregates.
pub const EXPLAIN_VERSION: &str = "mc-explain/v1";

/// Structured error codes carried in `"error": {"code": ...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was not parseable against the verb's schema.
    BadRequest,
    /// The session id was never issued (or already closed).
    UnknownSession,
    /// The session existed but was evicted (LRU / resident-byte budget).
    SessionEvicted,
    /// The work queue is full — retry with backoff.
    Busy,
    /// The request exceeded its deadline while queued.
    Timeout,
    /// The daemon is draining; no new work is accepted.
    ShuttingDown,
    /// The request failed while executing.
    Internal,
}

impl ErrorCode {
    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::SessionEvicted => "session_evicted",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A table delta, as requested over the wire: either spelled out row by
/// row, or a deterministic generator spec the server materializes
/// against the session's *current* table (keeps load-generator frames
/// small while staying reproducible client-side).
#[derive(Debug, Clone)]
pub enum ReqDelta {
    /// Explicit updates/deletes/inserts.
    Explicit(TableDelta),
    /// `mc_datagen::delta::random_delta(table, fraction_of(rows, frac), seed)`.
    Scripted {
        /// Fraction of rows to touch; a rerun answers `bad_request`
        /// unless it lies in `[0, 1]`.
        frac: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// A killed-set change: replace outright, perturb deterministically, or
/// keep.
#[derive(Debug, Clone)]
pub enum ReqKilled {
    /// Keep the current killed set.
    Keep,
    /// Replace with exactly these pairs.
    Replace(Vec<(TupleId, TupleId)>),
    /// `mc_datagen::delta::perturb_killed(current, ...)`.
    Perturb {
        /// Probability of dropping each existing pair.
        unkill_rate: f64,
        /// Fresh random pairs to add; a rerun answers `bad_request` when
        /// the current pairs plus these, 8 bytes each, would exceed the
        /// daemon's `max_resident_bytes`.
        kills: usize,
        /// RNG seed.
        seed: u64,
    },
}

/// Where a session's tables come from.
#[derive(Debug, Clone)]
pub enum TableSource {
    /// A scaled `mc-datagen` profile; the killed set is a hash blocker
    /// on `blocker_attr` and the generator's gold matches back the
    /// labeling oracle.
    Profile {
        /// Profile name (`"fodors-zagats"`, ...).
        name: String,
        /// Table-size multiplier.
        scale: f64,
        /// Generator seed.
        seed: u64,
        /// Attribute the hash blocker keys on.
        blocker_attr: u16,
    },
    /// Inline tables: a shared schema, rows for both sides, an explicit
    /// killed set, and optional gold matches for the oracle.
    Inline {
        /// Attribute names (shared by both tables).
        schema: Vec<String>,
        /// Rows of table A (`null` = missing value).
        rows_a: Vec<Vec<Option<String>>>,
        /// Rows of table B.
        rows_b: Vec<Vec<Option<String>>>,
        /// Killed pairs.
        killed: Vec<(TupleId, TupleId)>,
        /// Gold matches backing the oracle (absent → only labels).
        gold: Vec<(TupleId, TupleId)>,
    },
}

/// Pipeline parameter overrides accepted by `open`, applied over
/// `DebuggerParams::small()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenParams {
    /// Per-config top-k list size.
    pub k: Option<usize>,
    /// Fixed QJoin `q` (sessions reject `Auto`).
    pub q: Option<usize>,
    /// Incremental maintenance margin.
    pub margin: Option<usize>,
    /// Joint-stage worker threads.
    pub threads: Option<usize>,
    /// Verifier pairs shown per iteration.
    pub n_per_iter: Option<usize>,
}

/// A parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Open a session.
    Open {
        /// Table source.
        source: TableSource,
        /// Parameter overrides.
        params: OpenParams,
    },
    /// Delta rerun against an open session.
    Rerun {
        /// Session id from `open`.
        session: u64,
        /// Delta for table A.
        delta_a: Option<ReqDelta>,
        /// Delta for table B.
        delta_b: Option<ReqDelta>,
        /// Killed-set change.
        killed: ReqKilled,
    },
    /// Page through the last report's killed matches + explanations.
    Page {
        /// Session id.
        session: u64,
        /// First match index.
        offset: usize,
        /// Maximum matches returned.
        limit: usize,
    },
    /// Record a user label for a pair (overrides gold for future
    /// verifier iterations).
    Label {
        /// Session id.
        session: u64,
        /// Left tuple.
        a: TupleId,
        /// Right tuple.
        b: TupleId,
        /// The label.
        is_match: bool,
    },
    /// Batch explain: page through the last report's explanations in
    /// the `mc-explain/v1` schema (per-attribute diagnosis, per-config
    /// score contributions, threshold gap).
    Explain {
        /// Session id.
        session: u64,
        /// First explanation index.
        offset: usize,
        /// Maximum explanations returned.
        limit: usize,
    },
    /// Pervasiveness aggregates over the full candidate union: problem
    /// signatures with pair counts and "this problem kills N matches"
    /// confirmed counts.
    Pervade {
        /// Session id.
        session: u64,
        /// Maximum groups returned (most pervasive first).
        limit: usize,
    },
    /// Run [`mc_store::Store::gc`] on the daemon's shared warm tier.
    Gc {
        /// Byte budget the store is trimmed down to.
        max_bytes: u64,
    },
    /// The session's metrics snapshot.
    Metrics {
        /// Session id.
        session: u64,
    },
    /// Close a session.
    Close {
        /// Session id.
        session: u64,
    },
    /// Drain and stop the daemon.
    Shutdown,
}

impl Request {
    /// The verb string (echoed in responses).
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Rerun { .. } => "rerun",
            Request::Page { .. } => "page",
            Request::Explain { .. } => "explain",
            Request::Pervade { .. } => "pervade",
            Request::Gc { .. } => "gc",
            Request::Label { .. } => "label",
            Request::Metrics { .. } => "metrics",
            Request::Close { .. } => "close",
            Request::Shutdown => "shutdown",
        }
    }
}

fn want_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer {key:?}"))
}

fn opt_usize(v: &JsonValue, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("non-integer {key:?}")),
    }
}

fn want_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric {key:?}"))
}

fn pair_list(v: &JsonValue, key: &str) -> Result<Vec<(TupleId, TupleId)>, String> {
    let Some(arr) = v.get(key).and_then(JsonValue::as_array) else {
        return Err(format!("missing or non-array {key:?}"));
    };
    arr.iter()
        .map(|p| {
            let pair = p.as_array().filter(|a| a.len() == 2);
            let (x, y) = pair
                .and_then(|a| Some((a[0].as_u64()?, a[1].as_u64()?)))
                .ok_or_else(|| format!("{key:?} entries must be [a, b] id pairs"))?;
            Ok((x as TupleId, y as TupleId))
        })
        .collect()
}

fn values_row(v: &JsonValue) -> Result<Vec<Option<String>>, String> {
    let Some(arr) = v.as_array() else {
        return Err("rows must be arrays of values".into());
    };
    arr.iter()
        .map(|cell| match cell {
            JsonValue::Null => Ok(None),
            JsonValue::Str(s) => Ok(Some(s.clone())),
            _ => Err("cell values must be strings or null".into()),
        })
        .collect()
}

fn parse_delta(v: &JsonValue, key: &str) -> Result<Option<ReqDelta>, String> {
    let Some(d) = v.get(key) else {
        return Ok(None);
    };
    if matches!(d, JsonValue::Null) {
        return Ok(None);
    }
    if let Some(spec) = d.get("spec") {
        return Ok(Some(ReqDelta::Scripted {
            frac: want_f64(spec, "frac")?,
            seed: want_u64(spec, "seed")?,
        }));
    }
    let updates = match d.get("updates").and_then(JsonValue::as_array) {
        Some(ups) => ups
            .iter()
            .map(|u| {
                let id = want_u64(u, "id")? as TupleId;
                let values = u
                    .get("values")
                    .ok_or("update entries need \"values\"")
                    .and_then(|v| values_row(v).map_err(|_| "bad update values"))
                    .map_err(String::from)?;
                Ok(RowEdit {
                    id,
                    tuple: Tuple::new(values),
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    let deletes = match d.get("deletes").and_then(JsonValue::as_array) {
        Some(ds) => ds
            .iter()
            .map(|x| {
                x.as_u64()
                    .map(|n| n as TupleId)
                    .ok_or_else(|| "deletes must be tuple ids".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    let inserts = match d.get("inserts").and_then(JsonValue::as_array) {
        Some(ins) => ins
            .iter()
            .map(|row| values_row(row).map(Tuple::new))
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    Ok(Some(ReqDelta::Explicit(TableDelta {
        updates,
        deletes,
        inserts,
    })))
}

/// Parses one request frame.
pub fn parse_request(v: &JsonValue) -> Result<Request, String> {
    let verb = v
        .get("verb")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"verb\"")?;
    match verb {
        "open" => {
            let params = OpenParams {
                k: opt_usize(v, "k")?,
                q: opt_usize(v, "q")?,
                margin: opt_usize(v, "margin")?,
                threads: opt_usize(v, "threads")?,
                n_per_iter: opt_usize(v, "n_per_iter")?,
            };
            let source = if let Some(profile) = v.get("profile") {
                TableSource::Profile {
                    name: profile
                        .as_str()
                        .ok_or("\"profile\" must be a name string")?
                        .to_string(),
                    scale: want_f64(v, "scale")?,
                    seed: want_u64(v, "seed")?,
                    blocker_attr: want_u64(v, "blocker_attr")? as u16,
                }
            } else if let Some(tables) = v.get("tables") {
                let schema = tables
                    .get("schema")
                    .and_then(JsonValue::as_array)
                    .ok_or("\"tables.schema\" must be an array of names")?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "schema names must be strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let rows = |key: &str| -> Result<Vec<Vec<Option<String>>>, String> {
                    tables
                        .get(key)
                        .and_then(JsonValue::as_array)
                        .ok_or_else(|| format!("\"tables.{key}\" must be an array of rows"))?
                        .iter()
                        .map(values_row)
                        .collect()
                };
                TableSource::Inline {
                    schema,
                    rows_a: rows("a")?,
                    rows_b: rows("b")?,
                    killed: pair_list(v, "killed")?,
                    gold: if v.get("gold").is_some() {
                        pair_list(v, "gold")?
                    } else {
                        Vec::new()
                    },
                }
            } else {
                return Err("open needs either \"profile\" or \"tables\"".into());
            };
            Ok(Request::Open { source, params })
        }
        "rerun" => {
            let killed = if v.get("killed").is_some() {
                ReqKilled::Replace(pair_list(v, "killed")?)
            } else if let Some(p) = v.get("perturb_killed") {
                ReqKilled::Perturb {
                    unkill_rate: want_f64(p, "unkill_rate")?,
                    kills: want_u64(p, "kills")? as usize,
                    seed: want_u64(p, "seed")?,
                }
            } else {
                ReqKilled::Keep
            };
            Ok(Request::Rerun {
                session: want_u64(v, "session")?,
                delta_a: parse_delta(v, "delta_a")?,
                delta_b: parse_delta(v, "delta_b")?,
                killed,
            })
        }
        "page" => Ok(Request::Page {
            session: want_u64(v, "session")?,
            offset: opt_usize(v, "offset")?.unwrap_or(0),
            limit: opt_usize(v, "limit")?.unwrap_or(20),
        }),
        "explain" => Ok(Request::Explain {
            session: want_u64(v, "session")?,
            offset: opt_usize(v, "offset")?.unwrap_or(0),
            limit: opt_usize(v, "limit")?.unwrap_or(20),
        }),
        "pervade" => Ok(Request::Pervade {
            session: want_u64(v, "session")?,
            limit: opt_usize(v, "limit")?.unwrap_or(20),
        }),
        "gc" => Ok(Request::Gc {
            max_bytes: want_u64(v, "max_bytes")?,
        }),
        "label" => {
            let pair = pair_list(v, "pair").and_then(|p| {
                (p.len() == 1)
                    .then(|| p[0])
                    .ok_or_else(|| "\"pair\" must be one [a, b] pair".to_string())
            });
            // Accept both {"pair": [[a,b]]} and {"a": ..., "b": ...}.
            let (a, b) = match pair {
                Ok(p) => p,
                Err(_) => (want_u64(v, "a")? as TupleId, want_u64(v, "b")? as TupleId),
            };
            Ok(Request::Label {
                session: want_u64(v, "session")?,
                a,
                b,
                is_match: v
                    .get("is_match")
                    .and_then(JsonValue::as_bool)
                    .ok_or("missing or non-boolean \"is_match\"")?,
            })
        }
        "metrics" => Ok(Request::Metrics {
            session: want_u64(v, "session")?,
        }),
        "close" => Ok(Request::Close {
            session: want_u64(v, "session")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// The `{"ok": true}` response envelope with a verb echo and payload
/// members appended.
pub fn ok_response(verb: &str, payload: Vec<(String, JsonValue)>) -> JsonValue {
    let mut members: Vec<(String, JsonValue)> =
        vec![("ok".into(), true.into()), ("verb".into(), verb.into())];
    members.extend(payload);
    JsonValue::Obj(members)
}

/// The `{"ok": false}` envelope with a structured error.
pub fn error_response(verb: &str, code: ErrorCode, message: &str) -> JsonValue {
    JsonValue::Obj(vec![
        ("ok".into(), false.into()),
        ("verb".into(), verb.into()),
        (
            "error".into(),
            JsonValue::Obj(vec![
                ("code".into(), code.as_str().into()),
                ("message".into(), message.into()),
            ]),
        ),
    ])
}

/// Serializes pairs as `[[a, b], ...]`.
pub fn pairs_json(pairs: impl IntoIterator<Item = (TupleId, TupleId)>) -> JsonValue {
    JsonValue::Arr(
        pairs
            .into_iter()
            .map(|(a, b)| JsonValue::Arr(vec![(a as u64).into(), (b as u64).into()]))
            .collect(),
    )
}

/// The result-bearing report fields as a deterministic JSON object —
/// the identity surface: a warm `rerun` summary must be byte-identical
/// to the summary of a cold `MatchCatcher::run` on the patched tables
/// (metrics are deliberately excluded; they differ by construction).
pub fn report_summary(report: &DebugReport) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "confirmed".into(),
            pairs_json(report.confirmed_matches.iter().copied()),
        ),
        ("e_size".into(), report.e_size.into()),
        ("q_used".into(), report.q_used.into()),
        ("labeled".into(), report.labeled.into()),
        (
            "iterations".into(),
            JsonValue::Arr(
                report
                    .iterations
                    .iter()
                    .map(|it| {
                        JsonValue::Obj(vec![
                            ("shown".into(), it.shown.into()),
                            ("matches_found".into(), it.matches_found.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "problems".into(),
            JsonValue::Arr(
                report
                    .problems
                    .iter()
                    .map(|(text, n)| JsonValue::Arr(vec![text.as_str().into(), (*n).into()]))
                    .collect(),
            ),
        ),
    ])
}

/// One killed match + its per-attribute explain payload, for `page`.
pub fn explanation_json(exp: &MatchExplanation, schema: &Schema) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "pair".into(),
            JsonValue::Arr(vec![(exp.pair.0 as u64).into(), (exp.pair.1 as u64).into()]),
        ),
        (
            "attrs".into(),
            JsonValue::Arr(
                exp.per_attr
                    .iter()
                    .map(|&(attr, diag)| {
                        JsonValue::Obj(vec![
                            ("attr".into(), (attr.0 as u64).into()),
                            ("name".into(), schema.name(attr).into()),
                            ("diagnosis".into(), diag.label().into_owned().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One explanation in the `mc-explain/v1` schema: the per-attribute
/// diagnoses of [`explanation_json`] plus an `agreement` flag per
/// attribute and, per config, the pair's score contribution, the
/// config's top-k floor, and the gap above it.
pub fn explain_item_json(report: &DebugReport, idx: usize, schema: &Schema) -> JsonValue {
    let exp = &report.explanations[idx];
    let attrs = JsonValue::Arr(
        exp.per_attr
            .iter()
            .map(|&(attr, diag)| {
                JsonValue::Obj(vec![
                    ("attr".into(), (attr.0 as u64).into()),
                    ("name".into(), schema.name(attr).into()),
                    ("diagnosis".into(), diag.label().into_owned().into()),
                    ("agreement".into(), diag.is_agreement().into()),
                ])
            })
            .collect(),
    );
    let opt_num = |v: Option<f64>| match v {
        Some(x) => JsonValue::Num(x),
        None => JsonValue::Null,
    };
    let scores = JsonValue::Arr(
        report
            .configs
            .iter()
            .enumerate()
            .map(|(c, config)| {
                let attrs_label = config
                    .positions()
                    .iter()
                    .filter_map(|&p| report.promising.get(p))
                    .map(|&a| schema.name(a).to_string())
                    .collect::<Vec<_>>()
                    .join("+");
                let score = report
                    .explanation_scores
                    .get(idx)
                    .and_then(|s| s.get(c).copied().flatten());
                let floor = report.config_floors.get(c).copied().flatten();
                let gap = match (score, floor) {
                    (Some(s), Some(f)) => Some(s - f),
                    _ => None,
                };
                JsonValue::Obj(vec![
                    ("config".into(), (c as u64).into()),
                    ("attrs".into(), attrs_label.into()),
                    ("score".into(), opt_num(score)),
                    ("floor".into(), opt_num(floor)),
                    ("gap".into(), opt_num(gap)),
                ])
            })
            .collect(),
    );
    JsonValue::Obj(vec![
        (
            "pair".into(),
            JsonValue::Arr(vec![(exp.pair.0 as u64).into(), (exp.pair.1 as u64).into()]),
        ),
        ("attrs".into(), attrs),
        ("scores".into(), scores),
    ])
}

/// One pervasiveness group in the `mc-explain/v1` schema: the shared
/// problem signature, how many candidate pairs exhibit it, and how many
/// confirmed killed-off matches it kills.
pub fn pervade_group_json(
    group: &matchcatcher::pervasive::ProblemGroup,
    schema: &Schema,
) -> JsonValue {
    JsonValue::Obj(vec![
        ("signature".into(), group.signature.describe(schema).into()),
        (
            "problems".into(),
            JsonValue::Arr(
                group
                    .signature
                    .problems()
                    .iter()
                    .map(|&(attr, class)| {
                        JsonValue::Obj(vec![
                            ("attr".into(), (attr.0 as u64).into()),
                            ("name".into(), schema.name(attr).into()),
                            ("class".into(), class.label().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("pairs".into(), group.pairs.len().into()),
        ("kills".into(), group.confirmed.into()),
        (
            "sample".into(),
            pairs_json(group.pairs.iter().copied().take(3)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, String> {
        parse_request(&JsonValue::parse(text).unwrap())
    }

    #[test]
    fn parses_profile_open() {
        let req = parse(
            r#"{"verb":"open","profile":"fodors-zagats","scale":0.4,"seed":11,
                "blocker_attr":0,"k":50,"q":1,"margin":16}"#,
        )
        .unwrap();
        let Request::Open { source, params } = req else {
            panic!("not an open");
        };
        let TableSource::Profile {
            name,
            scale,
            seed,
            blocker_attr,
        } = source
        else {
            panic!("not a profile source");
        };
        assert_eq!(
            (name.as_str(), scale, seed, blocker_attr),
            ("fodors-zagats", 0.4, 11, 0)
        );
        assert_eq!(
            (params.k, params.q, params.margin),
            (Some(50), Some(1), Some(16))
        );
        assert_eq!(params.n_per_iter, None);
    }

    #[test]
    fn parses_inline_open_and_rerun_deltas() {
        let req = parse(
            r#"{"verb":"open",
                "tables":{"schema":["name","city"],
                          "a":[["Dave","LA"],[null,"NY"]],
                          "b":[["Dav","LA"]]},
                "killed":[[0,0]],"gold":[[0,0]]}"#,
        )
        .unwrap();
        let Request::Open {
            source:
                TableSource::Inline {
                    schema,
                    rows_a,
                    rows_b,
                    killed,
                    gold,
                },
            ..
        } = req
        else {
            panic!("not an inline open");
        };
        assert_eq!(schema, vec!["name", "city"]);
        assert_eq!(rows_a[1][0], None);
        assert_eq!(rows_b.len(), 1);
        assert_eq!(killed, vec![(0, 0)]);
        assert_eq!(gold, vec![(0, 0)]);

        let req = parse(
            r#"{"verb":"rerun","session":3,
                "delta_a":{"updates":[{"id":1,"values":["x",null]}],"deletes":[0]},
                "delta_b":{"spec":{"frac":0.05,"seed":9}},
                "killed":[[1,0]]}"#,
        )
        .unwrap();
        let Request::Rerun {
            session,
            delta_a,
            delta_b,
            killed,
        } = req
        else {
            panic!("not a rerun");
        };
        assert_eq!(session, 3);
        let Some(ReqDelta::Explicit(da)) = delta_a else {
            panic!("explicit delta expected");
        };
        assert_eq!(da.updates.len(), 1);
        assert_eq!(da.deletes, vec![0]);
        assert!(matches!(
            delta_b,
            Some(ReqDelta::Scripted { frac, seed: 9 }) if frac == 0.05
        ));
        assert!(matches!(killed, ReqKilled::Replace(p) if p == vec![(1, 0)]));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            r#"{"no_verb":1}"#,
            r#"{"verb":"nope"}"#,
            r#"{"verb":"open"}"#,
            r#"{"verb":"open","profile":"x","scale":0.1}"#,
            r#"{"verb":"rerun"}"#,
            r#"{"verb":"label","session":1,"a":0,"b":1}"#,
            r#"{"verb":"page"}"#,
            r#"{"verb":"explain"}"#,
            r#"{"verb":"pervade"}"#,
            r#"{"verb":"gc"}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn parses_explain_pervade_gc() {
        let req = parse(r#"{"verb":"explain","session":3,"offset":10,"limit":5}"#).unwrap();
        assert!(matches!(
            req,
            Request::Explain {
                session: 3,
                offset: 10,
                limit: 5
            }
        ));
        // Paging defaults: offset 0, limit 20.
        let req = parse(r#"{"verb":"explain","session":3}"#).unwrap();
        assert!(matches!(
            req,
            Request::Explain {
                session: 3,
                offset: 0,
                limit: 20
            }
        ));
        let req = parse(r#"{"verb":"pervade","session":8}"#).unwrap();
        assert!(matches!(
            req,
            Request::Pervade {
                session: 8,
                limit: 20
            }
        ));
        let req = parse(r#"{"verb":"gc","max_bytes":4096}"#).unwrap();
        assert!(matches!(req, Request::Gc { max_bytes: 4096 }));
        assert_eq!(req.verb(), "gc");
    }

    #[test]
    fn envelopes_round_trip() {
        let ok = ok_response("open", vec![("session".into(), 7u64.into())]);
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(ok.get("session").unwrap().as_u64(), Some(7));
        let err = error_response("rerun", ErrorCode::Busy, "queue full");
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            err.get("error").unwrap().get("code").unwrap().as_str(),
            Some("busy")
        );
        let text = err.to_json_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), err);
    }
}
