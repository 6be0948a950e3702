//! The wire protocol: newline-delimited JSON requests and replies.
//!
//! One request per line, one reply per line. Every reply is a flat-ish
//! JSON object with an `"ok"` boolean; errors carry the
//! [`tnet_core::error::PipelineError`] taxonomy as
//! `{"ok":false,"error":{"kind":...,"message":...}}` so clients can
//! dispatch on the stable `kind` tag. Lines are parsed by the
//! workspace's one JSON parser, [`tnet_obs::json`], with a depth cap so
//! a hostile request can't recurse the connection thread's stack.
//! Schema reference: DESIGN.md §12.
//!
//! Parsing also produces the **canonical query form** used as the cache
//! key: fixed field order, defaults filled in, whitespace-free — so
//! `{"op":"pattern","support":5}` and a field-reordered,
//! default-spelled-out equivalent hit the same cache entry.

use tnet_core::error::PipelineError;
use tnet_data::model::{Date, LatLon, TransMode, Transaction};
use tnet_data::od_graph::EdgeLabeling;
use tnet_graph::graph::ELabel;
use tnet_partition::split::Strategy;

pub use tnet_obs::json::{json_string, JVal};

/// Longest accepted request line, in bytes. Anything longer gets a
/// typed `protocol` error reply and the rest of the line is discarded;
/// the connection survives.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Deepest accepted JSON nesting (`ingest` needs 3: object → array →
/// record object).
const MAX_DEPTH: usize = 8;

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answers with the current generation id.
    Ping,
    /// The §3 dataset description of the pinned generation.
    Stats,
    /// Directed-walk support of an edge-label chain on the pinned OD
    /// graph (see `tnet_graph::traverse::count_label_walks`).
    Support {
        labeling: EdgeLabeling,
        labels: Vec<ELabel>,
    },
    /// Algorithm 1 frequent-pattern mining on the pinned generation,
    /// same knobs and defaults as `tnet mine`.
    Pattern {
        labeling: EdgeLabeling,
        strategy: Strategy,
        partitions: usize,
        support: usize,
        max_edges: usize,
        reps: usize,
        top: usize,
    },
    /// Server metrics snapshot (counters + latency quantiles).
    Trace,
    /// Batched transaction appends, forwarded to the writer.
    Ingest { records: Vec<Transaction> },
    /// Tombstone deletes by transaction id, forwarded to the writer.
    Delete { ids: Vec<u64> },
    /// Begin graceful shutdown: drain connections, flush a final
    /// generation, exit 0.
    Shutdown,
}

impl Request {
    /// The canonical cache-key form, or `None` for requests that are
    /// not cacheable (mutations, probes, and metrics reads).
    pub fn canonical(&self) -> Option<String> {
        match self {
            Request::Stats => Some("stats".to_string()),
            Request::Support { labeling, labels } => {
                let seq: Vec<String> = labels.iter().map(|l| l.0.to_string()).collect();
                Some(format!(
                    "support labeling={} labels={}",
                    labeling.name(),
                    seq.join(",")
                ))
            }
            Request::Pattern {
                labeling,
                strategy,
                partitions,
                support,
                max_edges,
                reps,
                top,
            } => Some(format!(
                "pattern labeling={} strategy={} partitions={partitions} support={support} \
                 max_edges={max_edges} reps={reps} top={top}",
                labeling.name(),
                match strategy {
                    Strategy::BreadthFirst => "bf",
                    Strategy::DepthFirst => "df",
                },
            )),
            _ => None,
        }
    }
}

fn perr(message: impl Into<String>) -> PipelineError {
    PipelineError::Protocol {
        message: message.into(),
    }
}

/// Parses one line as JSON. Trailing non-whitespace after the value is
/// an error.
pub fn parse_json(line: &str) -> Result<JVal, PipelineError> {
    tnet_obs::json::parse(line, MAX_DEPTH, "request").map_err(perr)
}

// ----------------------------------------------------------- extraction

fn get<'v>(fields: &'v [(String, JVal)], key: &str) -> Option<&'v JVal> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn usize_field(
    fields: &[(String, JVal)],
    key: &str,
    default: usize,
) -> Result<usize, PipelineError> {
    match get(fields, key) {
        None => Ok(default),
        Some(JVal::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
            Ok(*n as usize)
        }
        Some(v) => Err(perr(format!(
            "field `{key}` must be a small non-negative integer, got {}",
            v.type_name()
        ))),
    }
}

fn num_field(fields: &[(String, JVal)], key: &str) -> Result<f64, PipelineError> {
    match get(fields, key) {
        Some(JVal::Num(n)) => Ok(*n),
        Some(v) => Err(perr(format!(
            "field `{key}` must be a number, got {}",
            v.type_name()
        ))),
        None => Err(perr(format!("missing field `{key}`"))),
    }
}

fn str_field<'v>(fields: &'v [(String, JVal)], key: &str) -> Result<&'v str, PipelineError> {
    match get(fields, key) {
        Some(JVal::Str(s)) => Ok(s),
        Some(v) => Err(perr(format!(
            "field `{key}` must be a string, got {}",
            v.type_name()
        ))),
        None => Err(perr(format!("missing field `{key}`"))),
    }
}

fn labeling_field(fields: &[(String, JVal)]) -> Result<EdgeLabeling, PipelineError> {
    match get(fields, "labeling") {
        None => Ok(EdgeLabeling::GrossWeight),
        Some(JVal::Str(s)) => match s.as_str() {
            "gw" | "weight" => Ok(EdgeLabeling::GrossWeight),
            "th" | "hours" => Ok(EdgeLabeling::TransitHours),
            "td" | "distance" => Ok(EdgeLabeling::TotalDistance),
            other => Err(perr(format!(
                "unknown labeling `{other}` (use gw, th, or td)"
            ))),
        },
        Some(v) => Err(perr(format!(
            "field `labeling` must be a string, got {}",
            v.type_name()
        ))),
    }
}

fn record_field(fields: &[(String, JVal)]) -> Result<Transaction, PipelineError> {
    let mode = match get(fields, "mode") {
        None => TransMode::Truckload,
        Some(JVal::Str(s)) => TransMode::parse(s)
            .ok_or_else(|| perr(format!("unknown mode `{s}` (use TL or LTL)")))?,
        Some(v) => {
            return Err(perr(format!(
                "field `mode` must be a string, got {}",
                v.type_name()
            )))
        }
    };
    let day = num_field(fields, "pickup")?;
    if !(0.0..=u32::MAX as f64).contains(&day) || day.fract() != 0.0 {
        return Err(perr("field `pickup` must be a whole day number"));
    }
    let pickup = Date(day as u32);
    let delivery = match get(fields, "delivery") {
        None => pickup,
        Some(JVal::Num(n)) if (0.0..=u32::MAX as f64).contains(n) && n.fract() == 0.0 => {
            Date(*n as u32)
        }
        Some(_) => return Err(perr("field `delivery` must be a whole day number")),
    };
    let id = num_field(fields, "id")?;
    if !(0.0..=u64::MAX as f64).contains(&id) || id.fract() != 0.0 {
        return Err(perr("field `id` must be a non-negative integer"));
    }
    Ok(Transaction {
        id: id as u64,
        req_pickup: pickup,
        req_delivery: delivery,
        origin: LatLon::new(num_field(fields, "olat")?, num_field(fields, "olon")?),
        dest: LatLon::new(num_field(fields, "dlat")?, num_field(fields, "dlon")?),
        total_distance: num_field(fields, "distance")?,
        gross_weight: num_field(fields, "weight")?,
        transit_hours: num_field(fields, "hours")?,
        mode,
    })
}

/// Parses one request line. All protocol violations come back as
/// [`PipelineError::Protocol`] so the server can reply without killing
/// the connection.
pub fn parse_request(line: &str) -> Result<Request, PipelineError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(perr(format!(
            "request line of {} bytes exceeds the {MAX_LINE_BYTES}-byte limit",
            line.len()
        )));
    }
    let JVal::Obj(fields) = parse_json(line)? else {
        return Err(perr("request must be a JSON object"));
    };
    match str_field(&fields, "op")? {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "trace" => Ok(Request::Trace),
        "shutdown" => Ok(Request::Shutdown),
        "support" => {
            let labels = match get(&fields, "labels") {
                Some(JVal::Arr(items)) => items
                    .iter()
                    .map(|v| match v {
                        JVal::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                            Ok(ELabel(*n as u32))
                        }
                        other => Err(perr(format!(
                            "`labels` entries must be bin indices, got {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(v) => {
                    return Err(perr(format!(
                        "field `labels` must be an array, got {}",
                        v.type_name()
                    )))
                }
                None => return Err(perr("missing field `labels`")),
            };
            Ok(Request::Support {
                labeling: labeling_field(&fields)?,
                labels,
            })
        }
        "pattern" => {
            let strategy = match get(&fields, "strategy") {
                None => Strategy::BreadthFirst,
                Some(JVal::Str(s)) => match s.as_str() {
                    "bf" | "breadth" => Strategy::BreadthFirst,
                    "df" | "depth" => Strategy::DepthFirst,
                    other => return Err(perr(format!("unknown strategy `{other}` (bf|df)"))),
                },
                Some(v) => {
                    return Err(perr(format!(
                        "field `strategy` must be a string, got {}",
                        v.type_name()
                    )))
                }
            };
            let support = usize_field(&fields, "support", 5)?;
            if support == 0 {
                return Err(perr("field `support` must be at least 1"));
            }
            Ok(Request::Pattern {
                labeling: labeling_field(&fields)?,
                strategy,
                partitions: usize_field(&fields, "partitions", 16)?.max(1),
                support,
                max_edges: usize_field(&fields, "max_edges", 5)?.max(1),
                reps: usize_field(&fields, "reps", 2)?.max(1),
                top: usize_field(&fields, "top", 15)?,
            })
        }
        "ingest" => {
            let records = match get(&fields, "records") {
                Some(JVal::Arr(items)) => items
                    .iter()
                    .map(|v| match v {
                        JVal::Obj(rec) => record_field(rec),
                        other => Err(perr(format!(
                            "`records` entries must be objects, got {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(v) => {
                    return Err(perr(format!(
                        "field `records` must be an array, got {}",
                        v.type_name()
                    )))
                }
                None => return Err(perr("missing field `records`")),
            };
            Ok(Request::Ingest { records })
        }
        "delete" => {
            let ids = match get(&fields, "ids") {
                Some(JVal::Arr(items)) => items
                    .iter()
                    .map(|v| match v {
                        JVal::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
                        other => Err(perr(format!(
                            "`ids` entries must be transaction ids, got {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(v) => {
                    return Err(perr(format!(
                        "field `ids` must be an array, got {}",
                        v.type_name()
                    )))
                }
                None => return Err(perr("missing field `ids`")),
            };
            Ok(Request::Delete { ids })
        }
        other => Err(perr(format!("unknown op `{other}`"))),
    }
}

// ---------------------------------------------------------- serialization

/// The one-line error reply for `err`.
pub fn error_reply(err: &PipelineError) -> String {
    format!(
        "{{\"ok\":false,\"error\":{{\"kind\":{},\"message\":{}}}}}",
        json_string(err.kind()),
        json_string(&err.to_string())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_ops() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#" {"op": "stats"} "#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn pattern_defaults_match_tnet_mine() {
        let r = parse_request(r#"{"op":"pattern"}"#).unwrap();
        assert_eq!(
            r,
            Request::Pattern {
                labeling: EdgeLabeling::GrossWeight,
                strategy: Strategy::BreadthFirst,
                partitions: 16,
                support: 5,
                max_edges: 5,
                reps: 2,
                top: 15,
            }
        );
    }

    #[test]
    fn canonical_form_is_field_order_independent() {
        let a = parse_request(r#"{"op":"pattern","support":3,"labeling":"th"}"#).unwrap();
        let b = parse_request(r#"{"labeling":"hours","op":"pattern","support":3}"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        let c = parse_request(r#"{"op":"pattern","support":4,"labeling":"th"}"#).unwrap();
        assert_ne!(a.canonical(), c.canonical());
        // Defaults spelled out canonicalize the same as defaults omitted.
        let d = parse_request(r#"{"op":"pattern","support":5}"#).unwrap();
        let e = parse_request(r#"{"op":"pattern"}"#).unwrap();
        assert_eq!(d.canonical(), e.canonical());
    }

    #[test]
    fn mutations_are_not_cacheable() {
        let r = parse_request(r#"{"op":"delete","ids":[1,2]}"#).unwrap();
        assert_eq!(r.canonical(), None);
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap().canonical(), None);
        assert_eq!(
            parse_request(r#"{"op":"trace"}"#).unwrap().canonical(),
            None
        );
    }

    #[test]
    fn support_request_round_trip() {
        let r = parse_request(r#"{"op":"support","labeling":"td","labels":[2,0,1]}"#).unwrap();
        assert_eq!(
            r,
            Request::Support {
                labeling: EdgeLabeling::TotalDistance,
                labels: vec![ELabel(2), ELabel(0), ELabel(1)],
            }
        );
        assert_eq!(
            r.canonical().unwrap(),
            "support labeling=OD_TD labels=2,0,1"
        );
    }

    #[test]
    fn ingest_records_parse() {
        let line = r#"{"op":"ingest","records":[{"id":7,"pickup":733000,"delivery":733002,
            "olat":33.7,"olon":-84.4,"dlat":35.1,"dlon":-90.0,
            "distance":380.5,"weight":25000.0,"hours":9.5,"mode":"TL"}]}"#
            .replace('\n', " ");
        let Request::Ingest { records } = parse_request(&line).unwrap() else {
            panic!("not ingest");
        };
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, 7);
        assert_eq!(records[0].req_pickup, Date(733000));
        assert_eq!(records[0].mode, TransMode::Truckload);
        assert!((records[0].total_distance - 380.5).abs() < 1e-9);
    }

    #[test]
    fn malformed_lines_become_protocol_errors() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"support"}"#,
            r#"{"op":"support","labels":["x"]}"#,
            r#"{"op":"pattern","support":0}"#,
            r#"{"op":"ping"} trailing"#,
            r#"{"op":"ingest","records":[{"id":1}]}"#,
            r#"{"op":"pattern","labeling":"zz"}"#,
            &format!(
                "{}{}",
                r#"{"op":"ping","pad":""#,
                "x".repeat(MAX_LINE_BYTES)
            ),
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.kind(), "protocol", "input: {:.60}", bad);
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let line = format!(r#"{{"op":{}1{}}}"#, "[".repeat(40), "]".repeat(40));
        assert_eq!(parse_request(&line).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn error_reply_is_one_line_typed_json() {
        let err = PipelineError::Protocol {
            message: "unknown op `x`\nboom".into(),
        };
        let reply = error_reply(&err);
        assert!(!reply.contains('\n'), "reply must stay one line");
        assert!(reply.starts_with(r#"{"ok":false,"error":{"kind":"protocol""#));
        assert!(reply.contains("\\n"), "newlines escaped, not emitted");
        let JVal::Obj(o) = parse_json(&reply).unwrap() else {
            panic!()
        };
        assert_eq!(get(&o, "ok"), Some(&JVal::Bool(false)));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse_json(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v, JVal::Str("a\"b\\c\ndA".to_string()));
        let s = json_string("a\"b\\c\nd");
        assert_eq!(parse_json(&s).unwrap(), JVal::Str("a\"b\\c\nd".to_string()));
    }

    /// Checks the never-panic contract for one line and, on failure,
    /// that the error reply is itself one line of well-formed JSON.
    fn assert_never_panics(line: &str) {
        if let Err(e) = parse_request(line) {
            let reply = error_reply(&e);
            assert!(!reply.contains('\n'), "multi-line error reply for {line:?}");
            let JVal::Obj(o) = parse_json(&reply).expect("error reply re-parses") else {
                panic!("error reply not an object for {line:?}");
            };
            assert_eq!(get(&o, "ok"), Some(&JVal::Bool(false)));
        }
    }

    /// A request line at the length limit parses, quickly: string
    /// scanning is linear in the line length.
    #[test]
    fn max_length_string_request_parses() {
        let head = r#"{"op":"ping","pad":""#;
        let line = format!("{head}{}\"}}", "x".repeat(MAX_LINE_BYTES - head.len() - 2));
        assert_eq!(line.len(), MAX_LINE_BYTES);
        let started = std::time::Instant::now();
        assert_eq!(parse_request(&line).unwrap(), Request::Ping);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    /// The request-level half of the dependency-free fuzz suite (the
    /// JSON-level generators live with the parser in `tnet_obs::json`;
    /// the proptest half is `tests/prop.rs`, gated behind the `prop`
    /// feature): valid requests with random single-byte edits, from a
    /// fixed seed so a regression reproduces identically in CI.
    #[test]
    fn deterministic_fuzz_never_panics() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || tnet_graph::rng::splitmix64(&mut state);
        let seeds = [
            r#"{"op":"ping"}"#.to_string(),
            r#"{"op":"support","labeling":"gw","labels":[0,1,2]}"#.to_string(),
            r#"{"op":"pattern","partitions":4,"support":2,"max_edges":3}"#.to_string(),
            r#"{"op":"ingest","records":[{"id":7,"pickup":733000,"olat":33.7,"olon":-84.4,"dlat":35.1,"dlon":-90.0,"distance":380.5,"weight":25000.0,"hours":9.5}]}"#.to_string(),
        ];
        for _ in 0..2_000 {
            let mut bytes = seeds[(next() as usize) % seeds.len()].clone().into_bytes();
            for _ in 0..=(next() % 3) {
                let at = (next() as usize) % bytes.len();
                bytes[at] = (next() & 0xFF) as u8;
            }
            assert_never_panics(&String::from_utf8_lossy(&bytes));
        }
    }
}
