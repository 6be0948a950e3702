//! Serving-layer bench: starts an in-process `tnet-serve` daemon, drives
//! it with a mixed read/ingest workload over real TCP connections, and
//! writes `BENCH_serve.json` — sustained QPS plus client-measured
//! p50/p99 latency and the daemon's own counters. No network beyond
//! loopback, no criterion; run with
//!
//! ```text
//! cargo run --release -p tnet-bench --bin bench_serve -- --out BENCH_serve.json
//! ```
//!
//! Flags:
//! - `--smoke`         tiny run for CI (fewer clients, fewer requests)
//! - `--out PATH`      output path (default `BENCH_serve.json`)
//! - `--seed N`        synthetic-dataset seed (default 42)
//! - `--validate PATH` parse an existing report, check the schema and
//!   the correctness gates below, and exit — no benching
//!
//! Gates (checked after the run and again by `--validate`): the cache
//! must have recorded at least one hit, at least one generation must
//! have been published under ingest load, and no query may have errored
//! (the workload sends only well-formed requests). Wall-clock derived
//! numbers (QPS, p50/p99) are recorded but only sanity-checked
//! (`qps > 0`, `p50 <= p99`), never gated against a threshold —
//! shared-host timing noise would make such a gate flaky.
//!
//! A second pass measures durability overhead: the same acknowledged
//! ingest stream against a durable daemon under `--fsync always` and
//! `--fsync never`, followed by an offline recovery of the `always`
//! data directory. The `durability` block of the report records both
//! policies' ack QPS and p50/p99 plus WAL counters, and two hard gates:
//! every acknowledged record must be recovered, with zero checksum
//! errors.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tnet_obs::json::{self, JVal};
use tnet_obs::MetricsRegistry;
use tnet_serve::{DurabilityConfig, FsyncPolicy, ServeConfig, WriterConfig};

struct Opts {
    smoke: bool,
    out: String,
    seed: u64,
    validate: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        smoke: false,
        out: "BENCH_serve.json".to_string(),
        seed: 42,
        validate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = args.next().ok_or("--out needs a path")?,
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--validate" => opts.validate = Some(args.next().ok_or("--validate needs a path")?),
            // Cargo's bench runner appends `--bench`; tolerate it.
            "--bench" => {}
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

/// Workload knobs, sized down for `--smoke`.
struct Workload {
    scale: f64,
    clients: usize,
    requests_per_client: usize,
    ingest_batches: usize,
    ingest_batch_size: usize,
    publish_interval: Duration,
    durability_batches: usize,
    durability_batch_size: usize,
}

impl Workload {
    fn new(smoke: bool) -> Workload {
        if smoke {
            Workload {
                scale: 0.005,
                clients: 2,
                requests_per_client: 60,
                ingest_batches: 6,
                ingest_batch_size: 16,
                publish_interval: Duration::from_millis(25),
                durability_batches: 8,
                durability_batch_size: 16,
            }
        } else {
            Workload {
                scale: 0.01,
                clients: 4,
                requests_per_client: 400,
                ingest_batches: 40,
                ingest_batch_size: 64,
                publish_interval: Duration::from_millis(50),
                durability_batches: 30,
                durability_batch_size: 64,
            }
        }
    }
}

/// The repeating read mix one client cycles through. Repeats of the
/// same cacheable request within a generation window are what drive
/// cache hits; the two support variants and the pattern query keep the
/// mix from being pure cache traffic.
const READ_MIX: &[&str] = &[
    r#"{"op":"ping"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"support","labeling":"gw","labels":[0,1]}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"support","labeling":"td","labels":[1,0]}"#,
    r#"{"op":"pattern","partitions":4,"support":3,"max_edges":3,"reps":1,"top":10}"#,
];

/// One line of the ingest stream: `count` synthetic-looking records
/// with ids that cannot collide with generation 0.
fn ingest_line(batch: usize, count: usize) -> String {
    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let n = (batch * count + i) as u64;
        records.push(format!(
            "{{\"id\":{},\"pickup\":733040,\"delivery\":733042,\
             \"olat\":{:.1},\"olon\":-88.0,\"dlat\":41.9,\"dlon\":-87.6,\
             \"distance\":{:.1},\"weight\":{:.1},\"hours\":9.0,\"mode\":\"TL\"}}",
            1_000_000 + n,
            40.0 + (n % 50) as f64 * 0.1,
            150.0 + (n % 7) as f64 * 40.0,
            9000.0 + (n % 11) as f64 * 900.0,
        ));
    }
    format!("{{\"op\":\"ingest\",\"records\":[{}]}}", records.join(","))
}

/// Sends `line`, reads the one-line reply, and fails loudly on an
/// `"ok":false` reply — the bench only issues well-formed requests, so
/// any error is a bug worth surfacing, not noise to swallow.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, String> {
    // One write per request (Nagle + delayed-ACK would stall a
    // write-write-read pattern by ~40ms per round trip).
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    stream
        .write_all(&buf)
        .map_err(|e| format!("send failed: {e}"))?;
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| format!("recv failed: {e}"))?;
    if reply.is_empty() {
        return Err("server closed the connection".into());
    }
    if !reply.contains("\"ok\":true") {
        return Err(format!("error reply to {line}: {}", reply.trim()));
    }
    Ok(reply)
}

/// Connects with jittered exponential backoff. A freshly started daemon
/// (or one briefly out of reader slots) refuses connections for a
/// moment; retrying with growing, jittered sleeps rides that out
/// without hammering the listener in lockstep with other clients.
fn connect(addr: std::net::SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    const MAX_ATTEMPTS: u32 = 6;
    let mut backoff = Duration::from_millis(10);
    let mut last_err = String::new();
    for attempt in 0..MAX_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let reader = BufReader::new(
                    stream
                        .try_clone()
                        .map_err(|e| format!("clone failed: {e}"))?,
                );
                return Ok((stream, reader));
            }
            Err(e) => last_err = e.to_string(),
        }
        if attempt + 1 < MAX_ATTEMPTS {
            // Deterministic jitter (SplitMix64 of attempt + port): 50% to
            // 150% of the base delay, then double the base.
            let mut z = (u64::from(attempt) << 16 | u64::from(addr.port()))
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let jitter_pct = 50 + (z ^ (z >> 31)) % 101; // 50..=150
            std::thread::sleep(backoff * jitter_pct as u32 / 100);
            backoff *= 2;
        }
    }
    Err(format!(
        "connect failed after {MAX_ATTEMPTS} attempts: {last_err}"
    ))
}

/// Nearest-rank quantile over a sorted sample vector.
fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct RunResult {
    requests: usize,
    wall: Duration,
    p50_ns: u64,
    p99_ns: u64,
    metrics: BTreeMap<String, u64>,
}

fn run_bench(opts: &Opts, w: &Workload) -> Result<RunResult, String> {
    let initial = tnet_data::synth::generate(
        &tnet_data::synth::SynthConfig::scaled(w.scale).with_seed(opts.seed),
    )
    .transactions;
    let initial_len = initial.len();
    let mut handle = tnet_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_capacity: 256,
        writer: WriterConfig {
            publish_interval: w.publish_interval,
            batch: 256,
        },
        initial,
        trace: false,
        durability: None,
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = handle.addr();
    println!(
        "serving {initial_len} txns on {addr}; {} clients x {} requests + {} ingest batches",
        w.clients, w.requests_per_client, w.ingest_batches
    );

    let started = Instant::now();
    let result: Result<(Vec<Vec<u64>>, usize), String> = std::thread::scope(|scope| {
        // Ingest stream on its own connection: steady appends with an
        // occasional tombstone delete, so generations keep publishing
        // while the read clients hammer the cache.
        let ingest = scope.spawn(|| -> Result<usize, String> {
            let (mut stream, mut reader) = connect(addr)?;
            let mut sent = 0;
            for batch in 0..w.ingest_batches {
                roundtrip(
                    &mut stream,
                    &mut reader,
                    &ingest_line(batch, w.ingest_batch_size),
                )?;
                sent += w.ingest_batch_size;
                if batch % 4 == 3 {
                    let id = 1_000_000 + (batch * w.ingest_batch_size) as u64;
                    roundtrip(
                        &mut stream,
                        &mut reader,
                        &format!("{{\"op\":\"delete\",\"ids\":[{id}]}}"),
                    )?;
                }
                std::thread::sleep(w.publish_interval / 2);
            }
            Ok(sent)
        });
        let clients: Vec<_> = (0..w.clients)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<u64>, String> {
                    let (mut stream, mut reader) = connect(addr)?;
                    let mut lat = Vec::with_capacity(w.requests_per_client);
                    for i in 0..w.requests_per_client {
                        // Offset each client's cursor so the mix
                        // interleaves rather than marching in lockstep.
                        let line = READ_MIX[(i + c) % READ_MIX.len()];
                        let t = Instant::now();
                        roundtrip(&mut stream, &mut reader, line)?;
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                    Ok(lat)
                })
            })
            .collect();
        let mut all = Vec::new();
        for c in clients {
            all.push(c.join().map_err(|_| "client panicked")??);
        }
        let sent = ingest.join().map_err(|_| "ingest panicked")??;
        Ok((all, sent))
    });
    let (latencies, ingested) = result?;
    let wall = started.elapsed();

    // Counters from the daemon itself, via the wire protocol.
    let (mut stream, mut reader) = connect(addr)?;
    let trace = roundtrip(&mut stream, &mut reader, r#"{"op":"trace"}"#)?;
    drop(stream);
    let (_, metrics) = json::decode_trace(&trace).map_err(|e| format!("bad trace reply: {e}"))?;

    handle.shutdown();
    handle.wait();
    handle.join().map_err(|e| format!("join failed: {e}"))?;

    let mut merged: Vec<u64> = latencies.into_iter().flatten().collect();
    merged.sort_unstable();
    println!(
        "ingested {ingested} records alongside {} read requests",
        merged.len()
    );
    Ok(RunResult {
        requests: merged.len(),
        wall,
        p50_ns: quantile_ns(&merged, 0.50),
        p99_ns: quantile_ns(&merged, 0.99),
        metrics,
    })
}

/// Timing and WAL counters for one fsync policy.
struct PolicyResult {
    acks_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    wal_records: u64,
    wal_fsyncs: u64,
    fsync_p99_ns: u64,
}

struct DurabilityResult {
    always: PolicyResult,
    never: PolicyResult,
    acknowledged: u64,
    recovered: u64,
    checksum_errors: u64,
}

/// Runs an acknowledged ingest stream against a durable daemon under
/// one fsync policy and reports client-measured ack latency plus the
/// daemon's WAL counters. The data directory survives the run, so the
/// caller can recover from it afterwards.
fn run_policy(
    w: &Workload,
    fsync: FsyncPolicy,
    dir: &std::path::Path,
) -> Result<PolicyResult, String> {
    let mut handle = tnet_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_capacity: 64,
        writer: WriterConfig {
            publish_interval: w.publish_interval,
            batch: 256,
        },
        initial: Vec::new(),
        trace: false,
        durability: Some(DurabilityConfig {
            data_dir: dir.to_path_buf(),
            fsync,
            // Snapshot once mid-stream so the bench exercises the
            // checkpoint + WAL-truncate path, not just appends.
            snapshot_every: (w.durability_batches * w.durability_batch_size / 2).max(1) as u64,
        }),
    })
    .map_err(|e| format!("cannot start durable server: {e}"))?;
    let addr = handle.addr();

    let (mut stream, mut reader) = connect(addr)?;
    let started = Instant::now();
    let mut lat = Vec::with_capacity(w.durability_batches);
    for batch in 0..w.durability_batches {
        let t = Instant::now();
        roundtrip(
            &mut stream,
            &mut reader,
            &ingest_line(batch, w.durability_batch_size),
        )?;
        lat.push(t.elapsed().as_nanos() as u64);
    }
    let wall = started.elapsed();
    let trace = roundtrip(&mut stream, &mut reader, r#"{"op":"trace"}"#)?;
    drop(stream);
    let (_, metrics) = json::decode_trace(&trace).map_err(|e| format!("bad trace reply: {e}"))?;
    let m = |key: &str| metric(&metrics, key);
    let result = PolicyResult {
        acks_per_sec: w.durability_batches as f64 / wall.as_secs_f64(),
        p50_ns: {
            lat.sort_unstable();
            quantile_ns(&lat, 0.50)
        },
        p99_ns: quantile_ns(&lat, 0.99),
        wal_records: m("wal.records"),
        wal_fsyncs: m("wal.fsyncs"),
        fsync_p99_ns: m("wal.fsync.p99_ns"),
    };
    handle.shutdown();
    handle.wait();
    handle.join().map_err(|e| format!("join failed: {e}"))?;
    Ok(result)
}

/// The durability overhead block: the same acknowledged ingest stream
/// under `--fsync always` and `--fsync never`, then an offline recovery
/// of the `always` directory proving every acknowledged record (minus
/// none — this stream has no deletes) comes back with zero checksum
/// errors.
fn run_durability(w: &Workload) -> Result<DurabilityResult, String> {
    let base = std::env::temp_dir().join(format!("tnet_bench_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let always_dir = base.join("always");
    let never_dir = base.join("never");
    std::fs::create_dir_all(&always_dir).map_err(|e| format!("mkdir: {e}"))?;
    std::fs::create_dir_all(&never_dir).map_err(|e| format!("mkdir: {e}"))?;

    let always = run_policy(w, FsyncPolicy::Always, &always_dir)?;
    let never = run_policy(w, FsyncPolicy::Never, &never_dir)?;

    let acknowledged = (w.durability_batches * w.durability_batch_size) as u64;
    let (recovered, checksum_errors) =
        match tnet_serve::recover(&always_dir, &MetricsRegistry::new()) {
            Ok(r) => (r.live.len() as u64, 0),
            Err(e) => {
                eprintln!("bench_serve: recovery failed: {e}");
                (0, 1)
            }
        };
    let _ = std::fs::remove_dir_all(&base);
    Ok(DurabilityResult {
        always,
        never,
        acknowledged,
        recovered,
        checksum_errors,
    })
}

/// The correctness gates shared by the post-run check and `--validate`.
/// Returns a REGRESSION message on the first violated gate.
fn check_gates(
    qps: f64,
    p50_ns: f64,
    p99_ns: f64,
    cache_hits: f64,
    generations: f64,
    query_errors: f64,
) -> Result<(), String> {
    if qps.is_nan() || qps <= 0.0 {
        return Err(format!("REGRESSION — qps is {qps}, must be positive"));
    }
    if p99_ns.is_nan() || p99_ns <= 0.0 || p50_ns > p99_ns {
        return Err(format!(
            "REGRESSION — latency quantiles inconsistent (p50 {p50_ns} ns, p99 {p99_ns} ns)"
        ));
    }
    if cache_hits < 1.0 {
        return Err(
            "REGRESSION — result cache recorded zero hits under a repeating read mix".into(),
        );
    }
    if generations < 1.0 {
        return Err("REGRESSION — no generation published under ingest load".into());
    }
    if query_errors > 0.0 {
        return Err(format!(
            "REGRESSION — {query_errors} query errors on a well-formed workload"
        ));
    }
    Ok(())
}

/// Durability gates: every acknowledged record must come back from
/// recovery, with zero checksum errors. Overhead numbers (always vs
/// never fsync) are recorded but never gated — they measure the host's
/// disk, not the code.
fn check_durability_gates(
    acknowledged: f64,
    recovered: f64,
    checksum_errors: f64,
) -> Result<(), String> {
    if recovered < acknowledged {
        return Err(format!(
            "REGRESSION — recovered {recovered} records but {acknowledged} were acknowledged"
        ));
    }
    if checksum_errors > 0.0 {
        return Err(format!(
            "REGRESSION — {checksum_errors} checksum errors during recovery"
        ));
    }
    Ok(())
}

fn metric(metrics: &BTreeMap<String, u64>, name: &str) -> u64 {
    metrics.get(name).copied().unwrap_or(0)
}

fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text, json::TRACE_MAX_DEPTH, "report")?;
    match doc.get("schema") {
        Some(JVal::Str(s)) if s == "tnet-bench-serve/v2" => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    let num = |block: &str, key: &str| -> Result<f64, String> {
        doc.get(block)
            .and_then(|b| b.get(key))
            .and_then(JVal::as_f64)
            .ok_or_else(|| format!("report missing number '{block}.{key}'"))
    };
    check_gates(
        num("results", "qps")?,
        num("results", "p50_ns")?,
        num("results", "p99_ns")?,
        num("server", "cache_hits")?,
        num("server", "generations_published")?,
        num("server", "query_errors")?,
    )?;
    check_durability_gates(
        num("durability", "acknowledged_records")?,
        num("durability", "recovered_records")?,
        num("durability", "checksum_errors")?,
    )?;
    // The per-policy sub-blocks must at least be present and coherent.
    for policy in ["fsync_always", "fsync_never"] {
        let block = doc
            .get("durability")
            .and_then(|d| d.get(policy))
            .ok_or_else(|| format!("report missing 'durability.{policy}'"))?;
        let p50 = block.get("p50_ns").and_then(JVal::as_f64).unwrap_or(-1.0);
        let p99 = block.get("p99_ns").and_then(JVal::as_f64).unwrap_or(-1.0);
        if p50 < 0.0 || p99 < 0.0 || p50 > p99 {
            return Err(format!(
                "REGRESSION — durability.{policy} latency quantiles inconsistent \
                 (p50 {p50} ns, p99 {p99} ns)"
            ));
        }
    }
    println!(
        "{path}: valid, {:.0} qps sustained, p99 {:.2} ms, gates pass \
         ({:.0} records recovered, 0 checksum errors)",
        num("results", "qps")?,
        num("results", "p99_ns")? / 1e6,
        num("durability", "recovered_records")?,
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.validate {
        return match validate(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench_serve: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let w = Workload::new(opts.smoke);
    let run = match run_bench(&opts, &w) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let durability = match run_durability(&w) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_serve: durability pass failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let qps = run.requests as f64 / run.wall.as_secs_f64();
    let server_fields: Vec<(&str, JVal)> = [
        ("queries", "serve.queries"),
        ("query_errors", "serve.query_errors"),
        ("connections", "serve.connections"),
        ("records_ingested", "serve.records_ingested"),
        ("records_deleted", "serve.records_deleted"),
        ("generations_published", "serve.generations_published"),
        ("publish_failures", "serve.publish_failures"),
        ("cache_hits", "serve.cache_hits"),
        ("cache_misses", "serve.cache_misses"),
        ("cache_evictions", "serve.cache_evictions"),
        ("server_p50_ns", "serve.query_latency.p50_ns"),
        ("server_p99_ns", "serve.query_latency.p99_ns"),
    ]
    .iter()
    .map(|(out, key)| (*out, JVal::Num(metric(&run.metrics, key) as f64)))
    .collect();

    let policy_block = |p: &PolicyResult| {
        JVal::obj([
            ("acks_per_sec", JVal::Num(p.acks_per_sec)),
            ("p50_ns", JVal::Num(p.p50_ns as f64)),
            ("p99_ns", JVal::Num(p.p99_ns as f64)),
            ("wal_records", JVal::Num(p.wal_records as f64)),
            ("wal_fsyncs", JVal::Num(p.wal_fsyncs as f64)),
            ("fsync_p99_ns", JVal::Num(p.fsync_p99_ns as f64)),
        ])
    };
    // Ack-latency overhead of `--fsync always` relative to `never`,
    // from medians so one slow outlier sync can't skew it.
    let overhead_p50 = if durability.never.p50_ns > 0 {
        durability.always.p50_ns as f64 / durability.never.p50_ns as f64
    } else {
        0.0
    };
    let doc = JVal::obj([
        ("schema", JVal::Str("tnet-bench-serve/v2".into())),
        ("seed", JVal::Num(opts.seed as f64)),
        ("smoke", JVal::Bool(opts.smoke)),
        (
            "workload",
            JVal::obj([
                ("scale", JVal::Num(w.scale)),
                ("clients", JVal::Num(w.clients as f64)),
                (
                    "requests_per_client",
                    JVal::Num(w.requests_per_client as f64),
                ),
                ("ingest_batches", JVal::Num(w.ingest_batches as f64)),
                ("ingest_batch_size", JVal::Num(w.ingest_batch_size as f64)),
                (
                    "publish_interval_ms",
                    JVal::Num(w.publish_interval.as_millis() as f64),
                ),
                (
                    "read_mix",
                    JVal::Arr(READ_MIX.iter().map(|s| JVal::Str(s.to_string())).collect()),
                ),
            ]),
        ),
        (
            "results",
            JVal::obj([
                ("requests", JVal::Num(run.requests as f64)),
                ("wall_ms", JVal::Num(run.wall.as_secs_f64() * 1e3)),
                ("qps", JVal::Num(qps)),
                ("p50_ns", JVal::Num(run.p50_ns as f64)),
                ("p99_ns", JVal::Num(run.p99_ns as f64)),
            ]),
        ),
        ("server", JVal::obj(server_fields)),
        (
            "durability",
            JVal::obj([
                ("ingest_batches", JVal::Num(w.durability_batches as f64)),
                (
                    "ingest_batch_size",
                    JVal::Num(w.durability_batch_size as f64),
                ),
                ("fsync_always", policy_block(&durability.always)),
                ("fsync_never", policy_block(&durability.never)),
                ("overhead_p50", JVal::Num(overhead_p50)),
                (
                    "acknowledged_records",
                    JVal::Num(durability.acknowledged as f64),
                ),
                ("recovered_records", JVal::Num(durability.recovered as f64)),
                (
                    "checksum_errors",
                    JVal::Num(durability.checksum_errors as f64),
                ),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&opts.out, doc.pretty()) {
        eprintln!("bench_serve: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({:.0} qps, p50 {:.2} ms, p99 {:.2} ms; fsync-always overhead {:.1}x, \
         {}/{} records recovered)",
        opts.out,
        qps,
        run.p50_ns as f64 / 1e6,
        run.p99_ns as f64 / 1e6,
        overhead_p50,
        durability.recovered,
        durability.acknowledged,
    );

    if let Err(e) = check_durability_gates(
        durability.acknowledged as f64,
        durability.recovered as f64,
        durability.checksum_errors as f64,
    ) {
        eprintln!("bench_serve: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = check_gates(
        qps,
        run.p50_ns as f64,
        run.p99_ns as f64,
        metric(&run.metrics, "serve.cache_hits") as f64,
        metric(&run.metrics, "serve.generations_published") as f64,
        metric(&run.metrics, "serve.query_errors") as f64,
    ) {
        eprintln!("bench_serve: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
