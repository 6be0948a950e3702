//! `serve_mixed`: the durable daemon (`fsync always`) seeded with the
//! workload's log, serving one process over two connections.
//!
//! - The reader is a closed loop of cycles: `stats`, eight `support`
//!   queries over fresh random label walks, and one `pattern` query
//!   with random partition and support knobs. Walks and knobs vary so
//!   that most of those replies are computed, not served from the
//!   result cache; `stats` repeats and shows the cache.
//! - The writer is an open loop: appends and deletes at a fixed rate,
//!   each timed from when it was due. The daemon publishes on every
//!   batch, so write `k` becomes generation `k` and freshness does not
//!   depend on the publish timer. After each ack the writer waits until
//!   the daemon has published generation `k`; the time from the write's
//!   due time to then is the part of the run the daemon controls, and
//!   its median is the workload's `wall_s`.
//!
//! After the schedule the benchmark checks the final `stats` reply
//! against `dataset_stats` over the log it had acknowledged, and reads
//! the daemon's own counters.
//!
//! The traffic's rates and sizes come from no recorded workload; each
//! is an assumption, and README.md gives the reason for each.

use crate::inputs;
use crate::run::{Checks, Ctx, Outcome, MIN_SETUPS, SETUP_WINDOW_SECS};
use crate::trace::Trace;
use crate::util::{median, quantile, summary, Rng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};
use tnet_data::model::Transaction;
use tnet_serve::proto::{json_string, parse_json, parse_request, JVal, Request};
use tnet_serve::{DurabilityConfig, Generation, ServeConfig, ServerHandle, WriterConfig};

/// Scheduled writes per second. Every write triggers a publish that
/// rebuilds the whole log (about 0.1 s at paper scale), so the rate
/// keeps the write path well below saturation: acks then measure the
/// path, not a queue.
const WRITE_RATE: f64 = 4.0;
/// An ingest adds more records than a delete removes, so the log grows
/// slowly and every generation costs about the same to query.
const APPEND_RECORDS: usize = 4;
const DELETE_IDS: usize = 2;
const SUPPORTS_PER_CYCLE: usize = 8;
/// How long the benchmark waits past the schedule for writes to become
/// visible.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// How often the writer looks at the daemon's publish counter while it
/// waits for a write's generation.
const POLL: Duration = Duration::from_millis(1);

struct Conn {
    out: TcpStream,
    replies: BufReader<TcpStream>,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Result<Conn, String> {
        let out = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        let _ = out.set_nodelay(true);
        let replies = BufReader::new(out.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { out, replies })
    }

    /// One request line, one reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.out.write_all(&buf).map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.replies.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

fn field<'a>(v: &'a JVal, key: &str) -> Option<&'a JVal> {
    match v {
        JVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &JVal, key: &str) -> Option<f64> {
    match field(v, key) {
        Some(JVal::Num(n)) => Some(*n),
        _ => None,
    }
}

/// `Ok(generation)` for an `ok:true` reply.
fn ok_reply(reply: &str) -> Result<u64, String> {
    let v = parse_json(reply).map_err(|e| format!("unparsable reply: {e}"))?;
    if field(&v, "ok") != Some(&JVal::Bool(true)) {
        return Err(format!("reply not ok: {}", &reply[..reply.len().min(200)]));
    }
    Ok(num(&v, "generation").unwrap_or(0.0) as u64)
}

fn record_json(t: &Transaction) -> String {
    format!(
        "{{\"id\":{},\"pickup\":{},\"delivery\":{},\"olat\":{},\"olon\":{},\"dlat\":{},\
         \"dlon\":{},\"distance\":{},\"weight\":{},\"hours\":{},\"mode\":\"{}\"}}",
        t.id,
        t.req_pickup.0,
        t.req_delivery.0,
        t.origin.lat(),
        t.origin.lon(),
        t.dest.lat(),
        t.dest.lon(),
        t.total_distance,
        t.gross_weight,
        t.transit_hours,
        t.mode.as_str(),
    )
}

/// The writer's schedule, built before the clock starts, and the live
/// log the daemon must end with once every write is acknowledged.
struct Schedule {
    lines: Vec<String>,
    expected: Vec<Transaction>,
}

/// The read and write sequences use fixed generator seeds: `--seed`
/// already varies the log's ids and dates, and a fixed sequence keeps
/// the daemon's work the same on every seed.
const WRITER_SEED: u64 = 0x5752_4954_4552;
const READER_SEED: u64 = 0x5245_4144;

fn schedule(seed_log: &[Transaction], writes: usize) -> Schedule {
    let mut rng = Rng::new(WRITER_SEED);
    let mut log = seed_log.to_vec();
    let mut deleted = std::collections::HashSet::new();
    let mut next_id = seed_log.iter().map(|t| t.id).max().unwrap_or(0) + 1;
    let mut lines = Vec::with_capacity(writes);
    for k in 0..writes {
        if k % 2 == 0 {
            // Copies of logged rows under fresh ids: the OD graph keeps
            // its shape, so every generation costs the same to query.
            let records: Vec<Transaction> = (0..APPEND_RECORDS)
                .map(|_| {
                    let mut t = seed_log[rng.below(seed_log.len())].clone();
                    t.id = next_id;
                    next_id += 1;
                    t
                })
                .collect();
            let body: Vec<String> = records.iter().map(record_json).collect();
            lines.push(format!(
                "{{\"op\":\"ingest\",\"records\":[{}]}}",
                body.join(",")
            ));
            log.extend(records);
        } else {
            let mut ids = Vec::new();
            while ids.len() < DELETE_IDS {
                let id = seed_log[rng.below(seed_log.len())].id;
                if deleted.insert(id) {
                    ids.push(id.to_string());
                }
            }
            lines.push(format!("{{\"op\":\"delete\",\"ids\":[{}]}}", ids.join(",")));
        }
    }
    log.retain(|t| !deleted.contains(&t.id));
    Schedule {
        lines,
        expected: log,
    }
}

/// One reader cycle's requests. `pattern` stays at two edges so that
/// a cycle lasts tens of milliseconds at paper scale and the reader
/// observes nearly every generation.
fn cycle_lines(rng: &mut Rng) -> Vec<String> {
    let mut lines = vec!["{\"op\":\"stats\"}".to_string()];
    for _ in 0..SUPPORTS_PER_CYCLE {
        let labels: Vec<String> = (0..1 + rng.below(3))
            .map(|_| rng.below(7).to_string())
            .collect();
        lines.push(format!(
            "{{\"op\":\"support\",\"labeling\":\"gw\",\"labels\":[{}]}}",
            labels.join(",")
        ));
    }
    lines.push(format!(
        "{{\"op\":\"pattern\",\"labeling\":\"gw\",\"partitions\":{},\"support\":{},\"max_edges\":2,\"reps\":1,\"top\":5}}",
        8 + 4 * rng.below(5),
        4 + rng.below(5),
    ));
    lines
}

fn op_name(line: &str) -> &'static str {
    ["stats", "support", "pattern"]
        .into_iter()
        .find(|op| line.contains(&format!("\"op\":\"{op}\"")))
        .unwrap_or("other")
}

fn daemon_config(ctx: &Ctx, txns: Vec<Transaction>, dir: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: ctx.spec.threads,
        writer: WriterConfig {
            publish_interval: Duration::from_secs(3600),
            batch: 1,
        },
        initial: txns,
        durability: Some(DurabilityConfig::new(dir)),
        trace: ctx.traced,
        ..ServeConfig::default()
    }
}

fn stop(mut handle: ServerHandle) -> Result<(), String> {
    handle.shutdown();
    handle.join().map_err(|e| format!("daemon shutdown: {e}"))
}

/// Set-up: CSV read plus `serve::start` on a fresh data directory (WAL
/// append and fsync of the seed log, generation 0 built and published),
/// repeated until at least [`MIN_SETUPS`] runs and [`SETUP_WINDOW_SECS`]
/// have passed. Appends each run's two parts; the last daemon stays up.
fn start_daemons(
    ctx: &Ctx,
    tr: &Trace,
    root: &Path,
    reads: &mut Vec<f64>,
    starts: &mut Vec<f64>,
) -> Result<(ServerHandle, Vec<Transaction>), String> {
    let begun = Instant::now();
    let mut n = 0;
    loop {
        let dir = root.join(format!("start{}", starts.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = tr.begin("setup", None);
        let t = Instant::now();
        let txns = tr.span("data.read_csv", p, |_| inputs::read(&ctx.csv))?;
        reads.push(t.elapsed().as_secs_f64());
        let cfg = daemon_config(ctx, txns.clone(), &dir);
        let t = Instant::now();
        let handle = tr
            .span("serve.start", p, |_| tnet_serve::start(cfg))
            .map_err(|e| format!("serve::start: {e}"))?;
        starts.push(t.elapsed().as_secs_f64());
        tr.end(p);
        n += 1;
        if n >= MIN_SETUPS && begun.elapsed().as_secs_f64() >= SETUP_WINDOW_SECS {
            return Ok((handle, txns));
        }
        stop(handle)?;
    }
}

struct ReadRec {
    at: f64,
    ms: f64,
    generation: u64,
    traced: bool,
}

struct WriteRec {
    due: f64,
    sent: f64,
    acked: f64,
    /// When the daemon published the generation holding this write.
    published: f64,
}

pub fn run(ctx: &Ctx, tr: &Trace) -> Result<Outcome, String> {
    let root = ctx.work_dir.join("serve");
    let mut checks = Checks::default();

    // Set-up is sampled in a window before the traffic and another after
    // it (see `run::MIN_SETUPS`).
    let (mut reads, mut starts) = (Vec::new(), Vec::new());
    let (handle, seed_log) = start_daemons(ctx, tr, &root, &mut reads, &mut starts)?;

    let writes = ((ctx.seconds * WRITE_RATE) as usize).max(2);
    let plan = schedule(&seed_log, writes);
    let expected_stats = format!(
        "{{\"ok\":true,\"op\":\"stats\",\"generation\":{writes},\"transactions\":{},\"report\":{}",
        plan.expected.len(),
        json_string(&tnet_data::stats::dataset_stats(&plan.expected).to_string()),
    );
    let limit = Duration::from_secs_f64(ctx.seconds) + DRAIN_LIMIT;

    let t0 = Instant::now();
    let secs = |t: Instant| t.duration_since(t0).as_secs_f64();
    let writes_done = AtomicBool::new(false);
    let final_gen = AtomicU64::new(u64::MAX);
    let (reads_log, read_checks, writes_log, write_checks) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut log = Vec::new();
            let mut c = Checks::default();
            let Ok(mut conn) = Conn::open(&handle) else {
                c.op(Err("reader cannot connect".into()));
                return (log, c);
            };
            let mut seen = 0u64;
            let mut rng = Rng::new(READER_SEED);
            for cycle in 0usize.. {
                let done = writes_done.load(SeqCst) && seen >= final_gen.load(SeqCst);
                if done || t0.elapsed() > limit {
                    break;
                }
                // With tracing on, traced and untraced cycles alternate.
                let traced = ctx.traced && cycle % 2 == 1;
                let cycle_span = if traced {
                    tr.begin("serve.cycle", None)
                } else {
                    None
                };
                for line in &cycle_lines(&mut rng) {
                    let start = Instant::now();
                    let span = if traced {
                        tr.begin(&format!("serve.client.{}", op_name(line)), cycle_span)
                    } else {
                        None
                    };
                    let reply = conn.call(line);
                    tr.end(span);
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    let checked = tr.span("bench.check", cycle_span, |_| {
                        reply.and_then(|r| ok_reply(&r))
                    });
                    match checked {
                        Ok(generation) => {
                            seen = seen.max(generation);
                            log.push(ReadRec {
                                at: secs(Instant::now()),
                                ms,
                                generation,
                                traced,
                            });
                            c.op(Ok(()));
                        }
                        Err(e) => c.op(Err(format!("{}: {e}", op_name(line)))),
                    }
                }
                tr.end(cycle_span);
            }
            (log, c)
        });
        let writer = s.spawn(|| {
            let mut log = Vec::new();
            let mut c = Checks::default();
            let conn = Conn::open(&handle);
            if let Ok(mut conn) = conn {
                for (k, line) in plan.lines.iter().enumerate() {
                    let due = (k + 1) as f64 / WRITE_RATE;
                    let wait = due - secs(Instant::now());
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait));
                    }
                    let sent = secs(Instant::now());
                    let acked = conn.call(line).and_then(|r| ok_reply(&r).map(|_| ()));
                    let ack = secs(Instant::now());
                    // Write k publishes generation k. The daemon's publish
                    // counter is read in process, so the wait adds no
                    // traffic. A later write that falls due meanwhile
                    // waits, and its lateness shows in its own ack latency.
                    let want = (k + 1) as u64;
                    let result = acked.and_then(|()| loop {
                        let published = handle.registry().get("serve.generations_published");
                        if published >= want {
                            break Ok(());
                        }
                        if t0.elapsed() >= limit {
                            break Err(format!(
                                "{published} generations published after the drain limit, \
                                 expected {want}"
                            ));
                        }
                        std::thread::sleep(POLL);
                    });
                    log.push(WriteRec {
                        due,
                        sent,
                        acked: ack,
                        published: secs(Instant::now()),
                    });
                    c.op(result);
                }
                let want = plan.lines.len() as u64;
                final_gen.store(want, SeqCst);
                c.op(conn
                    .call("{\"op\":\"ping\"}")
                    .and_then(|r| match ok_reply(&r)? {
                        g if g == want => Ok(()),
                        g => Err(format!(
                            "generation {g} after {want} writes: a publish was skipped or merged"
                        )),
                    }));
            } else {
                c.op(Err("writer cannot connect".into()));
            }
            writes_done.store(true, SeqCst);
            (log, c)
        });
        let (rl, rc) = reader.join().expect("reader thread panicked");
        let (wl, wc) = writer.join().expect("writer thread panicked");
        (rl, rc, wl, wc)
    });
    for c in [read_checks, write_checks] {
        checks.attempted += c.attempted;
        checks.failed += c.failed;
        checks.problems.extend(c.problems);
    }

    let traffic_s = t0.elapsed().as_secs_f64();
    // Final check: the daemon's last `stats` reply against the offline
    // computation over the log the benchmark had acknowledged.
    let mut conn = Conn::open(&handle)?;
    checks.op(conn.call("{\"op\":\"stats\"}").and_then(|r| {
        if r.starts_with(&expected_stats) {
            Ok(())
        } else {
            Err("final stats differ from dataset_stats over the acknowledged log".into())
        }
    }));
    let daemon = conn.call("{\"op\":\"trace\"}").and_then(|r| {
        ok_reply(&r)?;
        parse_json(&r).map_err(|e| e.to_string())
    });
    checks.op(daemon.as_ref().map(|_| ()).map_err(Clone::clone));
    drop(conn);
    let daemon_trace = handle.trace_snapshot();
    stop(handle)?;
    let (last, _) = start_daemons(ctx, tr, &root, &mut reads, &mut starts)?;
    stop(last)?;
    let _ = std::fs::remove_dir_all(&root);
    let setups: Vec<f64> = reads.iter().zip(&starts).map(|(r, s)| r + s).collect();

    // Visibility: write k is generation k; the first read carrying
    // generation >= k is when the reader observed it.
    let mut visible = Vec::new();
    for (k, w) in writes_log.iter().enumerate() {
        match reads_log.iter().find(|r| r.generation > k as u64) {
            Some(r) => visible.push(((r.at - w.acked) * 1e3).max(0.0)),
            None => checks.op(Err(format!("write {} never observed by the reader", k + 1))),
        }
    }
    let all: Vec<f64> = reads_log.iter().map(|r| r.ms).collect();
    let untraced: Vec<f64> = reads_log
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.ms)
        .collect();
    let traced: Vec<f64> = reads_log
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.ms)
        .collect();
    let span_s = reads_log.last().map_or(traffic_s, |r| r.at);
    let acks: Vec<f64> = writes_log.iter().map(|w| (w.acked - w.due) * 1e3).collect();
    let published: Vec<f64> = writes_log.iter().map(|w| w.published - w.due).collect();
    let late = writes_log
        .iter()
        .map(|w| (w.sent - w.due) * 1e3)
        .fold(0.0, f64::max);

    let mut out = Outcome {
        checks,
        ..Outcome::default()
    };
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("wall_s", median(&published));
    out.e2e.insert("read_p50_ms", median(&untraced));
    out.e2e.insert("read_p99_ms", quantile(&untraced, 0.99));
    out.e2e.insert("read_qps", all.len() as f64 / span_s);
    out.e2e.insert("visible_p50_ms", median(&visible));
    let cache = daemon.as_ref().ok().map(|m| {
        let metric = |k: &str| field(m, "metrics").and_then(|ms| num(ms, k)).unwrap_or(0.0);
        (metric("serve.cache_hits"), metric("serve.cache_misses"))
    });
    out.record.extend([
        ("setups".to_string(), setups.len().to_string()),
        ("setup_s".into(), summary(&setups, 5)),
        ("traffic_s".into(), format!("{traffic_s:.3}")),
        ("due_to_published_s".into(), summary(&published, 4)),
        ("reads".into(), all.len().to_string()),
        (
            "writes".into(),
            format!("{} at {WRITE_RATE}/s, open loop", writes_log.len()),
        ),
        ("writer_max_late_ms".into(), format!("{late:.3}")),
        ("visible_samples".into(), visible.len().to_string()),
        (
            "log_records".into(),
            format!(
                "{} seeded, {} at the end",
                seed_log.len(),
                plan.expected.len()
            ),
        ),
    ]);
    if let Some((hits, misses)) = cache {
        out.record.push((
            "cacheable_replies".into(),
            format!(
                "{} cached, {} computed ({:.3} computed)",
                hits,
                misses,
                misses / (hits + misses).max(1.0)
            ),
        ));
    }

    if ctx.traced {
        layers(
            ctx,
            &mut out,
            tr,
            &seed_log,
            &plan.expected,
            &reads,
            &starts,
        );
        out.layers.insert(
            "obs.trace_overhead_pct".into(),
            100.0 * (median(&traced) - median(&untraced)) / median(&untraced),
        );
        if let Ok(m) = &daemon {
            let metric = |k: &str| field(m, "metrics").and_then(|ms| num(ms, k)).unwrap_or(0.0);
            let (hits, misses) = cache.unwrap_or_default();
            out.layers.extend([
                (
                    "serve.cache_hit_ratio".to_string(),
                    hits / (hits + misses).max(1.0),
                ),
                (
                    "serve.server_p50_us".into(),
                    metric("serve.query_latency.p50_ns") / 1e3,
                ),
                (
                    "serve.server_p99_us".into(),
                    metric("serve.query_latency.p99_ns") / 1e3,
                ),
                (
                    "serve.publishes".into(),
                    metric("serve.generations_published"),
                ),
                // Ingest ack latency, timed from when the write was due. A
                // per-layer figure: its run-to-run spread on a shared VM
                // (fsync and wake-up latency) exceeds any end-to-end bound.
                ("serve.ack_p50_ms".into(), median(&acks)),
                (
                    "serve.wal_fsync_p50_ms".into(),
                    metric("wal.fsync.p50_ns") / 1e6,
                ),
            ]);
        }
        // Coverage: the share of each traced reader cycle spent inside
        // its requests; the reply checks are named, not covered.
        let cycles: Vec<(f64, Vec<(String, f64)>)> = tr
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "serve.cycle")
            .map(|(id, _)| crate::run::coverage(tr, id))
            .collect();
        let pct: Vec<f64> = cycles.iter().map(|c| c.0).collect();
        out.layers
            .insert("obs.span_coverage_pct".into(), median(&pct));
        if let Some((_, rest)) = cycles.last() {
            let named: Vec<String> = rest.iter().map(|(k, v)| format!("{k} {v:.2}%")).collect();
            out.record.push(("uncovered".into(), named.join(", ")));
        }
        if let Some(node) = daemon_trace {
            let spans: Vec<String> = node
                .children
                .iter()
                .map(|c| format!("{} {:.1}ms x{}", c.label, c.nanos as f64 / 1e6, c.count))
                .collect();
            out.record.push(("daemon_spans".into(), spans.join(", ")));
        }
    }
    Ok(out)
}

/// Per-layer figures taken offline, against pinned generations built
/// from the seed log and from the final log.
fn layers(
    ctx: &Ctx,
    out: &mut Outcome,
    tr: &Trace,
    seed_log: &[Transaction],
    final_log: &[Transaction],
    reads: &[f64],
    starts: &[f64],
) {
    let exec = tnet_exec::Exec::new(ctx.spec.threads);
    let p = tr.begin("offline", None);
    let timed = |name: &str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        tr.span(name, p, |_| f());
        t.elapsed().as_secs_f64() * 1e3
    };
    let mut fits = Vec::new();
    for _ in 0..3 {
        fits.push(timed("data.bin_fit", &mut || {
            std::hint::black_box(
                tnet_data::binning::BinScheme::fit_width_transactions(seed_log).ok(),
            );
        }));
    }
    let mut gen = None;
    let mut builds = Vec::new();
    for (id, log) in [(0, seed_log), (1, final_log)] {
        builds.push(timed("serve.generation_build", &mut || {
            gen = Generation::build(id, log.to_vec()).ok();
        }));
    }
    let exec_ms = |line: &str, n: usize| -> f64 {
        let req = parse_request(line).expect("the benchmark's requests parse");
        let v: Vec<f64> = (0..n)
            .map(|_| {
                timed(&format!("serve.execute.{}", op_name(line)), &mut || {
                    if let Some(g) = &gen {
                        std::hint::black_box(tnet_serve::query::execute(g, &req, &exec).ok());
                    }
                })
            })
            .collect();
        median(&v)
    };
    let mut rng = Rng::new(READER_SEED);
    let cycles: Vec<Vec<String>> = (0..2).map(|_| cycle_lines(&mut rng)).collect();
    let stats_ms = exec_ms(&cycles[0][0], 3);
    let supports: Vec<f64> = cycles
        .iter()
        .flat_map(|c| &c[1..=SUPPORTS_PER_CYCLE])
        .map(|w| exec_ms(w, 1))
        .collect();
    let support_ms = median(&supports);
    let patterns: Vec<f64> = cycles
        .iter()
        .map(|c| exec_ms(&c[SUPPORTS_PER_CYCLE + 1], 1))
        .collect();
    let pattern_ms = median(&patterns);
    let parse_lines: Vec<&String> = cycles.iter().flatten().collect();
    let t = Instant::now();
    const PARSES: usize = 200;
    for _ in 0..PARSES {
        for l in &parse_lines {
            std::hint::black_box(parse_request(l).map(|r| r == Request::Ping).ok());
        }
    }
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / (PARSES * parse_lines.len()) as f64;
    tr.end(p);
    out.layers.extend([
        ("data.read_csv_ms".to_string(), median(reads) * 1e3),
        ("data.bin_fit_ms".into(), median(&fits)),
        ("serve.start_ms".into(), median(starts) * 1e3),
        ("serve.generation_build_ms".into(), median(&builds)),
        ("serve.execute_ms.stats".into(), stats_ms),
        ("serve.execute_ms.support".into(), support_ms),
        ("serve.execute_ms.pattern".into(), pattern_ms),
        ("serve.parse_us".into(), parse_us),
    ]);
}
