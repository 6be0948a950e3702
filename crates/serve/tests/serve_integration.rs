//! End-to-end tests against a live `tnet-serve` daemon on a loopback
//! TCP port: generation pinning, cache semantics, thread-count
//! determinism, drain-on-shutdown, protocol-error recovery, and the
//! serve-vs-offline differential the ISSUE's acceptance bar names.
//!
//! Every test starts its own daemon on an ephemeral port, so the tests
//! are free to run in parallel. The publish-failpoint test lives in its
//! own integration binary (`publish_failpoint.rs`) because armed
//! failpoints are process-global.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tnet_data::binning::BinScheme;
use tnet_data::model::Transaction;
use tnet_data::od_graph::{build_od_graph, EdgeLabeling, VertexLabeling};
use tnet_exec::Exec;
use tnet_graph::traverse::count_label_walks;
use tnet_obs::json::decode_trace;
use tnet_serve::proto::{json_string, parse_json, parse_request, JVal};
use tnet_serve::{
    query, Current, Generation, ServeConfig, ServerHandle, WriterConfig, MAX_CONNECTIONS,
};

fn txns(scale: f64, seed: u64) -> Vec<Transaction> {
    let cfg = tnet_data::synth::SynthConfig::scaled(scale).with_seed(seed);
    tnet_data::synth::generate(&cfg).transactions
}

/// A daemon that publishes eagerly (short timer) — for turnover tests.
fn churny_config(initial: Vec<Transaction>) -> ServeConfig {
    ServeConfig {
        writer: WriterConfig {
            publish_interval: Duration::from_millis(25),
            batch: 4096,
        },
        initial,
        ..ServeConfig::default()
    }
}

/// A daemon that never publishes on its own during a test (hour-long
/// timer, huge batch) — generation 0 stays pinned however long queries
/// and ingests interleave.
fn quiescent_config(initial: Vec<Transaction>) -> ServeConfig {
    ServeConfig {
        writer: WriterConfig {
            publish_interval: Duration::from_secs(3600),
            batch: 1 << 20,
        },
        initial,
        ..ServeConfig::default()
    }
}

/// One request/reply client over real TCP.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) -> String {
        let mut buf = line.as_bytes().to_vec();
        buf.push(b'\n');
        self.stream.write_all(&buf).expect("send");
        self.recv()
    }

    /// Sends without reading the reply (for in-flight drain tests).
    fn send_only(&mut self, line: &str) {
        let mut buf = line.as_bytes().to_vec();
        buf.push(b'\n');
        self.stream.write_all(&buf).expect("send");
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_string()
    }
}

/// Extracts `"key":<u64>` from a one-line JSON reply. Good enough for
/// the flat replies the daemon emits; avoids a JSON-parser dependency.
fn field_u64(reply: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let at = reply
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {reply}"));
    reply[at + tag.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {reply}"))
}

/// A counter out of the `trace` reply's metrics object.
fn metric(client: &mut Client, name: &str) -> u64 {
    let reply = client.send(r#"{"op":"trace"}"#);
    field_u64(&reply, name)
}

/// Polls `ping` until the served generation reaches `want`.
fn wait_for_generation(client: &mut Client, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let gen = field_u64(&client.send(r#"{"op":"ping"}"#), "generation");
        if gen >= want {
            return gen;
        }
        assert!(Instant::now() < deadline, "generation never reached {want}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A reader holding generation G keeps getting byte-identical replies
/// while (and after) G+1 publishes — the `Current` cell's core
/// contract, exercised through the same query path the daemon serves.
#[test]
fn pinned_generation_stays_byte_identical_while_next_publishes() {
    let mut data = txns(0.01, 7);
    data.truncate(300);
    let current = Current::new(Generation::build(1, data.clone()).unwrap());
    let pinned = current.get();

    let exec = Exec::sequential();
    let requests = [
        r#"{"op":"stats"}"#,
        r#"{"op":"support","labeling":"gw","labels":[0,1]}"#,
        r#"{"op":"pattern","partitions":4,"support":2,"max_edges":3,"reps":1}"#,
    ];
    let before: Vec<String> = requests
        .iter()
        .map(|line| query::execute(&pinned, &parse_request(line).unwrap(), &exec).unwrap())
        .collect();

    // G+1: a strictly larger transaction set, published mid-flight.
    let mut grown = data.clone();
    grown.extend(
        txns(0.01, 8)
            .into_iter()
            .take(100)
            .enumerate()
            .map(|(i, mut t)| {
                t.id = 1_000_000 + i as u64;
                t
            }),
    );
    current.set(Generation::build(2, grown).unwrap());

    for (line, want) in requests.iter().zip(&before) {
        let got = query::execute(&pinned, &parse_request(line).unwrap(), &exec).unwrap();
        assert_eq!(&got, want, "pinned reply changed after publish: {line}");
    }
    // A fresh get observes the new generation; the old Arc stays valid.
    assert_eq!(current.get().id, 2);
    assert_eq!(pinned.id, 1);
}

/// Cache keys carry the generation id: a publish invalidates every
/// cached reply without any explicit eviction walk.
#[test]
fn generation_turnover_invalidates_cache_keys() {
    let mut handle = tnet_serve::start(churny_config(txns(0.005, 7))).unwrap();
    let mut c = Client::connect(&handle);

    assert!(c.send(r#"{"op":"stats"}"#).contains("\"ok\":true"));
    assert_eq!(metric(&mut c, "serve.cache_misses"), 1);
    assert!(c.send(r#"{"op":"stats"}"#).contains("\"ok\":true"));
    assert_eq!(
        metric(&mut c, "serve.cache_hits"),
        1,
        "repeat within a generation hits"
    );

    let accepted = c.send(r#"{"op":"ingest","records":[{"id":900001,"pickup":733040,"olat":40.1,"olon":-88.0,"dlat":41.9,"dlon":-87.6,"distance":180.0,"weight":9500.0,"hours":8.0}]}"#);
    assert!(accepted.contains("\"accepted\":1"), "{accepted}");
    wait_for_generation(&mut c, 1);

    assert!(c.send(r#"{"op":"stats"}"#).contains("\"generation\":1"));
    assert_eq!(
        metric(&mut c, "serve.cache_misses"),
        2,
        "new generation means a new key: the old entry must not answer"
    );
    handle.shutdown();
    handle.wait();
    handle.join().unwrap();
}

/// The `trace` reply is one line: `"ok":true,"op":"trace"` and then a
/// `tnet-trace/v1` document carrying the daemon's span tree and
/// counters. It decodes through the shared trace decoder, and it still
/// fits the protocol parser's depth cap, which clients reading replies
/// with `proto::parse_json` rely on.
#[test]
fn trace_reply_is_a_one_line_trace_document() {
    let mut handle = tnet_serve::start(ServeConfig {
        trace: true,
        ..churny_config(txns(0.005, 7))
    })
    .unwrap();
    let mut c = Client::connect(&handle);
    assert!(c.send(r#"{"op":"stats"}"#).contains("\"ok\":true"));
    let accepted = c.send(r#"{"op":"ingest","records":[{"id":900001,"pickup":733040,"olat":40.1,"olon":-88.0,"dlat":41.9,"dlon":-87.6,"distance":180.0,"weight":9500.0,"hours":8.0}]}"#);
    assert!(accepted.contains("\"accepted\":1"), "{accepted}");
    wait_for_generation(&mut c, 1);

    let reply = c.send(r#"{"op":"trace"}"#);
    assert!(
        reply.starts_with(r#"{"ok":true,"op":"trace","schema":"tnet-trace/v1","#),
        "{reply}"
    );
    let JVal::Obj(fields) = parse_json(&reply).unwrap() else {
        panic!("not an object: {reply}");
    };
    assert!(fields.iter().any(|(k, _)| k == "metrics"));
    let (root, metrics) = decode_trace(&reply).unwrap();
    assert_eq!(root.label, "serve");
    for phase in ["serve.genesis", "serve.publish", "serve.freeze"] {
        assert_eq!(root.find(phase).map(|s| s.count), Some(1), "{root:?}");
    }
    assert_eq!(metrics["serve.cache_misses"], 1);
    assert_eq!(metrics["serve.queries"], field_u64(&reply, "serve.queries"));

    // Untraced, the root is an empty `serve` span.
    let mut plain = tnet_serve::start(quiescent_config(txns(0.005, 7))).unwrap();
    let mut p = Client::connect(&plain);
    let (root, _) = decode_trace(&p.send(r#"{"op":"trace"}"#)).unwrap();
    assert_eq!((root.label.as_str(), root.count), ("serve", 0));
    assert!(root.children.is_empty());
    for h in [&mut handle, &mut plain] {
        h.shutdown();
        h.wait();
        h.join().unwrap();
    }
}

/// Eviction follows recency, not insertion order, and the counters the
/// trace op exports track it exactly.
#[test]
fn lru_eviction_follows_recency_at_server_level() {
    let mut cfg = quiescent_config(txns(0.005, 7));
    cfg.cache_capacity = 2;
    let mut handle = tnet_serve::start(cfg).unwrap();
    let mut c = Client::connect(&handle);

    let s1 = r#"{"op":"support","labeling":"gw","labels":[0]}"#;
    let s2 = r#"{"op":"support","labeling":"gw","labels":[1]}"#;
    let s3 = r#"{"op":"support","labeling":"gw","labels":[0,1]}"#;
    // miss, miss, hit(s1), miss(s3 evicts s2), miss(s2 evicts s1),
    // hit(s3), miss(s1) — recency protects s1 at step 3 and s3 at
    // step 6, insertion order alone would evict differently.
    for line in [s1, s2, s1, s3, s2, s3, s1] {
        assert!(c.send(line).contains("\"ok\":true"));
    }
    assert_eq!(metric(&mut c, "serve.cache_hits"), 2);
    assert_eq!(metric(&mut c, "serve.cache_misses"), 5);
    assert_eq!(metric(&mut c, "serve.cache_evictions"), 3);
    handle.shutdown();
    handle.wait();
    handle.join().unwrap();
}

/// The same query answered on daemons sized 1, 2, and 8 worker threads
/// — with concurrent clients and a concurrent (unpublished) ingest
/// stream — produces byte-identical replies everywhere.
#[test]
fn replies_identical_across_reader_thread_counts_under_ingest() {
    let data = txns(0.005, 7);
    let lines = [
        r#"{"op":"stats"}"#,
        r#"{"op":"support","labeling":"td","labels":[1,0]}"#,
        r#"{"op":"pattern","partitions":4,"support":2,"max_edges":3,"reps":1,"top":10}"#,
    ];
    let mut per_thread_count: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut cfg = quiescent_config(data.clone());
        cfg.threads = threads;
        // Disable the cache so every client genuinely recomputes.
        cfg.cache_capacity = 0;
        let mut handle = tnet_serve::start(cfg).unwrap();

        let replies: Vec<Vec<String>> = std::thread::scope(|scope| {
            let ingest = scope.spawn(|| {
                let mut c = Client::connect(&handle);
                for batch in 0..5 {
                    let recs: Vec<String> = (0..8)
                        .map(|i| {
                            format!(
                                "{{\"id\":{},\"pickup\":733040,\"olat\":40.5,\"olon\":-88.0,\
                                 \"dlat\":41.9,\"dlon\":-87.6,\"distance\":200.0,\
                                 \"weight\":9000.0,\"hours\":9.0}}",
                                800_000 + batch * 8 + i
                            )
                        })
                        .collect();
                    let reply = c.send(&format!(
                        "{{\"op\":\"ingest\",\"records\":[{}]}}",
                        recs.join(",")
                    ));
                    assert!(reply.contains("\"accepted\":8"), "{reply}");
                }
            });
            let clients: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut c = Client::connect(&handle);
                        lines.iter().map(|l| c.send(l)).collect::<Vec<String>>()
                    })
                })
                .collect();
            let out = clients.into_iter().map(|h| h.join().unwrap()).collect();
            ingest.join().unwrap();
            out
        });
        for r in &replies[1..] {
            assert_eq!(r, &replies[0], "clients disagree at {threads} threads");
        }
        per_thread_count.push(replies.into_iter().next().unwrap());
        handle.shutdown();
        handle.wait();
        handle.join().unwrap();
        // A well-formed workload errs on no query, and the drain
        // publishes the 40 records ingested under the read load.
        let registry = handle.registry();
        assert_eq!(registry.get("serve.query_errors"), 0, "{threads} threads");
        assert_eq!(registry.get("serve.records_ingested"), 40);
        assert_eq!(registry.get("serve.generations_published"), 1);
    }
    assert_eq!(per_thread_count[0], per_thread_count[1], "1 vs 2 threads");
    assert_eq!(per_thread_count[0], per_thread_count[2], "1 vs 8 threads");
}

/// Shutdown drains: a request in flight when another connection orders
/// shutdown still gets its full reply, accepted ingests reach the final
/// flush, and the daemon publishes that flush before exiting.
#[test]
fn shutdown_drains_inflight_requests_and_flushes_ingests() {
    let mut handle = tnet_serve::start(quiescent_config(txns(0.005, 7))).unwrap();
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);

    let reply = a.send(r#"{"op":"ingest","records":[{"id":700001,"pickup":733040,"olat":40.1,"olon":-88.0,"dlat":41.9,"dlon":-87.6,"distance":180.0,"weight":9500.0,"hours":8.0},{"id":700002,"pickup":733041,"olat":40.2,"olon":-88.1,"dlat":41.8,"dlon":-87.5,"distance":190.0,"weight":9600.0,"hours":8.5}]}"#);
    assert!(reply.contains("\"accepted\":2"), "{reply}");

    a.send_only(r#"{"op":"stats"}"#);
    assert!(b.send(r#"{"op":"shutdown"}"#).contains("\"ok\":true"));
    let stats = a.recv();
    assert!(
        stats.contains("\"op\":\"stats\"") && stats.contains("\"ok\":true"),
        "in-flight request must complete during drain: {stats}"
    );

    handle.wait();
    handle.join().unwrap();
    let reg = handle.registry();
    assert_eq!(reg.get("serve.records_ingested"), 2);
    assert_eq!(
        reg.get("serve.generations_published"),
        1,
        "the quiescent timer never fired, so this publish is the final flush"
    );
}

/// Malformed, unknown, and oversized request lines each get a one-line
/// typed error reply; the connection (and the daemon) keep serving.
#[test]
fn protocol_errors_never_kill_the_connection() {
    let mut handle = tnet_serve::start(quiescent_config(txns(0.005, 7))).unwrap();
    let mut c = Client::connect(&handle);

    for bad in [
        "this is not json",
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"support","labels":"zero"}"#,
        "{\"op\":",
    ] {
        let reply = c.send(bad);
        assert!(reply.contains("\"ok\":false"), "{bad} -> {reply}");
        assert!(reply.contains("\"kind\":\"protocol\""), "{bad} -> {reply}");
        assert!(!reply.contains('\n'));
    }

    // An oversized line (> 64 KiB) is discarded up to its newline and
    // answered, and the next request on the same socket still works.
    let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(70 * 1024));
    let reply = c.send(&huge);
    assert!(reply.contains("\"kind\":\"protocol\""), "{reply}");
    assert!(reply.contains("exceeds"), "{reply}");
    assert!(c.send(r#"{"op":"ping"}"#).contains("\"ok\":true"));

    assert_eq!(metric(&mut c, "serve.query_errors"), 5);
    handle.shutdown();
    handle.wait();
    handle.join().unwrap();
}

/// The acceptance differential: replies from the daemon are
/// byte-identical to what the offline code path produces on the same
/// snapshot — stats to `tnet stats`'s render, support to a hand-built
/// frozen-CSR walk, pattern to the `tnet mine` pipeline.
#[test]
fn serve_replies_match_offline_pipeline_byte_for_byte() {
    let data = txns(0.01, 42);
    let mut handle = tnet_serve::start(quiescent_config(data.clone())).unwrap();
    let mut c = Client::connect(&handle);
    let offline_gen = Generation::build(0, data.clone()).unwrap();
    let exec = Exec::sequential();

    // stats: the reply embeds the exact `tnet stats` text, plus the
    // daemon-side `connections_rejected` field the dispatch layer
    // splices in (0 here — nothing was refused).
    let stats = c.send(r#"{"op":"stats"}"#);
    let render = tnet_data::stats::dataset_stats(&data).to_string();
    assert!(
        stats.contains(&json_string(&render)),
        "stats render diverged"
    );
    let offline_stats = query::execute(
        &offline_gen,
        &parse_request(r#"{"op":"stats"}"#).unwrap(),
        &exec,
    )
    .unwrap();
    let expected = format!(
        "{},\"connections_rejected\":0}}",
        &offline_stats[..offline_stats.len() - 1]
    );
    assert_eq!(stats, expected);

    // support: equal to a frozen-CSR walk on a graph built through the
    // offline pipeline calls directly (not via Generation).
    let scheme = BinScheme::fit_width_transactions(&data).unwrap();
    let mut g = build_od_graph(
        &data,
        &scheme,
        EdgeLabeling::GrossWeight,
        VertexLabeling::Uniform,
    )
    .graph;
    g.dedup_edges();
    let frozen = g.freeze();
    let labels = [tnet_graph::graph::ELabel(0), tnet_graph::graph::ELabel(1)];
    let support = c.send(r#"{"op":"support","labeling":"gw","labels":[0,1]}"#);
    assert_eq!(
        field_u64(&support, "count"),
        count_label_walks(&frozen, &labels),
        "{support}"
    );

    // pattern: full-line equality against the offline mine pipeline,
    // and the cached second answer is the same bytes again.
    let pat_line = r#"{"op":"pattern","partitions":4,"support":3,"max_edges":3,"reps":1,"top":10}"#;
    let pattern = c.send(pat_line);
    assert_eq!(
        pattern,
        query::execute(&offline_gen, &parse_request(pat_line).unwrap(), &exec).unwrap(),
        "serve pattern reply diverged from the offline miner"
    );
    assert_eq!(
        c.send(pat_line),
        pattern,
        "cache must replay identical bytes"
    );

    handle.shutdown();
    handle.wait();
    handle.join().unwrap();
}

/// A daemon with a data directory: acknowledged mutations survive a
/// (graceful) restart, recovered state supersedes the `initial` seed,
/// and the restarted daemon's replies match a daemon that never
/// stopped. The SIGKILL variant lives in the CLI's crash_recovery
/// integration test, where a real subprocess can be killed.
#[test]
fn durable_daemon_recovers_acknowledged_state_across_restart() {
    let dir = std::env::temp_dir().join(format!("tnet_serve_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = txns(0.005, 7);

    let durable = |initial: Vec<Transaction>| {
        let mut cfg = quiescent_config(initial);
        cfg.durability = Some(tnet_serve::DurabilityConfig {
            data_dir: dir.clone(),
            fsync: tnet_serve::FsyncPolicy::Always,
            snapshot_every: 0,
        });
        cfg
    };

    // Incarnation 1: seed + one acked ingest + one acked delete.
    let mut handle = tnet_serve::start(durable(data.clone())).unwrap();
    let mut c = Client::connect(&handle);
    let reply = c.send(r#"{"op":"ingest","records":[{"id":910001,"pickup":733040,"olat":40.1,"olon":-88.0,"dlat":41.9,"dlon":-87.6,"distance":180.0,"weight":9500.0,"hours":8.0},{"id":910002,"pickup":733041,"olat":40.2,"olon":-88.1,"dlat":41.8,"dlon":-87.5,"distance":190.0,"weight":9600.0,"hours":8.5}]}"#);
    assert!(reply.contains("\"accepted\":2"), "{reply}");
    let first_id = data[0].id;
    let reply = c.send(&format!("{{\"op\":\"delete\",\"ids\":[{first_id}]}}"));
    assert!(reply.contains("\"accepted\":1"), "{reply}");
    drop(c);
    handle.shutdown();
    handle.wait();
    handle.join().unwrap();

    // Incarnation 2: same dir, a *different* seed that must be ignored
    // in favor of the recovered state.
    let decoy = txns(0.005, 99);
    let mut restarted = tnet_serve::start(durable(decoy)).unwrap();
    let mut c2 = Client::connect(&restarted);

    // Control: a never-restarted daemon fed the exact acknowledged
    // live set (seed + both ingested records, minus the deleted id).
    let mut control_set: Vec<Transaction> = data.clone();
    control_set.push(parse_ingest_record(
        910001, 733040, 40.1, -88.0, 41.9, -87.6, 180.0, 9500.0, 8.0,
    ));
    control_set.push(parse_ingest_record(
        910002, 733041, 40.2, -88.1, 41.8, -87.5, 190.0, 9600.0, 8.5,
    ));
    control_set.retain(|t| t.id != first_id);
    let mut control = tnet_serve::start(quiescent_config(control_set)).unwrap();
    let mut cc = Client::connect(&control);

    for line in [
        r#"{"op":"stats"}"#,
        r#"{"op":"support","labeling":"gw","labels":[0,1]}"#,
        r#"{"op":"pattern","partitions":4,"support":2,"max_edges":3,"reps":1,"top":10}"#,
    ] {
        assert_eq!(
            c2.send(line),
            cc.send(line),
            "restarted daemon diverged from the never-stopped control on {line}"
        );
    }

    // The recovery counters are visible through the trace op.
    let trace = c2.send(r#"{"op":"trace"}"#);
    assert!(field_u64(&trace, "recover.live_records") > 0, "{trace}");

    drop(c2);
    drop(cc);
    restarted.shutdown();
    restarted.wait();
    restarted.join().unwrap();
    control.shutdown();
    control.wait();
    control.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds a Transaction exactly as the wire parser would from an ingest
/// record with these fields — keeps the restart differential honest
/// (both daemons see byte-identical inputs).
#[allow(clippy::too_many_arguments)]
fn parse_ingest_record(
    id: u64,
    pickup: u32,
    olat: f64,
    olon: f64,
    dlat: f64,
    dlon: f64,
    distance: f64,
    weight: f64,
    hours: f64,
) -> Transaction {
    let line = format!(
        "{{\"op\":\"ingest\",\"records\":[{{\"id\":{id},\"pickup\":{pickup},\"olat\":{olat},\
         \"olon\":{olon},\"dlat\":{dlat},\"dlon\":{dlon},\"distance\":{distance},\
         \"weight\":{weight},\"hours\":{hours}}}]}}"
    );
    match parse_request(&line).unwrap() {
        tnet_serve::Request::Ingest { mut records } => records.pop().unwrap(),
        other => panic!("not an ingest: {other:?}"),
    }
}

/// With [`MAX_CONNECTIONS`] clients connected, the next connection gets
/// a typed, *retryable* `overloaded` error (not a protocol error) from
/// the accept thread, the rejection counter ticks, and the `stats` op
/// exposes the count.
#[test]
fn connection_cap_replies_typed_retryable_overload() {
    let mut handle = tnet_serve::start(quiescent_config(txns(0.005, 7))).unwrap();

    // Fill the cap with idle connections; the ping reply proves each
    // one is being served.
    let mut herd: Vec<Client> = Vec::new();
    for i in 0..MAX_CONNECTIONS {
        let mut c = Client::connect(&handle);
        let reply = c.send(r#"{"op":"ping"}"#);
        assert!(reply.contains("\"ok\":true"), "conn {i}: {reply}");
        herd.push(c);
    }

    // Connection 129: refused with kind=overloaded (the retryable
    // taxonomy branch), then the server closes the connection.
    let mut rejected = Client::connect(&handle);
    let reply = rejected.recv();
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("\"kind\":\"overloaded\""), "{reply}");
    assert!(reply.contains("retry"), "{reply}");
    assert_eq!(handle.registry().get("serve.connections_rejected"), 1);

    // Free one connection, wait for the server thread to notice the
    // hangup, and verify the counters through trace + stats.
    drop(herd.pop());
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut c = loop {
        let mut c = Client::connect(&handle);
        let reply = c.send(r#"{"op":"ping"}"#);
        if reply.contains("\"ok\":true") {
            break c;
        }
        assert!(
            Instant::now() < deadline,
            "cap never freed after client hangup: {reply}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // At least one rejection (the guaranteed overflow connection); the
    // retry loop above may have been refused a few more times before
    // the accept thread reaped the hung-up connection, so this is a
    // floor, not an exact count.
    assert!(metric(&mut c, "serve.connections_rejected") >= 1);
    let stats = c.send(r#"{"op":"stats"}"#);
    assert!(
        field_u64(&stats, "connections_rejected") >= 1,
        "stats must expose the rejection count: {stats}"
    );

    drop(herd);
    drop(c);
    handle.shutdown();
    handle.wait();
    handle.join().unwrap();
}

/// A client that pipelines requests and never reads its replies fills
/// the loopback socket buffers, so the daemon's reply write cannot
/// complete. Once shutdown begins, that connection must give up instead
/// of holding its connection thread and the drain's `join` forever.
#[test]
fn shutdown_is_not_held_by_a_client_that_never_reads() {
    let mut handle = tnet_serve::start(quiescent_config(txns(0.005, 7))).unwrap();
    let mut probe = Client::connect(&handle);
    let reply_len = probe.send(r#"{"op":"stats"}"#).len() + 1;
    drop(probe);
    // Replies worth ~48 MB: far past what the kernel buffers on both
    // ends of a loopback connection when the receiver never drains it.
    let requests = (48 << 20) / reply_len + 1;

    let stuck = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stuck.try_clone().expect("clone");
    // The writer blocks once the daemon stops reading; it ends when the
    // daemon closes the connection.
    let writer = std::thread::spawn(move || {
        let line = b"{\"op\":\"stats\"}\n";
        for _ in 0..requests {
            if writer.write_all(line).is_err() {
                return;
            }
        }
    });
    // Shut down only once the daemon serves the stuck connection: from
    // then on it has more replies to write than the buffers hold.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.registry().get("serve.queries") < 100 {
        assert!(
            Instant::now() < deadline,
            "the stuck client was never served"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    handle.shutdown();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        handle.wait();
        let _ = done_tx.send(handle.join());
    });
    match done_rx.recv_timeout(Duration::from_secs(10)) {
        Ok(joined) => joined.unwrap(),
        // The helper threads stay blocked; the test process exits anyway.
        Err(_) => panic!("drain still waiting on a client that never reads after 10 s"),
    }
    drain.join().unwrap();
    drop(stuck);
    writer.join().unwrap();
}
