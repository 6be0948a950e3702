//! The daemon: accept loop, connection threads, and shutdown sequencing.
//!
//! Thread model (see DESIGN.md §12):
//!
//! - **accept thread** — non-blocking accept loop; spawns one thread
//!   per connection, up to [`MAX_CONNECTIONS`] at once, and refuses the
//!   next with a retryable `overloaded` reply. It joins every
//!   connection thread when shutdown begins (drain).
//! - **connection threads** — each owns a private [`Exec`]; reads
//!   newline-delimited JSON requests, answers each query against the
//!   generation [`Current::get`] hands it, and forwards mutations to
//!   the writer channel.
//! - **writer thread** — the only mutator; see [`crate::writer`].
//!
//! Shutdown (stdin EOF, a `shutdown` request, or SIGTERM turned into
//! [`ServerHandle::shutdown`]) cancels one token. The accept loop stops
//! accepting and joins connection threads, which finish their in-flight
//! request and close; then the ingest channel drops, which tells the
//! writer to flush a final generation and exit.

use crate::cache::ResultCache;
use crate::durability::{self, Durability, DurabilityConfig};
use crate::generation::{Current, Generation};
use crate::proto::{self, Request, MAX_LINE_BYTES};
use crate::query;
use crate::wal::WalOp;
use crate::writer::{IngestOp, Writer, WriterConfig};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tnet_core::error::PipelineError;
use tnet_data::model::Transaction;
use tnet_exec::{CancelToken, Exec};
use tnet_obs::json::{self, JVal};
use tnet_obs::{LatencyHistogram, MetricsRegistry, Span, SpanNode, Tracer};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads for each connection's query executor.
    pub threads: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Writer cadence and batching.
    pub writer: WriterConfig,
    /// Transactions the daemon starts with (generation 0). Ignored —
    /// with a stderr note — when `durability` is configured and the
    /// data directory already holds recovered state.
    pub initial: Vec<Transaction>,
    /// WAL + snapshot + recovery; `None` runs fully in-memory (the
    /// pre-durability behavior, still the default for tests).
    pub durability: Option<DurabilityConfig>,
    /// Collect a span tree (rendered by the CLI at exit).
    pub trace: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            cache_capacity: 256,
            writer: WriterConfig::default(),
            initial: Vec::new(),
            durability: None,
            trace: false,
        }
    }
}

/// Connections served at once. The accept thread refuses the next one
/// with a typed, retryable `overloaded` reply and spawns no thread for
/// it, so a flood of clients cannot grow the daemon's thread count.
pub const MAX_CONNECTIONS: usize = 128;

/// How long a connection blocks in one socket read or write before it
/// checks for shutdown; also the bound on writing a refusal.
const SOCKET_POLL: Duration = Duration::from_millis(100);

/// State shared by every connection thread.
struct Shared {
    current: Arc<Current>,
    cache: ResultCache,
    registry: MetricsRegistry,
    latency: LatencyHistogram,
    /// WAL fsync latency, recorded by the writer thread and exported
    /// through the `trace` op.
    fsync_latency: Arc<LatencyHistogram>,
    shutdown: CancelToken,
    threads: usize,
    /// The span tree, when tracing was enabled; exported through the
    /// `trace` op and [`ServerHandle::trace_snapshot`].
    tracer: Option<Tracer>,
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::join`] aborts rather than drains; call `join`.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    ingest: Mutex<Option<Sender<IngestOp>>>,
    accept_thread: Option<JoinHandle<()>>,
    writer_thread: Option<JoinHandle<()>>,
}

/// Starts the daemon: recovers durable state (when configured), binds,
/// spawns the writer thread and waits for it to publish generation 0,
/// then spawns the accept thread.
///
/// Recovery order matters: the WAL and snapshot are read *before* the
/// socket binds, so a corrupt data directory refuses startup (typed
/// [`PipelineError::Corruption`], CLI exit 1) rather than serving
/// wrong answers on a live port.
pub fn start(cfg: ServeConfig) -> Result<ServerHandle, PipelineError> {
    let tracer = cfg.trace.then(|| Tracer::new("serve"));
    let span = tracer.as_ref().map_or_else(Span::disabled, |t| t.root());
    let registry = MetricsRegistry::new();
    let fsync_latency = Arc::new(LatencyHistogram::new());

    let (initial, durable) = match &cfg.durability {
        Some(dcfg) => {
            let _t = span.time("serve.recover");
            let recovered = durability::recover(&dcfg.data_dir, &registry)?;
            let mut d = Durability::open(
                dcfg,
                recovered.wal_seq,
                registry.clone(),
                Arc::clone(&fsync_latency),
            )?;
            let seed = if recovered.has_state() {
                if !cfg.initial.is_empty() {
                    eprintln!(
                        "tnet serve: note: {} already holds durable state \
                         ({} live record(s) recovered); ignoring the {} seed record(s)",
                        dcfg.data_dir.display(),
                        recovered.live.len(),
                        cfg.initial.len()
                    );
                }
                recovered.live
            } else if cfg.initial.is_empty() {
                cfg.initial
            } else {
                // Seed data enters through the WAL like any other batch
                // so *everything* publishable is durable from day one.
                // The op holds the seed for the append, uncopied.
                let op = WalOp::Append(cfg.initial);
                d.append(&op)?;
                d.sync()?;
                let WalOp::Append(seed) = op else {
                    unreachable!("the seed op is an append")
                };
                seed
            };
            (seed, Some(d))
        }
        None => (cfg.initial, None),
    };
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| PipelineError::Io(format!("cannot bind {}: {e}", cfg.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| PipelineError::Io(e.to_string()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| PipelineError::Io(e.to_string()))?;

    // The writer thread builds every generation, genesis included, so
    // generation 0 lives in the writer's heap like every later one, not
    // in the caller's, where the allocator may keep it resident after
    // it is replaced (DESIGN §12). `start` waits for it: a seed that
    // bin fitting rejects still refuses startup.
    let (ingest_tx, ingest_rx) = mpsc::channel::<IngestOp>();
    let (genesis_tx, genesis_rx) = mpsc::sync_channel(1);
    let (writer_registry, writer_span) = (registry.clone(), span.clone());
    let writer_cfg = cfg.writer.clone();
    let writer_thread = std::thread::Builder::new()
        .name("tnet-serve-writer".into())
        .spawn(move || {
            let genesis = {
                let _t = writer_span.time("serve.genesis");
                Generation::build(0, initial.clone())
            };
            let current = match genesis {
                Ok(g) => Arc::new(Current::new(g)),
                Err(e) => return drop(genesis_tx.send(Err(e))),
            };
            let _ = genesis_tx.send(Ok(Arc::clone(&current)));
            Writer::new(current, initial, 1, durable, writer_registry, writer_span)
                .run(ingest_rx, writer_cfg)
        })
        .map_err(|e| PipelineError::Io(e.to_string()))?;
    let genesis = genesis_rx.recv().unwrap_or_else(|_| {
        Err(PipelineError::Io(
            "the writer thread died building generation 0".into(),
        ))
    });
    let current = match genesis {
        Ok(current) => current,
        Err(e) => {
            let _ = writer_thread.join();
            return Err(e);
        }
    };

    let shared = Arc::new(Shared {
        current,
        cache: ResultCache::new(cfg.cache_capacity),
        registry: registry.clone(),
        latency: LatencyHistogram::new(),
        fsync_latency,
        shutdown: CancelToken::new(),
        threads: cfg.threads,
        tracer,
    });

    let accept_shared = Arc::clone(&shared);
    let accept_ingest = ingest_tx.clone();
    let accept_thread = std::thread::Builder::new()
        .name("tnet-serve-accept".into())
        .spawn(move || accept_loop(listener, accept_shared, accept_ingest))
        .map_err(|e| PipelineError::Io(e.to_string()))?;

    Ok(ServerHandle {
        addr,
        shared,
        ingest: Mutex::new(Some(ingest_tx)),
        accept_thread: Some(accept_thread),
        writer_thread: Some(writer_thread),
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shared.shutdown.cancel();
    }

    /// A clonable token that triggers shutdown when cancelled — for
    /// watcher threads (stdin EOF, signal handlers) that outlive any
    /// borrow of the handle.
    pub fn shutdown_trigger(&self) -> CancelToken {
        self.shared.shutdown.clone()
    }

    /// Blocks until shutdown is requested.
    pub fn wait(&self) {
        while !self
            .shared
            .shutdown
            .sleep_until_cancelled(Duration::from_secs(3600))
        {}
    }

    /// The daemon's metrics registry (live, shared with all threads).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.shared.registry
    }

    /// The span tree collected so far, when tracing was enabled.
    pub fn trace_snapshot(&self) -> Option<tnet_obs::SpanNode> {
        self.shared.tracer.as_ref().map(Tracer::snapshot)
    }

    /// Drains and stops everything: connections finish their in-flight
    /// request, the writer flushes a final generation, all threads
    /// join. Idempotent; takes `&mut self` so the caller can still read
    /// metrics and trace snapshots afterwards. Returns an error if any
    /// daemon thread panicked.
    pub fn join(&mut self) -> Result<(), PipelineError> {
        self.shutdown();
        let mut failed = false;
        if let Some(h) = self.accept_thread.take() {
            failed |= h.join().is_err();
        }
        // Hang up the writer only after every connection thread (each
        // holding a sender clone) is gone, so the final flush sees all
        // accepted ingests.
        drop(self.ingest.lock().expect("ingest sender lock").take());
        if let Some(h) = self.writer_thread.take() {
            failed |= h.join().is_err();
        }
        if failed {
            return Err(PipelineError::Panic {
                section: "serve".into(),
                message: "a daemon thread panicked during shutdown".into(),
            });
        }
        Ok(())
    }
}

/// Accepts connections until shutdown, then joins every connection
/// thread (the drain).
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, ingest: Sender<IngestOp>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.registry.add("serve.connections", 1);
                // Reap finished threads first, so the cap counts only
                // connections still being served.
                conns.retain(|h| !h.is_finished());
                if conns.len() >= MAX_CONNECTIONS {
                    refuse(stream, &shared);
                } else {
                    let conn_shared = Arc::clone(&shared);
                    let conn_ingest = ingest.clone();
                    match std::thread::Builder::new()
                        .name("tnet-serve-conn".into())
                        .spawn(move || handle_connection(stream, conn_shared, conn_ingest))
                    {
                        Ok(h) => conns.push(h),
                        Err(_) => shared.registry.add("serve.spawn_failures", 1),
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if shared
                    .shutdown
                    .sleep_until_cancelled(Duration::from_millis(5))
                {
                    break;
                }
            }
            Err(_) => {
                // Transient accept failure (fd exhaustion, aborted
                // handshake): back off briefly instead of spinning.
                if shared
                    .shutdown
                    .sleep_until_cancelled(Duration::from_millis(5))
                {
                    break;
                }
            }
        }
        if shared.shutdown.is_cancelled() {
            break;
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Turns away a connection over [`MAX_CONNECTIONS`]: one `overloaded`
/// reply, which clients treat as "back off and retry", then close. One
/// write attempt under [`SOCKET_POLL`], so a peer that never reads
/// cannot hold up the accept thread.
fn refuse(mut stream: TcpStream, shared: &Shared) {
    shared.registry.add("serve.connections_rejected", 1);
    let err = PipelineError::Overloaded {
        message: format!("all {MAX_CONNECTIONS} connections are in use; back off and retry"),
    };
    let mut line = proto::error_reply(&err);
    line.push('\n');
    if stream.set_write_timeout(Some(SOCKET_POLL)).is_ok() {
        let _ = stream.write_all(line.as_bytes());
    }
}

/// Outcome of reading one request line.
enum LineRead {
    /// A complete line (without the trailing newline).
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`]; the excess was discarded
    /// up to the newline.
    Oversized(usize),
    /// Peer closed or the connection should end.
    Closed,
}

/// Reads one newline-terminated request, polling the shutdown token on
/// read timeouts so a drain isn't held hostage by an idle client.
fn read_line(reader: &mut BufReader<TcpStream>, shared: &Shared) -> LineRead {
    let mut acc: Vec<u8> = Vec::new();
    let mut discarding = false;
    let mut discarded = 0usize;
    loop {
        match reader.read_until(b'\n', &mut acc) {
            Ok(0) => return LineRead::Closed,
            Ok(_) if acc.last() != Some(&b'\n') => {
                // Partial read (timeout split the line); fall through to
                // the oversize check, then keep reading.
            }
            Ok(_) => {
                acc.pop();
                if acc.last() == Some(&b'\r') {
                    acc.pop();
                }
                if discarding {
                    return LineRead::Oversized(discarded + acc.len());
                }
                if acc.len() > MAX_LINE_BYTES {
                    return LineRead::Oversized(acc.len());
                }
                return match String::from_utf8(acc) {
                    Ok(line) => LineRead::Line(line),
                    Err(_) => LineRead::Line("\u{FFFD}".to_string()),
                };
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // An in-flight request line is allowed to finish during
                // drain, but an idle connection closes.
                if shared.shutdown.is_cancelled() && acc.is_empty() {
                    return LineRead::Closed;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Closed,
        }
        // Oversized in progress: drop what we have and keep consuming
        // to the newline so the *next* request starts clean.
        if acc.len() > MAX_LINE_BYTES {
            discarding = true;
            discarded += acc.len();
            acc.clear();
        }
    }
}

/// Writes one reply, polling the shutdown token on write timeouts: a
/// client that never reads its replies fills the socket buffers, and it
/// must not hold the drain hostage. Same rule as [`read_line`]: keep
/// waiting while the daemon serves, give up once shutdown has begun.
fn write_reply(stream: &mut TcpStream, reply: &str, shared: &Shared) -> bool {
    // One buffer per reply (payload + newline): two small writes
    // back-to-back would trip Nagle + delayed-ACK on a nodelay-less
    // peer, turning a sub-millisecond round trip into a ~40ms stall.
    let mut line = Vec::with_capacity(reply.len() + 1);
    line.extend_from_slice(reply.as_bytes());
    line.push(b'\n');
    let mut rest = &line[..];
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => return false,
            Ok(n) => rest = &rest[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.is_cancelled() {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

fn protocol_error(message: String) -> PipelineError {
    PipelineError::Protocol { message }
}

/// One connection's request/reply loop.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>, ingest: Sender<IngestOp>) {
    let mut out = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let poll = Some(SOCKET_POLL);
    if stream.set_read_timeout(poll).is_err() || out.set_write_timeout(poll).is_err() {
        return;
    }
    // Replies are single small segments; never hold them for Nagle.
    let _ = stream.set_nodelay(true);
    let exec = Exec::new(shared.threads);
    let mut buf_reader = BufReader::new(stream);

    loop {
        let line = match read_line(&mut buf_reader, &shared) {
            LineRead::Closed => return,
            LineRead::Oversized(len) => {
                shared.registry.add("serve.query_errors", 1);
                let err = protocol_error(format!(
                    "request line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit"
                ));
                if !write_reply(&mut out, &proto::error_reply(&err), &shared) {
                    return;
                }
                continue;
            }
            LineRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match proto::parse_request(&line) {
            Ok(r) => r,
            Err(e) => {
                shared.registry.add("serve.query_errors", 1);
                if !write_reply(&mut out, &proto::error_reply(&e), &shared) {
                    return;
                }
                continue;
            }
        };
        let close_after = request == Request::Shutdown;
        let reply = dispatch(&request, &shared, &ingest, &exec);
        if !write_reply(&mut out, &reply, &shared) || close_after {
            return;
        }
    }
}

/// Executes one request and serializes its reply.
fn dispatch(request: &Request, shared: &Shared, ingest: &Sender<IngestOp>, exec: &Exec) -> String {
    match request {
        Request::Ping => {
            let gen = shared.current.get();
            format!("{{\"ok\":true,\"op\":\"ping\",\"generation\":{}}}", gen.id)
        }
        Request::Shutdown => {
            shared.shutdown.cancel();
            "{\"ok\":true,\"op\":\"shutdown\"}".to_string()
        }
        Request::Trace => trace_reply(shared),
        Request::Ingest { records } => {
            let (ack_tx, ack_rx) = mpsc::channel();
            mutate(
                ingest,
                IngestOp::Append(records.clone(), Some(ack_tx)),
                ack_rx,
                "ingest",
                records.len(),
            )
        }
        Request::Delete { ids } => {
            let (ack_tx, ack_rx) = mpsc::channel();
            mutate(
                ingest,
                IngestOp::Delete(ids.clone(), Some(ack_tx)),
                ack_rx,
                "delete",
                ids.len(),
            )
        }
        // The cacheable generation queries.
        Request::Stats | Request::Support { .. } | Request::Pattern { .. } => {
            let started = Instant::now();
            let gen = shared.current.get();
            let canonical = request.canonical();
            let key = canonical.map(|q| (gen.id, q));
            if let Some(key) = &key {
                if let Some(hit) = shared.cache.get(key) {
                    shared.registry.add("serve.queries", 1);
                    shared.latency.record(started.elapsed().as_nanos() as u64);
                    return finalize(request, hit, shared);
                }
            }
            let reply = match query::execute(&gen, request, exec) {
                Ok(reply) => {
                    if let Some(key) = key {
                        shared.cache.put(key, reply.clone());
                    }
                    shared.registry.add("serve.queries", 1);
                    reply
                }
                Err(e) => {
                    shared.registry.add("serve.query_errors", 1);
                    proto::error_reply(&e)
                }
            };
            // How many publishes landed while this query ran against
            // its snapshot — the staleness readers tolerate. Read off
            // the counter: a second `get` would clone the Arc again.
            let lag = shared.current.publish_count().saturating_sub(gen.id);
            shared.registry.record_max("serve.pinned_lag_max", lag);
            shared.latency.record(started.elapsed().as_nanos() as u64);
            finalize(request, reply, shared)
        }
    }
}

/// Sends a mutation to the writer and waits for its durability
/// acknowledgment: with a WAL configured, `"accepted"` means the batch
/// is on disk (to the fsync policy's guarantee); a WAL refusal comes
/// back as the writer's typed error instead of a false promise.
fn mutate(
    ingest: &Sender<IngestOp>,
    op: IngestOp,
    ack: mpsc::Receiver<Result<(), PipelineError>>,
    name: &str,
    n: usize,
) -> String {
    if ingest.send(op).is_err() {
        return proto::error_reply(&PipelineError::Io(format!(
            "daemon is shutting down; {name} rejected"
        )));
    }
    match ack.recv() {
        Ok(Ok(())) => format!("{{\"ok\":true,\"op\":\"{name}\",\"accepted\":{n}}}"),
        Ok(Err(e)) => proto::error_reply(&e),
        Err(_) => proto::error_reply(&PipelineError::Io(format!(
            "daemon exited before acknowledging the {name}"
        ))),
    }
}

/// Post-processes a cacheable reply. Stats replies get the live
/// `connections_rejected` counter spliced in *outside* the cache (the
/// cached body stays counter-free, so a hit under a changed counter is
/// never stale).
fn finalize(request: &Request, reply: String, shared: &Shared) -> String {
    if !matches!(request, Request::Stats) || !reply.starts_with("{\"ok\":true") {
        return reply;
    }
    let mut reply = reply;
    let rejected = shared.registry.get("serve.connections_rejected");
    reply.truncate(reply.len() - 1);
    reply.push_str(&format!(",\"connections_rejected\":{rejected}}}"));
    reply
}

/// The `trace` op: a one-line `tnet-trace/v1` document holding every
/// counter the daemon keeps (deterministic key order) and its span tree
/// (an empty root when tracing is off), after `"ok":true,"op":"trace"`.
fn trace_reply(shared: &Shared) -> String {
    let mut metrics = shared.registry.snapshot();
    metrics.insert("serve.cache_hits".into(), shared.cache.hits());
    metrics.insert("serve.cache_misses".into(), shared.cache.misses());
    metrics.insert("serve.cache_evictions".into(), shared.cache.evictions());
    metrics.insert(
        "serve.publishes_seen".into(),
        shared.current.publish_count(),
    );
    shared
        .latency
        .snapshot()
        .publish("serve.query_latency", &mut |name, v| {
            metrics.insert(name.to_string(), v);
        });
    shared
        .fsync_latency
        .snapshot()
        .publish("wal.fsync", &mut |name, v| {
            metrics.insert(name.to_string(), v);
        });
    let root = shared.tracer.as_ref().map_or_else(
        || SpanNode {
            label: "serve".into(),
            nanos: 0,
            count: 0,
            children: Vec::new(),
        },
        Tracer::snapshot,
    );
    let mut fields = vec![
        ("ok".to_string(), JVal::Bool(true)),
        ("op".to_string(), JVal::Str("trace".into())),
    ];
    if let JVal::Obj(doc) = json::trace_to_json(&root, &metrics) {
        fields.extend(doc);
    }
    JVal::Obj(fields).compact()
}
