//! `tnet serve` — the long-lived pattern-mining daemon.
//!
//! Binds a TCP port (ephemeral by default), optionally seeds generation
//! 0 from `--input`/`--scale`, then serves newline-delimited JSON
//! queries until a `shutdown` request arrives or stdin reaches EOF
//! (disable the latter with `--shutdown-on-stdin-eof false`). The
//! bound port is printed on stdout and, with `--port-file PATH`, also
//! written to a file so scripts (and ci.sh) can find an ephemeral port
//! without parsing output.

use crate::args::Args;
use crate::commands::load_transactions;
use crate::error::CliError;
use std::time::Duration;
use tnet_serve::{DurabilityConfig, FsyncPolicy, ServeConfig, WriterConfig};

pub fn run(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&[
        "input",
        "scale",
        "seed",
        "port",
        "port-file",
        "publish-interval-ms",
        "batch",
        "cache",
        "threads",
        "shutdown-on-stdin-eof",
        "trace",
        "trace-json",
        "data-dir",
        "fsync",
        "snapshot-every",
    ])?;
    // `--labeling` is intentionally absent: the daemon serves all three
    // labelings; each query picks its own.
    let port: u16 = args.get_parsed_or("port", 0)?;
    let publish_interval_ms: u64 = args.get_parsed_or("publish-interval-ms", 200)?;
    let batch: usize = args.get_parsed_or("batch", 4096)?;
    let cache: usize = args.get_parsed_or("cache", 256)?;
    let threads = args.exec()?.threads();
    let stdin_eof = args.get_or("shutdown-on-stdin-eof", "true") == "true";
    let trace = args.get("trace") == Some("true") || args.get("trace-json").is_some();

    // Durability: `--data-dir PATH` turns on the WAL + snapshot layer.
    // `--fsync` and `--snapshot-every` tune it and require a data dir,
    // since neither means anything for an in-memory daemon.
    let durability = match args.get("data-dir") {
        Some(dir) => {
            let fsync_raw = args.get_or("fsync", "always");
            let fsync = FsyncPolicy::parse(fsync_raw).ok_or_else(|| {
                CliError::Usage(format!(
                    "--fsync: '{fsync_raw}' is not one of always, never, interval, interval:MS"
                ))
            })?;
            Some(DurabilityConfig {
                data_dir: dir.into(),
                fsync,
                snapshot_every: args.get_parsed_or("snapshot-every", 10_000u64)?,
            })
        }
        None => {
            for flag in ["fsync", "snapshot-every"] {
                if args.get(flag).is_some() {
                    return Err(CliError::Usage(format!(
                        "--{flag} requires --data-dir (no durability without a data directory)"
                    )));
                }
            }
            None
        }
    };

    // Seed generation 0 only when the user asked for data; a bare
    // `tnet serve` starts empty and fills via ingest.
    let initial = if args.get("input").is_some() || args.get("scale").is_some() {
        load_transactions(args)?
    } else {
        Vec::new()
    };

    let cfg = ServeConfig {
        addr: format!("127.0.0.1:{port}"),
        threads,
        cache_capacity: cache,
        writer: WriterConfig {
            publish_interval: Duration::from_millis(publish_interval_ms.max(1)),
            batch: batch.max(1),
        },
        initial,
        trace,
        durability,
    };
    let mut handle = tnet_serve::start(cfg)?;
    println!("serving on {}", handle.addr());
    if let Some(path) = args.get("port-file") {
        std::fs::write(path, format!("{}\n", handle.addr().port()))
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }

    if stdin_eof {
        // A dedicated thread turns stdin EOF into a shutdown request,
        // so `daemon < /dev/null` and supervisors that close the pipe
        // both stop the server cleanly.
        let shutdown = handle.shutdown_trigger();
        std::thread::Builder::new()
            .name("tnet-serve-stdin".into())
            .spawn(move || {
                use std::io::Read;
                let mut sink = [0u8; 4096];
                let mut stdin = std::io::stdin();
                while let Ok(n) = stdin.read(&mut sink) {
                    if n == 0 {
                        break;
                    }
                }
                shutdown.cancel();
            })
            .map_err(|e| CliError::Runtime(format!("cannot spawn stdin watcher: {e}")))?;
    }

    handle.wait();
    handle.join()?;

    if trace {
        if let Some(snapshot) = handle.trace_snapshot() {
            super::emit_trace(&snapshot, handle.registry(), args.get("trace-json"))?;
        }
    }
    println!(
        "shutdown complete ({} queries served)",
        handle.registry().get("serve.queries")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Starts `tnet serve` on an in-process thread, talks to it over
    /// TCP, and shuts it down via the wire protocol — the full CLI
    /// lifecycle without a subprocess.
    #[test]
    fn serve_end_to_end_via_cli() {
        let port_file = std::env::temp_dir().join("tnet_test_serve_port.txt");
        let _ = std::fs::remove_file(&port_file);
        let pf = port_file.to_string_lossy().into_owned();
        let cli = std::thread::spawn(move || {
            run(&Args::parse(&argv(&format!(
                "serve --scale 0.01 --seed 7 --cache 64 --publish-interval-ms 50 \
                 --shutdown-on-stdin-eof false --port-file {pf}"
            )))
            .unwrap())
        });
        // Wait for the port file, then connect.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let port: u16 = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse() {
                    break p;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "port file never appeared"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |line: &str| {
            let mut s = stream.try_clone().unwrap();
            writeln!(s, "{line}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        };
        assert!(send(r#"{"op":"ping"}"#).contains("\"ok\":true"));
        assert!(send(r#"{"op":"stats"}"#).contains("\"report\":"));
        assert!(send(r#"{"op":"nonsense"}"#).contains("\"kind\":\"protocol\""));
        // `tnet trace` renders a saved `trace` reply like a CLI trace.
        let summary = super::super::trace::summarize(&send(r#"{"op":"trace"}"#)).unwrap();
        assert!(summary.contains("serve.cache_misses"), "{summary}");
        assert!(summary.contains("1 spans"), "{summary}");
        assert!(send(r#"{"op":"shutdown"}"#).contains("\"ok\":true"));
        cli.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn rejects_unknown_flags() {
        let e = run(&Args::parse(&argv("serve --frobnicate yes")).unwrap()).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn rejects_bad_port() {
        let e = run(&Args::parse(&argv("serve --port 99999999")).unwrap()).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn durability_flags_require_data_dir() {
        for cmd in ["serve --fsync always", "serve --snapshot-every 100"] {
            let e = run(&Args::parse(&argv(cmd)).unwrap()).unwrap_err();
            assert!(matches!(e, CliError::Usage(_)), "{cmd}: {e}");
            assert!(e.to_string().contains("--data-dir"), "{cmd}: {e}");
        }
    }

    #[test]
    fn rejects_unknown_fsync_policy() {
        let e = run(&Args::parse(&argv("serve --data-dir /tmp/x --fsync sometimes")).unwrap())
            .unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
        assert!(e.to_string().contains("sometimes"), "{e}");
    }

    /// A corrupt data dir must refuse startup with a runtime error
    /// (exit 1) before the daemon ever binds a socket.
    #[test]
    fn corrupt_data_dir_refuses_startup() {
        let dir = std::env::temp_dir().join(format!("tnet_cli_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A WAL whose first record has a valid-looking header but a
        // garbage checksum: unambiguous mid-log corruption.
        std::fs::write(
            dir.join("wal.log"),
            [8u8, 0, 0, 0, 0xEF, 0xBE, 0xAD, 0xDE, 1, 2, 3, 4, 5, 6, 7, 8],
        )
        .unwrap();
        let d = dir.to_string_lossy().into_owned();
        let e = run(&Args::parse(&argv(&format!(
            "serve --data-dir {d} --shutdown-on-stdin-eof false"
        )))
        .unwrap())
        .unwrap_err();
        assert!(matches!(e, CliError::Runtime(_)), "{e}");
        assert!(e.to_string().contains("corrupt"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
