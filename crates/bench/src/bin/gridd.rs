//! `gridd` — the persistent grid evaluation daemon.
//!
//! ```text
//! gridd [--quick] [--addr HOST:PORT] [--cache FILE | --no-cache] [--workers N]
//! ```
//!
//! Binds a TCP listener (default `127.0.0.1:0` — an ephemeral port) and
//! prints `gridd: listening on ADDR` once ready, so scripts can scrape
//! the address. Each connection then speaks the length-prefixed JSON
//! frame protocol of [`schematic_bench::service`] (one write per frame),
//! served by [`schematic_bench::service::serve`]: `submit` evaluates a
//! batch of job keys (content-addressed cache first, then either
//! in-process compute or, with `--workers N`, N child `gridrun --jobs`
//! line workers fed the misses by pull: each evaluates one job at a
//! time and gets the next key as it answers), `status` reports
//! tallies, `fetch` returns every accumulated cell, `stats` returns
//! the live service telemetry — worker registries merged with daemon
//! spans, queue and utilization gauges, cache hit/miss/verify counters
//! (render it with `gridrun --connect ADDR --stats [--format expo]`) —
//! and `shutdown` stops the daemon.
//!
//! What staying resident buys: the cell cache is loaded once and kept
//! warm in memory, compiled-program digests are memoized across
//! batches, and repeat submissions of already-evaluated cells are
//! answered from the store without touching the cache at all. The
//! daemon is the cache file's only writer — worker children never open
//! it — so concurrent shard corruption cannot happen by construction.
//!
//! Requests are served synchronously in arrival order; the daemon is a
//! sequencer, not a parallel server. A batch's parallelism is its
//! `--workers N` processes; `--workers 0` (the default) evaluates the
//! batch in-process on `SCHEMATIC_JOBS` threads.

use schematic_bench::cache::CellCache;
use schematic_bench::grid::GridMode;
use schematic_bench::service::{serve, Daemon};
use std::net::TcpListener;
use std::process::ExitCode;

struct Options {
    mode: GridMode,
    addr: String,
    cache: Option<String>,
    no_cache: bool,
    workers: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: gridd [--quick] [--addr HOST:PORT] [--cache FILE | --no-cache] [--workers N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        mode: GridMode::Full,
        addr: "127.0.0.1:0".into(),
        cache: None,
        no_cache: false,
        workers: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.mode = GridMode::Quick,
            "--addr" => opts.addr = it.next().unwrap_or_else(|| usage()),
            "--cache" => opts.cache = Some(it.next().unwrap_or_else(|| usage())),
            "--no-cache" => opts.no_cache = true,
            "--workers" => {
                opts.workers = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    if opts.no_cache && opts.cache.is_some() {
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let cache = if opts.no_cache {
        None
    } else {
        let path = opts.cache.clone().unwrap_or_else(|| {
            std::env::var("SCHEMATIC_CACHE").unwrap_or_else(|_| "target/gridcache.jsonl".into())
        });
        Some(CellCache::open(path))
    };
    if let Some(c) = &cache {
        let (memos, cells) = c.len();
        eprintln!(
            "gridd: cache {} loaded ({memos} memos, {cells} cells)",
            c.path().display()
        );
    }
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("gridd: bind {}: {e}", opts.addr);
            return ExitCode::from(2);
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gridd: local_addr: {e}");
            return ExitCode::from(2);
        }
    };
    // The scrape line scripts wait for; stdout, flushed by the newline.
    println!("gridd: listening on {addr}");
    let mut daemon = Daemon::new(opts.mode, cache, opts.workers);
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("gridd: accept: {e}");
                continue;
            }
        };
        if serve(&mut daemon, &mut stream) {
            break;
        }
    }
    eprintln!("gridd: shutting down");
    ExitCode::SUCCESS
}
