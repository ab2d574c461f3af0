//! `tracereport` — renders a grid trace artifact written by
//! `gridrun --trace F`.
//!
//! ```text
//! tracereport FILE                       # phase-time table + hottest cells
//! tracereport FILE --top K               # show the K hottest cells (default 10)
//! tracereport FILE --cell run/Schematic/crc/10000
//!                                        # also render that cell's epoch timeline
//! tracereport --diff BASE.jsonl CAND.jsonl [--threshold PCT]
//!                                        # phase-by-phase comparison; flags cells
//!                                        # whose wall time regressed > PCT % (25)
//!                                        # and by at least 0.1 ms
//! tracereport --service FILE [--top K]   # render a service registry dumped by
//!                                        # `gridrun --connect ADDR --stats -o FILE`:
//!                                        # top-K slowest jobs, cache hit rate per
//!                                        # report kind, latency per technique x benchmark
//! ```
//!
//! The timeline's closing "Fig. 6 split" line is computed purely from
//! the event stream's cumulative energy snapshots, so it reproduces the
//! cell's computation/save/restore/re-execution breakdown exactly as
//! the grid reports print it.
//!
//! Exit codes: 0 on success, 1 when `--diff` flags a regressed cell,
//! 2 on usage or artifact errors (a `--cell` the artifact holds no
//! trace for among them).

use schematic_bench::grid::Job;
use schematic_bench::trace::{from_jsonl, render_trace_diff, render_trace_report};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: tracereport FILE [--cell KIND/TECHNIQUE/BENCHMARK/TBPF] [--top K]\n\
         usage: tracereport --diff BASE.jsonl CAND.jsonl [--threshold PCT]\n\
         usage: tracereport --service FILE [--top K]"
    );
    std::process::exit(2);
}

fn load(file: &str) -> Vec<schematic_bench::trace::CellTrace> {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("tracereport: {file}: {e}");
        std::process::exit(2);
    });
    from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("tracereport: {file}: {e}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut cell = None;
    let mut top_k = 10usize;
    let mut diff = false;
    let mut service = false;
    let mut threshold_pct = 25.0f64;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--diff" => diff = true,
            "--service" => service = true,
            "--threshold" => {
                threshold_pct = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--cell" => {
                let key = it.next().unwrap_or_else(|| usage());
                cell = Some(Job::parse(&key).unwrap_or_else(|e| {
                    eprintln!("tracereport: bad --cell: {e}");
                    std::process::exit(2);
                }));
            }
            "--top" => {
                top_k = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ if !arg.starts_with('-') => files.push(arg),
            _ => usage(),
        }
    }
    if service {
        if files.len() != 1 || diff || cell.is_some() {
            usage();
        }
        let text = std::fs::read_to_string(&files[0]).unwrap_or_else(|e| {
            eprintln!("tracereport: {}: {e}", files[0]);
            std::process::exit(2);
        });
        let registry = schematic_obs::codec::parse(&text).unwrap_or_else(|e| {
            eprintln!("tracereport: {}: {e}", files[0]);
            std::process::exit(2);
        });
        print!(
            "{}",
            schematic_bench::service::render_service_report(&registry, top_k)
        );
        return ExitCode::SUCCESS;
    }
    if diff {
        if files.len() != 2 || cell.is_some() {
            usage();
        }
        let baseline = load(&files[0]);
        let candidate = load(&files[1]);
        let (report, flagged) = render_trace_diff(&baseline, &candidate, threshold_pct / 100.0);
        print!("{report}");
        return if flagged {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    }
    if files.len() != 1 {
        usage();
    }
    let traces = load(&files[0]);
    if let Some(job) = cell
        .as_ref()
        .filter(|job| traces.iter().all(|t| t.job != **job))
    {
        eprintln!(
            "tracereport: {}: no trace recorded for cell {job}",
            files[0]
        );
        return ExitCode::from(2);
    }
    print!("{}", render_trace_report(&traces, cell.as_ref(), top_k));
    ExitCode::SUCCESS
}
