//! Simulation-as-a-service: serves the scenario-document API over HTTP.
//!
//! Binds a hand-rolled HTTP/1.1 server (no external dependencies — see
//! `crates/server`) over the `allarm_core` job scheduler. POST a scenario
//! document, poll the job, stream its JSONL rows as they land:
//!
//! ```text
//! cargo run --release -p allarm-bench --bin allarm_serve
//! curl -X POST --data-binary @scenarios/fig3_comparison.toml \
//!     'http://127.0.0.1:8642/v1/jobs?accesses=2000'
//! curl http://127.0.0.1:8642/v1/jobs/0
//! curl -N http://127.0.0.1:8642/v1/jobs/0/results > results.jsonl
//! curl -X DELETE http://127.0.0.1:8642/v1/jobs/0
//! curl http://127.0.0.1:8642/metrics
//! ```
//!
//! A job's streamed results are byte-identical to what `scenario_run
//! --output` writes for the same document (and the same
//! `accesses`/`sim_threads` overrides).

#![forbid(unsafe_code)]

use allarm_server::{Server, ServerConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: allarm_serve [--addr <host:port>] [--workers <n>] \
     [--sim-threads <n>] [--queue-depth <n>]";

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:8642".to_string();
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let numeric = |what: &str, next: Option<String>| -> Result<usize, ExitCode> {
            next.and_then(|n| n.parse().ok()).ok_or_else(|| {
                eprintln!("{what} needs a number\n{USAGE}");
                ExitCode::FAILURE
            })
        };
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => {
                    eprintln!("--addr needs a host:port\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" => match numeric("--workers", args.next()) {
                Ok(n) => config.scheduler.workers = n,
                Err(code) => return code,
            },
            "--sim-threads" => match numeric("--sim-threads", args.next()) {
                Ok(n) => config.scheduler.sim_threads_per_job = n,
                Err(code) => return code,
            },
            "--queue-depth" => match numeric("--queue-depth", args.next()) {
                Ok(n) => config.scheduler.max_queue_depth = n,
                Err(code) => return code,
            },
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let scheduler = config.scheduler.clone();
    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[allarm_serve] listening on http://{} ({} worker(s), {} sim thread(s) per job, \
         queue depth {})",
        server.local_addr(),
        scheduler.workers,
        scheduler.sim_threads_per_job,
        scheduler.max_queue_depth,
    );
    eprintln!("[allarm_serve] POST a scenario document to /v1/jobs, stream /v1/jobs/<id>/results");

    // The accept loop runs on its own thread; this one just parks.
    loop {
        std::thread::park();
    }
}
