//! End-to-end exercise of the simulation service over real TCP: the
//! acceptance criteria of the serving subsystem.
//!
//! * two concurrent POSTs both complete under the scheduler's thread
//!   budget, each streaming JSONL that is byte-identical to what
//!   `scenario_run --output` (the [`allarm_core::JsonlSink`] encoding)
//!   produces for the same document;
//! * admission control rejects work beyond the configured queue depth
//!   with a typed 429;
//! * `DELETE` cancels a running job between grid rows and the server
//!   stays healthy for the next job;
//! * malformed documents and unknown routes answer 400/404 through the
//!   shared loader's error text.

#![forbid(unsafe_code)]

use allarm_core::{AllocationPolicy, BatchRunner, Benchmark, JsonlSink, Scenario, ScenarioGrid};
use allarm_server::http::decode_chunked;
use allarm_server::{HttpLimits, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn comparison_grid(accesses: usize) -> ScenarioGrid {
    ScenarioGrid::new(
        Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline).with_accesses(accesses),
    )
    .benchmarks(vec![Benchmark::Barnes, Benchmark::OceanContiguous])
    .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
}

fn reference_jsonl(grid: &ScenarioGrid) -> String {
    let mut sink = JsonlSink::new();
    BatchRunner::with_threads(1)
        .run_with_sink(&grid.expand(), &mut sink)
        .unwrap();
    sink.into_string()
}

/// One request on a fresh connection; returns the response head and body.
fn exchange(addr: SocketAddr, request: String) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut wire = Vec::new();
    stream.read_to_end(&mut wire).unwrap();
    let split = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete head");
    (
        String::from_utf8(wire[..split].to_vec()).unwrap(),
        wire[split + 4..].to_vec(),
    )
}

fn post_job(addr: SocketAddr, document: &str, query: &str) -> (String, String) {
    let (head, body) = exchange(
        addr,
        format!(
            "POST /v1/jobs{query} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{document}",
            document.len(),
        ),
    );
    (head, String::from_utf8(body).unwrap())
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let (head, body) = exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n"),
    );
    (head, String::from_utf8(body).unwrap())
}

/// Streams `/v1/jobs/<id>/results` to completion and de-chunks it.
fn stream_results(addr: SocketAddr, id: u64) -> String {
    let (head, body) = exchange(
        addr,
        format!("GET /v1/jobs/{id}/results HTTP/1.1\r\nConnection: close\r\n\r\n"),
    );
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    String::from_utf8(decode_chunked(&body).expect("well-formed chunked framing")).unwrap()
}

/// Pulls a job id out of the status JSON (`"id":N`).
fn job_id(status_body: &str) -> u64 {
    let rest = status_body.split("\"id\":").nth(1).expect("an id field");
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn concurrent_jobs_stream_byte_identical_results() {
    let grid_a = comparison_grid(400);
    let grid_b = comparison_grid(700);
    let (ref_a, ref_b) = (reference_jsonl(&grid_a), reference_jsonl(&grid_b));

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Two concurrent POSTs: the default scheduler has two workers, so
    // both run at once under the shared thread budget.
    let (head_a, body_a) = post_job(addr, &grid_a.to_toml().unwrap(), "");
    let (head_b, body_b) = post_job(addr, &grid_b.to_toml().unwrap(), "");
    assert!(head_a.starts_with("HTTP/1.1 201 Created"), "{head_a}");
    assert!(head_b.starts_with("HTTP/1.1 201 Created"), "{head_b}");
    let (id_a, id_b) = (job_id(&body_a), job_id(&body_b));
    assert_ne!(id_a, id_b);

    // Stream both concurrently while they run.
    let streams = std::thread::scope(|scope| {
        let a = scope.spawn(move || stream_results(addr, id_a));
        let b = scope.spawn(move || stream_results(addr, id_b));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(streams.0, ref_a, "job {id_a} drifted from scenario_run");
    assert_eq!(streams.1, ref_b, "job {id_b} drifted from scenario_run");

    let (_, status) = get(addr, &format!("/v1/jobs/{id_a}"));
    assert!(status.contains("\"state\":\"done\""), "{status}");
    let (_, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("allarm_jobs_done 2\n"), "{metrics}");
    assert!(
        metrics.contains("allarm_rows_completed_total 8\n"),
        "{metrics}"
    );
}

#[test]
fn query_overrides_match_the_cli_flags() {
    // `?accesses=` must act exactly like `scenario_run --accesses` so the
    // CI serve gate can byte-compare against the CLI's output file.
    let grid = comparison_grid(9_999);
    let mut overridden = grid.clone();
    overridden.base.workload = overridden.base.workload.with_accesses(250);
    let reference = reference_jsonl(&overridden);

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let (head, body) = post_job(
        addr,
        &grid.to_toml().unwrap(),
        "?accesses=250&sim_threads=2",
    );
    assert!(head.starts_with("HTTP/1.1 201 Created"), "{head}");
    assert_eq!(stream_results(addr, job_id(&body)), reference);
}

#[test]
fn admission_control_answers_429_and_recovers() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            scheduler: allarm_core::SchedulerConfig {
                workers: 0, // nothing drains: admission is deterministic
                max_queue_depth: 2,
                ..allarm_core::SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let document = comparison_grid(300).to_toml().unwrap();

    for _ in 0..2 {
        let (head, _) = post_job(addr, &document, "");
        assert!(head.starts_with("HTTP/1.1 201 Created"), "{head}");
    }
    let (head, body) = post_job(addr, &document, "");
    assert!(head.starts_with("HTTP/1.1 429 Too Many Requests"), "{head}");
    assert!(body.contains("queue is full"), "{body}");

    // Cancelling a queued job frees the slot for the next POST.
    let (head, body) = exchange(
        addr,
        "DELETE /v1/jobs/0 HTTP/1.1\r\nConnection: close\r\n\r\n".into(),
    );
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        String::from_utf8(body)
            .unwrap()
            .contains("\"state\":\"cancelled\""),
        "cancelled"
    );
    let (head, _) = post_job(addr, &document, "");
    assert!(head.starts_with("HTTP/1.1 201 Created"), "{head}");
}

#[test]
fn cancellation_stops_a_running_job_between_rows() {
    // One worker, one long job: cancel after the first row lands. The
    // recorded rows must be a byte-identical prefix of the full run, and
    // the server must stay healthy for a follow-up job.
    let long_grid = ScenarioGrid::new(
        Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline).with_accesses(4_000),
    )
    .benchmarks(vec![
        Benchmark::Barnes,
        Benchmark::Cholesky,
        Benchmark::Dedup,
        Benchmark::X264,
    ])
    .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm]);
    let reference = reference_jsonl(&long_grid);

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            scheduler: allarm_core::SchedulerConfig {
                workers: 1,
                ..allarm_core::SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let (_, body) = post_job(addr, &long_grid.to_toml().unwrap(), "");
    let id = job_id(&body);

    // Wait for the first row via the scheduler (visible in-process), then
    // cancel over HTTP.
    server
        .api()
        .scheduler()
        .wait_rows(allarm_core::JobId(id), 0);
    let (head, _) = exchange(
        addr,
        format!("DELETE /v1/jobs/{id} HTTP/1.1\r\nConnection: close\r\n\r\n"),
    );
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");

    // The stream ends; whatever was recorded is a byte-identical prefix.
    let streamed = stream_results(addr, id);
    assert!(
        reference.starts_with(&streamed),
        "not a prefix:\n{streamed}"
    );
    let (_, status) = get(addr, &format!("/v1/jobs/{id}"));
    assert!(
        status.contains("\"state\":\"cancelled\"") || status.contains("\"state\":\"done\""),
        "{status}"
    );

    // Server is still healthy: a fresh job completes.
    let next = comparison_grid(300);
    let next_ref = reference_jsonl(&next);
    let (_, body) = post_job(addr, &next.to_toml().unwrap(), "");
    assert_eq!(stream_results(addr, job_id(&body)), next_ref);
}

#[test]
fn bad_documents_and_routes_get_typed_errors() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            limits: HttpLimits {
                max_body_bytes: 512,
                ..HttpLimits::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A malformed document gets the shared loader's format-naming error.
    let (head, body) = post_job(addr, "definitely not a scenario", "");
    assert!(head.starts_with("HTTP/1.1 400 Bad Request"), "{head}");
    assert!(body.contains("parsed as TOML"), "{body}");

    // Unknown routes and ids are typed 404s.
    let (head, _) = get(addr, "/v2/whatever");
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "{head}");
    let (head, _) = get(addr, "/v1/jobs/321/results");
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "{head}");

    // The configured body limit holds over real TCP.
    let oversized = "x".repeat(4_096);
    let (head, _) = post_job(addr, &oversized, "");
    assert!(head.starts_with("HTTP/1.1 413 Payload Too Large"), "{head}");
}
