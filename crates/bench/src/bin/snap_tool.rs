//! Inspects versioned simulator snapshot files (`allarm_core::snapshot`).
//!
//! `info` prints the identifying header — format version, machine shape,
//! policy, workload identity, and how far along the run was — plus the
//! section table (every section's name, version, and payload size) without
//! decoding any state section, though every section's frame and checksum
//! *is* verified, so a truncated or bit-flipped file is refused with an
//! error naming the offending section. Files written by a different
//! format version are refused the same way; the file is never modified.
//!
//! ```text
//! cargo run --release -p allarm-bench --bin snap_tool -- info results.jsonl.snap
//! ```

#![forbid(unsafe_code)]

use allarm_core::snapshot::{read_header, read_section_table};
use allarm_core::SNAP_VERSION;
use std::process::ExitCode;

const USAGE: &str = "usage: snap_tool info <snapshot-file>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("info") => info(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn info(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let header = match read_header(path) {
        Ok(header) => header,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("snapshot:       {path}");
    println!("format version: {SNAP_VERSION}");
    println!(
        "machine:        {} core(s), {} node(s), {} policy",
        header.num_cores, header.num_nodes, header.policy
    );
    println!("fingerprint:    {:016x}", header.config_fingerprint);
    println!("workload:       {}", header.workload_name);
    println!("checksum:       {:016x}", header.workload_checksum);
    println!(
        "progress:       {} of {} accesses",
        header.accesses_done, header.workload_total
    );
    if header.is_batch_checkpoint() {
        println!(
            "batch cursor:   row {} (`{}`)",
            header.row_index, header.scenario
        );
    } else {
        println!("batch cursor:   (not a batch checkpoint)");
    }
    match read_section_table(path) {
        Ok(sections) => {
            println!("sections:");
            for s in &sections {
                println!("  {:<12} v{:<3} {} byte(s)", s.name, s.version, s.len);
            }
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
