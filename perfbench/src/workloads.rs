//! The three workloads. Each drives the library the way users do
//! (scenario document → `BatchRunner` / `Simulator`), from the checked-in
//! documents under `scenarios/`, with the modelled caches starting empty.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use allarm_core::{
    load_scenario_doc, AllocationPolicy, BatchRunner, Benchmark, MachineConfig, Scenario,
    SimReport, SimSnapshot, SimulationBuilder, Simulator, TraceFormat, Workload, WorkloadSpec,
};
use allarm_workloads::tracefile::write_trace_file_framed;
use allarm_workloads::{AccessSource, MemAccess, TraceSource};

use crate::layers::{self, CacheReplay};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::paper::{self, TARGETS};
use crate::spans::Tracer;
use crate::stats::{self, median};

/// Per-thread length of the fig3 grid's generated workloads.
const FIG3_ACCESSES: usize = 10_000;
/// Per-thread length of the 256-core run.
const SCALE_ACCESSES: usize = 4_000;
/// Per-thread length of the recorded kv-store trace.
const KV_ACCESSES: usize = 50_000;
/// Records per frame of the recorded `binary-v2` traces; small against a
/// kv-store thread's 50k records, so its replay decodes frames throughout.
const FRAME_LEN: u64 = 4096;
/// Mid-run snapshots the kv-store replay takes.
const KV_SNAPSHOTS: u64 = 3;
/// Run id of the spans of the traced run's layer phase.
const LAYER_RUN: u32 = u32::MAX;
/// Host threads of every timed iteration: batch threads on fig3, shards on
/// the 256-core run. One, so the end-to-end times measure the simulator and
/// not how a shared host schedules several busy threads at once; the traced
/// run's layer phase measures the batch and shard layers at `nproc` threads.
const TIMED_THREADS: usize = 1;

const FIG3_DOC: &str = "scenarios/fig3_comparison.toml";
const SCALE_DOC: &str = "scenarios/scale256_comparison.toml";
const KV_DOC: &str = "scenarios/kv_store_comparison.toml";

/// Workload names `--workload` accepts (besides `all`).
pub const NAMES: [&str; 3] = ["fig3_grid", "scale256_sharded", "kv_stream_ckpt"];

/// What the benchmark was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Seconds to keep iterating.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Hardware threads: the layer phase's batch threads, shards and
    /// barrier participants.
    pub nproc: usize,
    /// Scratch directory for trace files and span dumps.
    pub scratch: PathBuf,
}

/// Correctness checks: every check and every simulated row is attempted
/// once; the failed ones are counted and described.
#[derive(Debug, Default)]
pub struct Checks {
    /// Rows run plus checks made.
    pub attempted: u64,
    /// Rows that failed plus checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` simulated rows that completed.
    pub fn rows_done(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts one check, recording `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Reports are equal when every field is and their CSV renderings are
/// byte-identical.
fn same(a: &SimReport, b: &SimReport) -> bool {
    a == b && a.csv_row() == b.csv_row()
}

/// One iteration's measurements.
#[derive(Debug, Default)]
struct Iter {
    setup_s: f64,
    wall_s: f64,
    sim_s: f64,
    accesses: u64,
    reports: Vec<SimReport>,
    /// kv only: the recording child's own generate and record times.
    child: Option<Recorded>,
    /// kv only: snapshots taken and the size of the last one.
    snapshots: u64,
    snapshot_bytes: u64,
}

/// What the kv-store recording child reports.
#[derive(Debug, Clone, Copy)]
struct Recorded {
    generate_s: f64,
    record_s: f64,
    total: u64,
    checksum: u64,
}

/// A run with checkpoints, its snapshots and the resumed tail.
#[derive(Debug)]
struct Checkpointed {
    report: SimReport,
    resumed: SimReport,
    run_s: f64,
    count: u64,
    last_bytes: u64,
    encode_s: f64,
    decode_s: f64,
    resume_s: f64,
}

/// Runs `source` on `sim` taking `snapshots` evenly spaced snapshots
/// (`SimSnapshot::to_bytes`), then restores the last one
/// (`SimSnapshot::from_bytes`) and replays the tail (`resume_source`).
fn checkpointed(
    tr: &mut Tracer,
    sim: &Simulator,
    source: AccessSource<'_>,
    snapshots: u64,
) -> Result<Checkpointed, String> {
    // Just over an even share, so the last crossing falls well before the
    // end and the resumed tail replays real work.
    let every = source.total_accesses() / (snapshots + 1) + 1;
    let mut last = Vec::new();
    let mut count = 0;
    let mut encode_s = 0.0;
    let (report, run_s) = tr.time("kernel.run", |tr| {
        sim.run_source_with_checkpoints(source, every, |snap| {
            let (bytes, secs) = tr.time("snapshot.encode", |_| snap.to_bytes());
            encode_s += secs;
            count += 1;
            last = bytes;
        })
    });
    if count == 0 {
        return Err("the run emitted no snapshot".into());
    }
    let (snap, decode_s) = tr.time("snapshot.decode", |_| SimSnapshot::from_bytes(&last));
    let snap = snap.map_err(|e| format!("snapshot does not decode: {e}"))?;
    let (resumed, resume_s) = tr.time("snapshot.resume", |_| sim.resume_source(&snap, source));
    Ok(Checkpointed {
        report,
        resumed,
        run_s,
        count,
        last_bytes: last.len() as u64,
        encode_s,
        decode_s,
        resume_s,
    })
}

/// Per-layer values filled in by a workload's layer phase; every name of
/// [`crate::metrics::PER_LAYER`] must end up set.
type Layers = BTreeMap<&'static str, f64>;

/// Layer costs measured on a workload's own inputs: cache replay, probe
/// filter and NoC on the replay's misses, v2 record and decode.
#[derive(Debug, Default)]
struct InputCosts {
    replay: CacheReplay,
    record_s: f64,
    decode_s: f64,
    decoded: u64,
}

impl InputCosts {
    /// Replays `w` through private caches of `machine`'s geometry.
    fn replay(&mut self, tr: &mut Tracer, machine: &MachineConfig, w: &Workload) {
        let (replay, _) = tr.time("cache.replay", |_| layers::cache_replay(machine, w));
        self.replay.absorb(replay);
    }

    /// Records `w` to a `binary-v2` trace at `path`, then drains it.
    fn record_and_drain(
        &mut self,
        tr: &mut Tracer,
        w: &Workload,
        path: &Path,
    ) -> Result<(), String> {
        let (written, secs) = tr.time("workloads.record", |_| {
            write_trace_file_framed(path, w, TraceFormat::BinaryV2, FRAME_LEN)
        });
        written.map_err(|e| format!("cannot record {}: {e}", path.display()))?;
        self.record_s += secs;
        self.drain(tr, path)
    }

    /// Decodes every record of the trace at `path`.
    fn drain(&mut self, tr: &mut Tracer, path: &Path) -> Result<(), String> {
        let (drained, _) = tr.time("workloads.decode", |_| layers::decode_drain(path));
        let (ns, accesses) = drained?;
        self.decode_s += ns * accesses as f64 * 1e-9;
        self.decoded += accesses;
        Ok(())
    }

    /// Times the probe filter and the NoC on the replay's misses and inserts
    /// every per-access cost.
    fn fill(&self, tr: &mut Tracer, machine: &MachineConfig, out: &mut Layers) {
        let r = &self.replay;
        let (pf, _) = tr.time("coherence.pf", |_| layers::pf_op_ns(machine, &r.misses));
        let (noc, _) = tr.time("noc.send", |_| layers::noc_send_ns(machine, &r.misses));
        out.insert("cache.access_ns", r.secs * 1e9 / r.accesses.max(1) as f64);
        out.insert(
            "cache.replay_l1_hit_ratio",
            r.l1_hits as f64 / r.accesses.max(1) as f64,
        );
        out.insert(
            "cache.replay_l2_miss_ratio",
            r.l2_misses as f64 / r.accesses.max(1) as f64,
        );
        out.insert("coherence.pf_op_ns", pf);
        out.insert("noc.send_ns", noc);
        out.insert(
            "workloads.decode_ns_per_access",
            self.decode_s * 1e9 / self.decoded.max(1) as f64,
        );
    }
}

/// A workload of the benchmark.
trait Bench {
    /// One iteration: set up, simulate, check.
    fn iterate(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Result<Iter, String>;
    /// The traced run's layer phase, after the iterations.
    fn layers(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        traced: &[Iter],
        out: &mut Layers,
    ) -> Result<(), String>;
    /// Lines printed after the metrics (fidelity, provenance).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The result of one benchmark process.
#[derive(Debug)]
pub struct Outcome {
    /// Checks and rows.
    pub checks: Checks,
    /// `(name, value, unit)` of every metric the mode prints.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed beside the metrics.
    pub notes: Vec<String>,
}

/// Runs workload `name` for `ctx.seconds` and measures it.
///
/// # Errors
///
/// Returns a message if the workload cannot be set up at all (unknown
/// name, missing scenario document, unwritable scratch directory).
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("cannot create {}: {e}", ctx.scratch.display()))?;
    let mut bench: Box<dyn Bench> = match name {
        "fig3_grid" => Box::new(Fig3::new(ctx)?),
        "scale256_sharded" => Box::new(Scale::new(ctx)?),
        "kv_stream_ckpt" => Box::new(Kv::new(ctx)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {NAMES:?}, or all)"
            ))
        }
    };
    let mut checks = Checks::default();
    let mut tr = Tracer::new(false);
    let mut plain: Vec<Iter> = Vec::new();
    let mut traced: Vec<Iter> = Vec::new();
    // One warm-up iteration, checked like the others but left out of the
    // medians: it faults in the heap that later iterations reuse. Every
    // later iteration must reproduce its reports.
    tr.set_enabled(false);
    let warmup = bench.iterate(&mut tr, &mut checks)?.reports;
    let started = std::time::Instant::now();
    // At least three untraced iterations for a median; a traced run
    // alternates untraced and traced iterations, at least two of each, so
    // the tracing overhead compares iterations made under the same load.
    let min = if ctx.trace { 2 } else { 3 };
    for run in 0u32.. {
        let tracing = ctx.trace && run % 2 == 1;
        tr.set_enabled(tracing);
        tr.set_run(run);
        let (iter, wall_s) = tr.time("iteration", |tr| bench.iterate(tr, &mut checks));
        let mut iter = iter?;
        iter.wall_s = wall_s;
        checks.check(
            warmup.len() == iter.reports.len()
                && warmup.iter().zip(&iter.reports).all(|(a, b)| same(a, b)),
            || {
                format!(
                    "iteration {run} ({}) reports differ from the warm-up iteration",
                    if tracing { "traced" } else { "untraced" }
                )
            },
        );
        if tracing {
            traced.push(iter)
        } else {
            plain.push(iter)
        }
        let enough = plain.len() >= min && (!ctx.trace || traced.len() >= min);
        if enough && started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    if traced.iter().any(|i| i.reports.is_empty()) {
        return Err(format!(
            "a traced iteration produced no reports: {}",
            checks.failures.join("; ")
        ));
    }
    let mut values = Layers::new();
    let metrics: Vec<_> = if ctx.trace {
        tr.set_enabled(true);
        tr.set_run(LAYER_RUN);
        bench.layers(&mut tr, &mut checks, &traced, &mut values)?;
        derive_common(&mut values, &traced);
        let wall = |v: &[Iter]| median(&v.iter().map(|i| i.wall_s).collect::<Vec<_>>());
        values.insert("trace.overhead_s", wall(&traced) - wall(&plain));
        let path = ctx
            .scratch
            .join(format!("spans-{name}-seed{}.jsonl", ctx.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        PER_LAYER.to_vec()
    } else {
        let pick = |f: fn(&Iter) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        let peak = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| stats::peak_rss_mib(&s))
            .ok_or("cannot read VmHWM from /proc/self/status")?;
        values.insert("setup_s", pick(|i| i.setup_s));
        values.insert("wall_s", pick(|i| i.wall_s));
        values.insert(
            "sim_maccess_per_s",
            pick(|i| i.accesses as f64 / i.sim_s / 1e6),
        );
        values.insert("peak_rss_mib", peak);
        END_TO_END.to_vec()
    };
    let mut metrics: Vec<_> = metrics
        .iter()
        .map(|m| {
            let value = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("workload {name} did not measure {}", m.name));
            (m.name, value, m.unit)
        })
        .collect();
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            checks.check(false, || format!("{name} is {value}, not a finite number"));
            *value = 0.0;
        }
    }
    let mut notes = bench.notes();
    let walls: Vec<f64> = plain.iter().map(|i| i.wall_s).collect();
    let (lo, hi) = walls
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
    notes.push(format!(
        "iterations: 1 warm-up, {} untraced (wall_s {lo:.3}..{hi:.3}), {} traced, on {TIMED_THREADS} host thread; nproc {}; seed {}",
        plain.len(),
        traced.len(),
        ctx.nproc,
        ctx.seed
    ));
    Ok(Outcome {
        checks,
        metrics,
        notes,
    })
}

/// Per-layer values every workload derives the same way from the traced
/// iterations' reports and spans, plus the kernel's unattributed time.
fn derive_common(out: &mut Layers, traced: &[Iter]) {
    let reports = &traced[0].reports;
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let accesses = sum(|r| r.total_accesses);
    let dir = sum(|r| r.directory_requests);
    let rounds = sum(|r| r.rounds_executed);
    let events = sum(|r| r.events_merged);
    out.insert("cache.l1_hit_ratio", sum(|r| r.l1_hits) / accesses);
    out.insert("cache.l2_miss_ratio", sum(|r| r.l2_misses) / accesses);
    out.insert("cache.llc_hits", sum(|r| r.llc_hits));
    out.insert("cache.llc_misses", sum(|r| r.llc_misses));
    out.insert("coherence.dir_requests", dir);
    out.insert(
        "coherence.remote_frac",
        sum(|r| r.remote_requests) / dir.max(1.0),
    );
    out.insert("coherence.pf_evictions", sum(|r| r.pf_evictions));
    out.insert("coherence.eviction_messages", sum(|r| r.eviction_messages));
    out.insert("coherence.allarm_skips", sum(|r| r.allarm_allocation_skips));
    out.insert("coherence.local_probes", sum(|r| r.local_probes));
    out.insert("noc.messages", sum(|r| r.noc_messages));
    out.insert("noc.bytes", sum(|r| r.noc_bytes));
    out.insert("mem.dram_reads", sum(|r| r.dram_reads));
    out.insert("mem.dram_writes", sum(|r| r.dram_writes));
    out.insert("engine.rounds", rounds);
    out.insert("engine.events_per_round", events / rounds.max(1.0));

    let run_s = out["kernel.run_s"];
    out.insert("kernel.ns_per_dir_request", run_s * 1e9 / dir.max(1.0));
    // The isolated costs, scaled to this run. The timed runs have one shard,
    // so no work overlaps and no barrier holds any up.
    let streaming_ns = if out["workloads.frames"] > 0.0 {
        out["workloads.decode_ns_per_access"] * accesses
    } else {
        0.0
    };
    let work_ns = out["cache.access_ns"] * accesses
        + out["coherence.pf_op_ns"] * (dir + sum(|r| r.pf_allocations))
        + out["noc.send_ns"] * sum(|r| r.noc_messages)
        + out["engine.merge_ns_per_event"] * events
        + streaming_ns;
    out.insert("kernel.unattributed_s", run_s - work_ns * 1e-9);
}

/// Barrier and merge costs, sized like this workload's rounds.
fn engine_costs(tr: &mut Tracer, ctx: &Ctx, reports: &[SimReport], out: &mut Layers) {
    let rounds: u64 = reports.iter().map(|r| r.rounds_executed).sum();
    let events: u64 = reports.iter().map(|r| r.events_merged).sum();
    let per_round = (events / rounds.max(1)) as usize;
    let (barrier, _) = tr.time("engine.barrier", |_| layers::barrier_ns(ctx.nproc, 20_000));
    let (merge, _) = tr.time("engine.merge", |_| {
        layers::merge_ns_per_event(per_round, ctx.nproc, 1_000_000, ctx.seed)
    });
    out.insert("engine.barrier_ns", barrier);
    out.insert("engine.merge_ns_per_event", merge);
}

/// `kernel.shard_speedup`: the same run at one shard and at `nproc`
/// shards, alternated three times, as the ratio of the median times; every
/// pair of reports must be byte-identical.
fn shard_speedup(
    tr: &mut Tracer,
    checks: &mut Checks,
    ctx: &Ctx,
    scenario: &Scenario,
    source: AccessSource<'_>,
    out: &mut Layers,
) -> Result<(), String> {
    let (mut one_s, mut many_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut run = |name, st: usize| {
            let sim = scenario
                .clone()
                .with_sim_threads(st)
                .build()
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(tr.time(name, |_| sim.run_source(source)))
        };
        let (one, secs) = run("shard.st1", 1)?;
        one_s.push(secs);
        let (many, secs) = run("shard.stn", ctx.nproc)?;
        many_s.push(secs);
        checks.check(same(&one, &many), || {
            format!(
                "{}: sim_threads 1 and {} reports differ",
                scenario.name, ctx.nproc
            )
        });
    }
    out.insert("kernel.shard_speedup", median(&one_s) / median(&many_s));
    Ok(())
}

/// Median over the traced iterations of the per-iteration sum of spans
/// named `name` (every traced iteration records each such span).
fn span_median(tr: &Tracer, name: &str, self_only: bool) -> f64 {
    let values: Vec<f64> = tr
        .per_run_secs(name, self_only)
        .into_iter()
        .filter(|(run, _)| *run != LAYER_RUN)
        .map(|(_, secs)| secs)
        .collect();
    median(&values)
}

/// Loads a grid document and returns its expansion: `scenario.parse`.
fn parse(tr: &mut Tracer, doc: &str) -> Result<Vec<Scenario>, String> {
    tr.time("scenario.parse", |_| {
        load_scenario_doc(doc).map(|d| d.expand())
    })
    .0
}

/// The one row of `rows` running `benchmark` under `policy`.
fn row(
    rows: Vec<Scenario>,
    benchmark: Benchmark,
    policy: AllocationPolicy,
) -> Result<Scenario, String> {
    rows.into_iter()
        .find(|s| s.policy == policy && s.workload.benchmark() == Some(benchmark))
        .ok_or_else(|| format!("no {}/{} row", benchmark.name(), policy.name()))
}

fn build(tr: &mut Tracer, scenario: &Scenario) -> Result<Simulator, String> {
    tr.time("builder.build", |_| {
        SimulationBuilder::from_scenario(scenario).and_then(SimulationBuilder::build)
    })
    .0
    .map_err(|e| format!("{}: {e}", scenario.name))
}

/// CPU seconds this process has used so far, every thread included.
fn process_cpu_s() -> Result<f64, String> {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stats::cpu_seconds(&s))
        .ok_or_else(|| "cannot read the CPU clock from /proc/self/stat".into())
}

fn mib(accesses: u64) -> f64 {
    (accesses * std::mem::size_of::<MemAccess>() as u64) as f64 / (1024.0 * 1024.0)
}

// ---------------------------------------------------------------- fig3_grid

/// The paper-figure sweep: `scenarios/fig3_comparison.toml` (8 benchmarks ×
/// Baseline/Allarm on the Table I machine) through `BatchRunner` with
/// [`TIMED_THREADS`] batch threads and one shard per run.
struct Fig3 {
    ctx: Ctx,
    /// Per row: total accesses and checksum of its independently generated
    /// workload.
    reference: Vec<(u64, u64)>,
    fidelity: Vec<(&'static str, f64, f64)>,
}

impl Fig3 {
    fn new(ctx: &Ctx) -> Result<Self, String> {
        let mut reference = Vec::new();
        let mut last: Option<(WorkloadSpec, (u64, u64))> = None;
        for s in Self::rows(&mut Tracer::new(false), ctx.seed)? {
            let sums = match &last {
                Some((spec, sums)) if *spec == s.workload => *sums,
                _ => {
                    let w = s.workload();
                    (w.total_accesses() as u64, w.checksum())
                }
            };
            reference.push(sums);
            last = Some((s.workload.clone(), sums));
        }
        Ok(Fig3 {
            ctx: ctx.clone(),
            reference,
            fidelity: Vec::new(),
        })
    }

    fn rows(tr: &mut Tracer, seed: u64) -> Result<Vec<Scenario>, String> {
        Ok(parse(tr, FIG3_DOC)?
            .into_iter()
            .map(|s| s.with_accesses(FIG3_ACCESSES).with_seed(seed))
            .collect())
    }
}

impl Bench for Fig3 {
    fn iterate(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Result<Iter, String> {
        let (rows, setup_s) = tr.time("setup", |tr| {
            let rows = Self::rows(tr, self.ctx.seed)?;
            for s in &rows {
                build(tr, s)?;
            }
            Ok::<_, String>(rows)
        });
        let rows = rows?;
        let runner = BatchRunner::with_threads(TIMED_THREADS);
        let (results, sim_s) = tr.time("batch.run", |_| runner.run(&rows));
        let reports: Vec<SimReport> = match results {
            Ok(results) => {
                let pairs = results.paired();
                checks.check(pairs.len() == rows.len() / 2, || {
                    format!(
                        "{} baseline/allarm pairs from {} rows",
                        pairs.len(),
                        rows.len()
                    )
                });
                self.fidelity.clear();
                for t in TARGETS {
                    let ratios: Vec<f64> = pairs.iter().map(t.ratio).collect();
                    let fit = stats::paper_err(&ratios, t.paper);
                    checks.check(fit.is_ok(), || format!("{}: {:?}", t.metric, fit));
                    if let Ok((geomean, err)) = fit {
                        self.fidelity.push((t.metric, err, geomean));
                    }
                }
                results.entries.into_iter().map(|e| e.report).collect()
            }
            Err(e) => {
                for _ in &rows {
                    checks.check(false, || format!("batch failed: {e}"));
                }
                Vec::new()
            }
        };
        checks.rows_done(reports.len());
        for (i, r) in reports.iter().enumerate() {
            let (total, checksum) = self.reference[i];
            checks.check(
                r.total_accesses == total && r.workload_checksum == checksum,
                || {
                    format!(
                        "{}: {} accesses / checksum {:016x}, source has {total} / {checksum:016x}",
                        rows[i].name, r.total_accesses, r.workload_checksum
                    )
                },
            );
        }
        Ok(Iter {
            setup_s,
            sim_s,
            accesses: reports.iter().map(|r| r.total_accesses).sum(),
            reports,
            ..Iter::default()
        })
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        traced: &[Iter],
        out: &mut Layers,
    ) -> Result<(), String> {
        out.insert(
            "scenario.parse_ms",
            span_median(tr, "scenario.parse", false) * 1e3,
        );
        out.insert(
            "builder.build_ms",
            span_median(tr, "builder.build", false) * 1e3,
        );
        // Each row again, serially and outside the batch, to split the
        // batch's time into generation and kernel time per row.
        let rows = Self::rows(tr, self.ctx.seed)?;
        let path = self
            .ctx
            .scratch
            .join(format!("fig3-{}.btrace", std::process::id()));
        let mut costs = InputCosts::default();
        let mut generate_s = 0.0;
        let mut run_s = 0.0;
        for (i, s) in rows.iter().enumerate() {
            let (w, secs) = tr.time("workloads.generate", |_| s.workload());
            generate_s += secs;
            let sim = build(tr, s)?;
            let (report, secs) = tr.time("kernel.run", |_| sim.run(&w));
            run_s += secs;
            checks.check(same(&report, &traced[0].reports[i]), || {
                format!(
                    "{}: a run outside the batch differs from the batch row",
                    s.name
                )
            });
            costs.replay(tr, &s.machine, &w);
            costs.record_and_drain(tr, &w, &path)?;
        }
        std::fs::remove_file(&path).ok();
        let machine = &rows[0].machine;
        costs.fill(tr, machine, out);
        out.insert("workloads.generate_s", generate_s);
        out.insert("workloads.record_s", costs.record_s);
        out.insert("workloads.frames", 0.0);
        let per_row = rows[0].workload.total_accesses(rows[0].seed).unwrap_or(0);
        out.insert(
            "workloads.materialized_mib",
            mib(per_row) * TIMED_THREADS.min(rows.len()) as f64,
        );
        out.insert("kernel.run_s", run_s);
        // The batch layer at `nproc` threads: its busy share, from the
        // process CPU clock around `BatchRunner::run` itself, median of three
        // batches. Summing the serial re-runs' kernel times instead would
        // compare host time taken seconds apart, and host speed drifts by
        // more than the idle share.
        let nproc = self.ctx.nproc;
        let timed = &traced[0].reports;
        let mut efficiency = Vec::new();
        for _ in 0..3 {
            let cpu_before = process_cpu_s()?;
            let (results, batch_s) = tr.time("batch.run_nproc", |_| {
                BatchRunner::with_threads(nproc).run(&rows)
            });
            let busy_s = process_cpu_s()? - cpu_before;
            let reports: Vec<SimReport> = results
                .map_err(|e| format!("batch on {nproc} threads failed: {e}"))?
                .entries
                .into_iter()
                .map(|e| e.report)
                .collect();
            checks.check(
                reports.len() == timed.len()
                    && reports.iter().zip(timed).all(|(a, b)| same(a, b)),
                || format!("the batch on {nproc} threads differs from the timed batch"),
            );
            efficiency.push(stats::batch_efficiency(busy_s, nproc, batch_s));
        }
        out.insert("batch.efficiency", median(&efficiency));
        out.insert(
            "batch.rows_failed",
            (rows.len() - traced[0].reports.len()) as f64,
        );
        engine_costs(tr, &self.ctx, &traced[0].reports, out);

        let first = &rows[0];
        let w = first.workload();
        shard_speedup(tr, checks, &self.ctx, first, (&w).into(), out)?;
        let sim = build(tr, first)?;
        let c = checkpointed(tr, &sim, (&w).into(), 1)?;
        snapshot_layers(checks, &first.name, &c, &traced[0].reports[0], out);
        Ok(())
    }

    fn notes(&self) -> Vec<String> {
        let mut notes: Vec<String> = self
            .fidelity
            .iter()
            .map(|(metric, err, gm)| {
                let paper = TARGETS
                    .iter()
                    .find(|t| t.metric == *metric)
                    .map_or(f64::NAN, |t| t.paper);
                format!(
                    "{metric:<32} {err:>16.6} ratio (lower is better; geomean {gm:.4}, paper {paper})"
                )
            })
            .collect();
        notes.push(format!(
            "fidelity: {}; paper length {} threads x {} accesses; measured here at {} threads x {} accesses, seed {}",
            paper::PROVENANCE,
            paper::PAPER_THREADS,
            paper::PAPER_ACCESSES_PER_THREAD,
            paper::PAPER_THREADS,
            FIG3_ACCESSES,
            self.ctx.seed
        ));
        notes
    }
}

fn snapshot_layers(
    checks: &mut Checks,
    name: &str,
    c: &Checkpointed,
    full: &SimReport,
    out: &mut Layers,
) {
    checks.check(same(&c.report, full), || {
        format!("{name}: checkpointed run differs from the plain run")
    });
    checks.check(same(&c.resumed, &c.report), || {
        format!("{name}: resumed report differs from the uninterrupted one")
    });
    out.insert("snapshot.count", c.count as f64);
    out.insert("snapshot.bytes", c.last_bytes as f64);
    out.insert("snapshot.encode_ms", c.encode_s * 1e3 / c.count as f64);
    out.insert("snapshot.decode_ms", c.decode_s * 1e3);
    out.insert("snapshot.resume_s", c.resume_s);
}

// --------------------------------------------------------- scale256_sharded

/// One raytrace/Allarm row of `scenarios/scale256_comparison.toml` (64-node
/// 8×8 torus, 4 cores per node, shared per-node LLC slices on), run by
/// `Simulator::run` at [`TIMED_THREADS`] shards; the layer phase compares
/// one shard with `nproc`.
struct Scale {
    ctx: Ctx,
    reference: (u64, u64),
}

impl Scale {
    fn new(ctx: &Ctx) -> Result<Self, String> {
        let w = Self::scenario(&mut Tracer::new(false), ctx)?.workload();
        Ok(Scale {
            ctx: ctx.clone(),
            reference: (w.total_accesses() as u64, w.checksum()),
        })
    }

    fn scenario(tr: &mut Tracer, ctx: &Ctx) -> Result<Scenario, String> {
        Ok(row(
            parse(tr, SCALE_DOC)?,
            Benchmark::Raytrace,
            AllocationPolicy::Allarm,
        )?
        .with_accesses(SCALE_ACCESSES)
        .with_seed(ctx.seed)
        .with_sim_threads(TIMED_THREADS))
    }
}

impl Bench for Scale {
    fn iterate(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Result<Iter, String> {
        let (setup, setup_s) = tr.time("setup", |tr| {
            let s = Self::scenario(tr, &self.ctx)?;
            let (w, _) = tr.time("workloads.generate", |_| s.workload());
            Ok::<_, String>((build(tr, &s)?, w))
        });
        let (sim, w) = setup?;
        let (report, sim_s) = tr.time("kernel.run", |_| sim.run(&w));
        let (total, checksum) = self.reference;
        checks.rows_done(1);
        checks.check(
            report.total_accesses == total && report.workload_checksum == checksum,
            || {
                format!(
                    "256-core run: {} accesses / {:016x}, source has {total} / {checksum:016x}",
                    report.total_accesses, report.workload_checksum
                )
            },
        );
        Ok(Iter {
            setup_s,
            sim_s,
            accesses: report.total_accesses,
            reports: vec![report],
            ..Iter::default()
        })
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        traced: &[Iter],
        out: &mut Layers,
    ) -> Result<(), String> {
        out.insert(
            "scenario.parse_ms",
            span_median(tr, "scenario.parse", false) * 1e3,
        );
        out.insert(
            "builder.build_ms",
            span_median(tr, "builder.build", false) * 1e3,
        );
        out.insert(
            "workloads.generate_s",
            span_median(tr, "workloads.generate", false),
        );
        let run_s = span_median(tr, "kernel.run", false);
        out.insert("kernel.run_s", run_s);
        out.insert(
            "batch.efficiency",
            run_s / span_median(tr, "iteration", false),
        );
        out.insert("batch.rows_failed", 0.0);
        let s = Self::scenario(tr, &self.ctx)?;
        let w = s.workload();
        let path = self
            .ctx
            .scratch
            .join(format!("scale-{}.btrace", std::process::id()));
        let mut costs = InputCosts::default();
        costs.replay(tr, &s.machine, &w);
        costs.record_and_drain(tr, &w, &path)?;
        std::fs::remove_file(&path).ok();
        costs.fill(tr, &s.machine, out);
        out.insert("workloads.record_s", costs.record_s);
        out.insert("workloads.frames", 0.0);
        out.insert("workloads.materialized_mib", mib(w.total_accesses() as u64));
        engine_costs(tr, &self.ctx, &traced[0].reports, out);
        shard_speedup(tr, checks, &self.ctx, &s, (&w).into(), out)?;
        let sim = build(tr, &s)?;
        let c = checkpointed(tr, &sim, (&w).into(), 1)?;
        snapshot_layers(checks, &s.name, &c, &traced[0].reports[0], out);
        Ok(())
    }
}

// ----------------------------------------------------------- kv_stream_ckpt

/// The kv-store serving profile (kv-store/Allarm row of
/// `scenarios/kv_store_comparison.toml`): recorded to a `binary-v2` trace
/// during set-up by a child process, so this process never materializes it,
/// then replayed streaming with periodic snapshots, and the tail resumed
/// from the last snapshot.
struct Kv {
    ctx: Ctx,
    path: PathBuf,
}

impl Kv {
    fn new(ctx: &Ctx) -> Self {
        Kv {
            ctx: ctx.clone(),
            path: ctx
                .scratch
                .join(format!("kv-{}.btrace", std::process::id())),
        }
    }

    fn scenario(tr: &mut Tracer, seed: u64) -> Result<Scenario, String> {
        Ok(row(
            parse(tr, KV_DOC)?,
            Benchmark::KvStore,
            AllocationPolicy::Allarm,
        )?
        .with_accesses(KV_ACCESSES)
        .with_seed(seed))
    }

    /// Records the trace in a child process and reads back its report line.
    fn record(&self) -> Result<Recorded, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
        let out = Command::new(exe)
            .arg("--record-kv")
            .arg(&self.path)
            .args(["--seed", &self.ctx.seed.to_string()])
            .output()
            .map_err(|e| format!("cannot start the recording process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "recording process failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let fields: Vec<&str> = text.split_whitespace().collect();
        let bad = || format!("unexpected recording output `{}`", text.trim());
        let [generate_s, record_s, total, checksum] = fields[..] else {
            return Err(bad());
        };
        Ok(Recorded {
            generate_s: generate_s.parse().map_err(|_| bad())?,
            record_s: record_s.parse().map_err(|_| bad())?,
            total: total.parse().map_err(|_| bad())?,
            checksum: u64::from_str_radix(checksum, 16).map_err(|_| bad())?,
        })
    }
}

/// The recording child: generates the kv-store workload for `seed` and
/// writes it to `path` as a `binary-v2` trace. Prints
/// `generate_s record_s total_accesses checksum_hex`.
///
/// # Errors
///
/// Returns a message if the document, generation or write fails.
pub fn record_kv(path: &Path, seed: u64) -> Result<String, String> {
    let mut tr = Tracer::new(false);
    let s = Kv::scenario(&mut tr, seed)?;
    let (w, generate_s) = tr.time("workloads.generate", |_| s.workload());
    let (written, record_s) = tr.time("workloads.record", |_| {
        write_trace_file_framed(path, &w, TraceFormat::BinaryV2, FRAME_LEN)
    });
    written.map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(format!(
        "{generate_s} {record_s} {} {:016x}",
        w.total_accesses(),
        w.checksum()
    ))
}

impl Bench for Kv {
    fn iterate(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Result<Iter, String> {
        let (setup, setup_s) = tr.time("setup", |tr| {
            let (recorded, _) = tr.time("workloads.record_process", |_| self.record());
            let recorded = recorded?;
            let s = Self::scenario(tr, self.ctx.seed)?;
            let (source, _) = tr.time("workloads.open", |_| TraceSource::open(&self.path));
            let source = source.map_err(|e| format!("cannot open {}: {e}", self.path.display()))?;
            let sim = build(tr, &s)?;
            Ok::<_, String>((recorded, source, sim))
        });
        let (recorded, source, sim) = setup?;
        let c = checkpointed(tr, &sim, (&source).into(), KV_SNAPSHOTS)?;
        checks.rows_done(1);
        checks.check(
            c.report.total_accesses == recorded.total
                && c.report.workload_checksum == recorded.checksum
                && source.checksum() == recorded.checksum,
            || {
                format!(
                    "kv replay: {} accesses / {:016x}, recorded {} / {:016x}",
                    c.report.total_accesses,
                    c.report.workload_checksum,
                    recorded.total,
                    recorded.checksum
                )
            },
        );
        checks.check(c.count >= 2, || {
            format!("kv replay took {} snapshots", c.count)
        });
        checks.check(same(&c.resumed, &c.report), || {
            "kv replay: resumed report differs from the uninterrupted one".into()
        });
        Ok(Iter {
            setup_s,
            sim_s: c.run_s,
            accesses: c.report.total_accesses,
            reports: vec![c.report],
            child: Some(recorded),
            snapshots: c.count,
            snapshot_bytes: c.last_bytes,
            ..Iter::default()
        })
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        traced: &[Iter],
        out: &mut Layers,
    ) -> Result<(), String> {
        let child = |f: fn(&Recorded) -> f64| {
            median(
                &traced
                    .iter()
                    .filter_map(|i| i.child.as_ref().map(f))
                    .collect::<Vec<_>>(),
            )
        };
        out.insert(
            "scenario.parse_ms",
            span_median(tr, "scenario.parse", false) * 1e3,
        );
        out.insert(
            "builder.build_ms",
            span_median(tr, "builder.build", false) * 1e3,
        );
        out.insert("workloads.generate_s", child(|r| r.generate_s));
        out.insert("workloads.record_s", child(|r| r.record_s));
        let run_s = span_median(tr, "kernel.run", true);
        out.insert("kernel.run_s", run_s);
        out.insert(
            "batch.efficiency",
            run_s / span_median(tr, "iteration", false),
        );
        out.insert("batch.rows_failed", 0.0);
        let count = traced[0].snapshots as f64;
        out.insert("snapshot.count", count);
        out.insert("snapshot.bytes", traced[0].snapshot_bytes as f64);
        out.insert(
            "snapshot.encode_ms",
            span_median(tr, "snapshot.encode", false) * 1e3 / count,
        );
        out.insert(
            "snapshot.decode_ms",
            span_median(tr, "snapshot.decode", false) * 1e3,
        );
        out.insert(
            "snapshot.resume_s",
            span_median(tr, "snapshot.resume", false),
        );

        let s = Self::scenario(tr, self.ctx.seed)?;
        let source = TraceSource::open(&self.path).map_err(|e| e.to_string())?;
        let threads = source.threads().len();
        out.insert(
            "workloads.frames",
            (0..threads).map(|t| source.frames(t).len()).sum::<usize>() as f64,
        );
        out.insert(
            "workloads.materialized_mib",
            mib(threads as u64 * FRAME_LEN),
        );
        let mut costs = InputCosts::default();
        costs.replay(tr, &s.machine, &s.workload());
        costs.drain(tr, &self.path)?;
        costs.fill(tr, &s.machine, out);
        engine_costs(tr, &self.ctx, &traced[0].reports, out);
        shard_speedup(tr, checks, &self.ctx, &s, (&source).into(), out)
    }
}

impl Drop for Kv {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}
