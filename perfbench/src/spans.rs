//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::time`], which always measures the call with one pair of
//! `Instant` reads (the untraced run needs those times for its end-to-end
//! metrics) and, only when tracing is on, also records a span: name, start,
//! end, parent span and run id. Spans stay in memory until the traced run
//! ends and [`Tracer::write_jsonl`] writes them out.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::self_time;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call this span covers, e.g. `kernel.run`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration (or phase) the span belongs to; spans of one run share it.
    pub run: u32,
}

/// Times layer calls and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A tracer that records spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the run id stamped on the spans that follow.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Runs `f`, returning its result and its duration in seconds. With
    /// tracing on, the call is also recorded as a span named `name`, a child
    /// of whichever span is open around it.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                start: self.ns_since_epoch(start),
                end: 0,
                parent: self.open.last().copied(),
                run: self.run,
            });
            self.open.push(index);
            index
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(index) = index {
            self.open.pop();
            self.spans[index].end = self.ns_since_epoch(end);
        }
        (out, (end - start).as_secs_f64())
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        u64::try_from((at - self.epoch).as_nanos()).expect("a run lasts under 584 years")
    }

    /// Self time of span `index` in ns: its duration minus what its
    /// children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start, s.end))
            .collect();
        self_time(span.start, span.end, &children)
    }

    /// Per-run sums of the durations of spans named `name`, in seconds, one
    /// `(run id, seconds)` entry per run id that has such a span
    /// (`self_only` subtracts child spans).
    pub fn per_run_secs(&self, name: &str, self_only: bool) -> Vec<(u32, f64)> {
        let mut runs: Vec<(u32, f64)> = Vec::new();
        for (index, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let ns = if self_only {
                self.self_ns(index)
            } else {
                span.end - span.start
            };
            let secs = ns as f64 * 1e-9;
            match runs.iter_mut().find(|(run, _)| *run == span.run) {
                Some((_, total)) => *total += secs,
                None => runs.push((span.run, secs)),
            }
        }
        runs
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{}}}",
                s.run,
                s.name,
                s.start,
                s.end,
                self.self_ns(index)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_calls_record_parents_runs_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.set_run(3);
        let (value, outer_s) = tr.time("outer", |tr| {
            let (inner, _) = tr.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                7
            });
            inner + 1
        });
        assert_eq!(value, 8);
        let spans = &tr.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].run),
            ("outer", None, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        let inner_ns = spans[1].end - spans[1].start;
        assert!(inner_ns >= 2_000_000);
        assert_eq!(tr.self_ns(0), spans[0].end - spans[0].start - inner_ns);
        assert!(outer_s * 1e9 >= inner_ns as f64);
        assert_eq!(tr.per_run_secs("inner", false).len(), 1);
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut tr = Tracer::new(false);
        let (_, secs) = tr.time("outer", |tr| tr.time("inner", |_| ()));
        assert!(secs >= 0.0);
        assert!(tr.spans.is_empty());
    }
}
