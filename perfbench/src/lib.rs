//! # mrs-perfbench — one benchmark for the MaxRS query server
//!
//! Boots `mrs_server` in-process on an ephemeral port, drives one of three
//! named closed-loop workloads over keep-alive TCP with
//! [`mrs_server::Client`], checks every answer, and prints one JSON result
//! line.  See `README.md` beside this crate for the workloads, the metrics
//! and the layer → end-to-end mapping.
//!
//! * `--trace 0` reports the end-to-end metrics of an untraced run.
//! * `--trace 1` runs the same workload traced and untraced, replays the
//!   traced requests in-process against a fresh [`mrs_server::Service`],
//!   and reports the per-layer metrics ([`layers`]).

#![warn(missing_docs)]

use std::time::Duration;

use mrs_server::ServerHandle;

pub mod common;
pub mod layers;
pub mod load;
pub mod report;
pub mod solve;
pub mod update;
pub mod zipf;

use common::Counters;
use load::{Rec, Tally};
use report::{latency_ms, peak_rss_mb, Metrics, Outcome};

/// How many times a `--trace 0` run sets the server up; `setup_s` is the
/// median.
pub const SETUPS: usize = 3;

/// A booted, loaded and warmed server.
pub struct Setup {
    /// The server, until [`Setup::shutdown`].
    pub server: Option<ServerHandle>,
    /// From boot until the datasets are uploaded, the lazy structures are
    /// built and the warm-up is done.
    pub elapsed: Duration,
    /// The warm-up requests (traced runs only).
    pub recs: Vec<Rec>,
    /// Server counters over the warm-up.
    pub warm: Counters,
    /// Queries the warm-up sent.
    pub warm_queries: u64,
    /// First-query round trips that build a Technique 1 structure.
    pub first_query: Vec<(&'static str, Duration)>,
}

impl Setup {
    /// The running server.
    pub fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("the server runs until Setup::shutdown")
    }

    /// Stops the server and waits for its threads.
    pub fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// One timed phase of a workload.
#[derive(Default)]
pub struct Phase {
    /// Successful requests of the closed loop, all connections (for
    /// `cached_zipf`, phase A only).
    pub ok: u64,
    /// How long that loop ran.
    pub busy: Duration,
    /// Successful requests of the workload's second class: pipelined
    /// requests (`cached_zipf`), batches (`solve_mix`) or rounds of
    /// mutations (`update_mix`).
    pub side_ok: u64,
    /// How long the second class was measured.
    pub side_busy: Duration,
    /// Round trips of successful `/query` requests (see [`report::sample`]).
    pub query_rtts: Vec<f32>,
    /// Round trips of the second class (for `cached_zipf`, of each
    /// depth-16 pipelined burst; for `update_mix`, of each round's
    /// mutations together).
    pub side_rtts: Vec<f32>,
    /// Attempted and failed requests.
    pub tally: Tally,
    /// The request log (traced runs only), in send order.
    pub recs: Vec<Rec>,
    /// Largest dataset delta a mutation response reported.
    pub delta_max: usize,
}

impl Phase {
    /// The end-to-end metrics every workload reports, minus `setup_s` and
    /// `peak_rss_mb`.
    pub fn end_to_end(&self, metrics: &mut Metrics) {
        metrics.push(
            "throughput_qps",
            "req/s",
            report::ratio(self.ok as f64, self.busy.as_secs_f64()),
        );
        metrics.push("query_p50_ms", "ms", latency_ms(&self.query_rtts, 0.5));
        metrics.push("query_p99_ms", "ms", latency_ms(&self.query_rtts, 0.99));
        metrics.push("side_p50_ms", "ms", latency_ms(&self.side_rtts, 0.5));
    }

    /// The second class's figures under their workload-specific names,
    /// printed in the report.
    pub fn named(&self, workload: WorkloadName) -> Vec<(&'static str, &'static str, f64)> {
        match workload {
            WorkloadName::CachedZipf => {
                vec![(
                    "pipelined_qps",
                    "req/s",
                    report::ratio(self.side_ok as f64, self.side_busy.as_secs_f64()),
                )]
            }
            WorkloadName::SolveMix => {
                vec![("batch_p50_ms", "ms", latency_ms(&self.side_rtts, 0.5))]
            }
            WorkloadName::UpdateMix => vec![
                ("update_p50_ms", "ms", latency_ms(&self.side_rtts, 0.5)),
                ("update_p99_ms", "ms", latency_ms(&self.side_rtts, 0.99)),
            ],
        }
    }

    /// Folds a later phase of the same run into this one.
    pub fn absorb(&mut self, later: Phase) {
        self.ok += later.ok;
        self.busy += later.busy;
        self.side_ok += later.side_ok;
        self.side_busy += later.side_busy;
        self.query_rtts.extend(later.query_rtts);
        self.side_rtts.extend(later.side_rtts);
        self.tally.merge(later.tally);
        self.recs.extend(later.recs);
        self.delta_max = self.delta_max.max(later.delta_max);
    }
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadName {
    /// Zipf(1.1) over a warmed cache: runtime, HTTP, JSON, cache.
    CachedZipf,
    /// Cache-off solver mix: engine, solvers, kernels.
    SolveMix,
    /// Mutations beside reads: invalidation, versions, compaction.
    UpdateMix,
}

impl WorkloadName {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cached_zipf" => Some(Self::CachedZipf),
            "solve_mix" => Some(Self::SolveMix),
            "update_mix" => Some(Self::UpdateMix),
            _ => None,
        }
    }
}

/// A workload with its generated inputs.
pub enum Workload {
    /// `cached_zipf`.
    CachedZipf(zipf::CachedZipf),
    /// `solve_mix`.
    SolveMix(solve::SolveMix),
    /// `update_mix`.
    UpdateMix(update::UpdateMix),
}

impl Workload {
    /// Generates the inputs of `name` from `seed`.
    pub fn new(name: WorkloadName, seed: u64) -> Self {
        match name {
            WorkloadName::CachedZipf => Self::CachedZipf(zipf::CachedZipf::new(seed)),
            WorkloadName::SolveMix => Self::SolveMix(solve::SolveMix::new(seed)),
            WorkloadName::UpdateMix => Self::UpdateMix(update::UpdateMix::new(seed)),
        }
    }

    /// Boots and warms a server (the timed set-up).
    pub fn setup(&mut self, record: bool) -> Result<Setup, String> {
        match self {
            Self::CachedZipf(w) => w.setup(record),
            Self::SolveMix(w) => w.setup(record),
            Self::UpdateMix(w) => w.setup(record),
        }
    }

    /// One timed phase of `seconds`.
    pub fn drive(&mut self, setup: &Setup, seconds: f64, record: bool) -> Result<Phase, String> {
        match self {
            Self::CachedZipf(w) => w.drive(setup, seconds, record),
            Self::SolveMix(w) => w.drive(setup, seconds, record),
            Self::UpdateMix(w) => w.drive(setup, seconds, record),
        }
    }

    /// Compares a seeded sample of served answers with the in-process
    /// reference.
    pub fn verify(&mut self, setup: &Setup, tally: &mut Tally) -> Result<(), String> {
        match self {
            Self::CachedZipf(w) => w.verify(tally),
            Self::SolveMix(w) => w.verify(tally),
            Self::UpdateMix(w) => w.verify(setup, tally),
        }
    }

    /// The line and planar CSV the datasets were loaded from.
    pub fn csv(&self) -> (&str, &str) {
        match self {
            Self::CachedZipf(w) => (&w.line_csv, &w.planar_csv),
            Self::SolveMix(w) => (&w.line_csv, &w.planar_csv),
            Self::UpdateMix(w) => (&w.line_csv, &w.planar_csv),
        }
    }
}

/// Command-line arguments.
pub struct Args {
    /// Which workload.
    pub workload: WorkloadName,
    /// Input seed.
    pub seed: u64,
    /// Length of a timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed =
            Args { workload: WorkloadName::CachedZipf, seed: 1, seconds: 10.0, trace: false };
        let mut workload = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WorkloadName::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => {
                    parsed.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?
                }
                "--seconds" => {
                    parsed.seconds =
                        value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {value}"));
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

/// Runs the benchmark and returns its result.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut workload = Workload::new(args.workload, args.seed);
    if args.trace {
        return layers::run(&mut workload, args);
    }
    let mut setup = workload.setup(false)?;
    let mut setups = vec![setup.elapsed.as_secs_f64()];
    let mut phase = workload.drive(&setup, args.seconds, false)?;
    // Read before the reference check and the extra set-ups: freed memory
    // the allocator keeps would otherwise count twice.
    let peak_rss = peak_rss_mb();
    workload.verify(&setup, &mut phase.tally)?;
    setup.shutdown();
    for _ in 1..SETUPS {
        let mut again = workload.setup(false)?;
        setups.push(again.elapsed.as_secs_f64());
        again.shutdown();
    }

    let mut metrics = Metrics::default();
    metrics.push("setup_s", "s", report::quantile(&mut setups, 0.5));
    phase.end_to_end(&mut metrics);
    metrics.push("peak_rss_mb", "MiB", peak_rss);
    print_report(args, &metrics, &phase.named(args.workload), &phase.tally);
    Ok(Outcome {
        correct: phase.tally.wrong_exact == 0,
        attempted: phase.tally.attempted,
        failed: phase.tally.failed,
        metrics,
    })
}

/// Prints the human-readable report: every metric with its unit, the
/// workload-specific figures, and the error rate.
pub(crate) fn print_report(
    args: &Args,
    metrics: &Metrics,
    printed: &[(&'static str, &'static str, f64)],
    tally: &Tally,
) {
    println!("workload {:?} seed {} seconds {}", args.workload, args.seed, args.seconds);
    for (name, unit, value) in metrics.iter().chain(printed.iter().copied()) {
        println!("  {name:<40} {value:>14.4} {unit}");
    }
    let error_rate = report::ratio(tally.failed as f64, tally.attempted as f64);
    println!("  {:<40} {error_rate:>14.6} fraction", "error_rate");
    for note in &tally.notes {
        println!("  failure: {note}");
    }
}
