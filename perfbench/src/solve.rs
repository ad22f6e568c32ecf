//! `solve_mix`: cache-off queries with freshly drawn shapes, so the
//! engine, the solvers and the geometry kernels do the work and the
//! runtime and cache almost none.  Two connections, closed loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mrs_bench::serve::{line_csv, planar_csv};
use mrs_server::{Client, Json};
use rand::prelude::*;

use crate::common::{boot, threads, upload, Counters, Reference, Shape, Spec};
use crate::load::{
    answer_value, certified_answer, post, same_value, Exchange, Kind, Recorder, Tally,
};
use crate::report::sample;
use crate::{Phase, Setup};

/// Points in the line dataset.
pub const LINE_POINTS: usize = 400_000;
/// Points in the planar dataset.
pub const PLANAR_POINTS: usize = 10_000;
/// The one radius `approx-static-ball` is queried at: a Technique 1
/// structure is built per radius, so a fresh radius per query would
/// measure rebuilds, not queries.
pub const STATIC_RADIUS: f64 = 0.4;
/// Lengths per `/batch` request.
pub const BATCH_LENGTHS: usize = 16;

/// One entry of the request deck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Query(&'static str),
    Batch,
}

/// Requests per deck of 50, by class.  Each connection deals its requests
/// from a deck shuffled per round, so every 50 requests carry exactly
/// these counts.  The weights keep each class under ~40% of worker time,
/// and put the query median inside one class's block: by cost the 48
/// queries sort as approx-static-ball (~4 ms) 1–12, colored rect (~7 ms)
/// 13–19, batched interval (~11 ms) 20–29, then the rest, so the p50 sits
/// mid-block instead of on the step between two classes, where a small
/// shift in either class's share of the run moves it a lot.
const DECK: [(Class, usize); 7] = [
    (Class::Query("exact-disk-2d"), 2),
    (Class::Query("exact-rect-2d"), 10),
    (Class::Query("exact-colored-rect-2d"), 7),
    (Class::Query("batched-interval-1d"), 10),
    (Class::Query("exact-interval-1d"), 7),
    (Class::Query("approx-static-ball"), 12),
    (Class::Batch, 2),
];

/// Served answers kept for the reference check, per connection 0 class.
const SAMPLES_PER_CLASS: usize = 2;

/// The generated inputs and the sample of served answers.
pub struct SolveMix {
    seed: u64,
    /// Line dataset CSV.
    pub line_csv: String,
    /// Planar dataset CSV.
    pub planar_csv: String,
    /// Served `(query, value)` pairs of connection 0, the first few per
    /// class (deterministic in the seed).
    samples: Vec<(Spec, f64)>,
    /// The first batch connection 0 sent: lengths and served values.
    batch_sample: Option<(Vec<f64>, Vec<f64>)>,
    /// Timed phases driven so far: each draws fresh shapes, so a later
    /// phase never finds an exact-disk grid an earlier one built.
    phases: u64,
}

/// Fresh shape parameters: the `k`-th points of two seeded additive
/// recurrences (golden ratio and √2 steps), so every query gets new
/// extents yet every run covers each range evenly.
struct Draws {
    offsets: (f64, f64),
    k: u64,
}

impl Draws {
    fn new(rng: &mut StdRng) -> Self {
        Self { offsets: (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)), k: 0 }
    }

    /// The next pair of unit fractions.
    fn next(&mut self) -> (f64, f64) {
        self.k += 1;
        let k = self.k as f64;
        (
            (self.offsets.0 + k * 0.618_033_988_749_895).fract(),
            (self.offsets.1 + k * 0.414_213_562_373_095).fract(),
        )
    }

    /// A value in `[lo, hi)`.
    fn within(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next().0
    }

    /// A freshly drawn query of `solver`.
    fn query(&mut self, solver: &'static str) -> Spec {
        let (shape, line) = match solver {
            "exact-disk-2d" => (Shape::Ball(self.within(0.3, 0.5)), false),
            "exact-rect-2d" => {
                let (u, v) = self.next();
                (Shape::Box(2.0 + 4.0 * u, 1.0 + 3.0 * v), false)
            }
            "exact-colored-rect-2d" => {
                let (u, v) = self.next();
                (Shape::Box(2.0 + 3.0 * u, 1.5 + 2.5 * v), false)
            }
            "approx-static-ball" => (Shape::Ball(STATIC_RADIUS), false),
            _ => (Shape::Interval(self.within(10.0, 60.0)), true),
        };
        Spec { solver, shape, line }
    }

    /// `BATCH_LENGTHS` sorted interval lengths.
    fn lengths(&mut self) -> Vec<f64> {
        let mut lengths: Vec<f64> = (0..BATCH_LENGTHS).map(|_| self.within(10.0, 60.0)).collect();
        lengths.sort_by(f64::total_cmp);
        lengths
    }
}

/// A `/batch` body of `BATCH_LENGTHS` batched-interval-1d lengths.
fn batch_body(lengths: &[f64]) -> String {
    let queries: Vec<String> = lengths
        .iter()
        .map(|l| format!(r#"{{"solver":"batched-interval-1d","shape":{{"interval":{l}}}}}"#))
        .collect();
    format!(r#"{{"dataset":"loadgen1d","cache":false,"queries":[{}]}}"#, queries.join(","))
}

/// The certified values of a `/batch` response, counting a failure if any
/// answer is missing or uncertified.
fn batch_values(tally: &mut Tally, ex: &Exchange) -> Option<Vec<f64>> {
    if ex.status != 200 {
        tally.fail(format!("batch: status {}: {}", ex.status, ex.body));
        return None;
    }
    let json = Json::parse(&ex.body).ok();
    let answers =
        json.as_ref().and_then(|j| j.get("answers")).and_then(Json::as_arr).unwrap_or(&[]);
    let values: Vec<f64> = answers
        .iter()
        .filter_map(|a| a.get("answer"))
        .filter(|a| a.get("certified").and_then(Json::as_bool) == Some(true))
        .filter_map(answer_value)
        .collect();
    if values.len() != BATCH_LENGTHS {
        tally.fail(format!(
            "batch: {} certified answers of {BATCH_LENGTHS}: {}",
            values.len(),
            ex.body
        ));
        return None;
    }
    Some(values)
}

impl SolveMix {
    /// Generates the inputs of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            line_csv: line_csv(LINE_POINTS, seed),
            planar_csv: planar_csv(PLANAR_POINTS, seed),
            samples: Vec::new(),
            batch_sample: None,
            phases: 0,
        }
    }

    /// Boots, uploads, and sends one query of every class (building the
    /// sorted line events, the grids and the Technique 1 structure) plus
    /// one batch.  The exact-disk warm-up queries are the kernel sample.
    pub fn setup(&mut self, record: bool) -> Result<Setup, String> {
        let t0 = Instant::now();
        let server = boot()?;
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        upload(&mut client, &self.line_csv, &self.planar_csv)?;
        let before = Counters::of(server.service());
        let mut recorder = Recorder::new(record.then(|| Arc::clone(server.service())), t0);
        let mut tally = Tally::default();
        let mut draws = Draws::new(&mut StdRng::seed_from_u64(self.seed ^ 0x5E7));
        let mut first_query = Vec::new();
        let mut sent_queries = 0;
        for (class, _) in DECK {
            let (body, kind) = match class {
                Class::Query(solver) => (draws.query(solver).body(false), Kind::Query(solver)),
                Class::Batch => (batch_body(&draws.lengths()), Kind::Batch),
            };
            let path = if kind == Kind::Batch { "/batch" } else { "/query" };
            let body: Arc<str> = Arc::from(body);
            let sent = Instant::now();
            let ex = post(&mut client, path, &body).map_err(|e| e.to_string())?;
            recorder.note(sent, path, &body, kind, ex.rtt, &ex.rid);
            let ok = match kind {
                Kind::Batch => batch_values(&mut tally, &ex).is_some(),
                _ => certified_answer(&mut tally, &ex, "warm-up").is_some(),
            };
            if !ok {
                return Err(format!("warm-up failed: {:?}", tally.notes));
            }
            if kind == Kind::Query("approx-static-ball") {
                first_query.push(("approx-static-ball", ex.rtt));
            }
            sent_queries += if kind == Kind::Batch { BATCH_LENGTHS } else { 1 };
        }
        let warm = Counters::of(server.service()).since(&before);
        Ok(Setup {
            elapsed: t0.elapsed(),
            server: Some(server),
            recs: recorder.recs,
            warm,
            warm_queries: sent_queries as u64,
            first_query,
        })
    }

    /// Two connections dealing from shuffled decks for `seconds`.
    pub fn drive(&mut self, setup: &Setup, seconds: f64, record: bool) -> Result<Phase, String> {
        let service = Arc::clone(setup.server().service());
        let addr = setup.server().addr();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let seed = self.seed ^ self.phases << 40;
        self.phases += 1;
        type ConnResult =
            (Tally, Vec<f32>, Vec<f32>, Recorder, Vec<(Spec, f64)>, Option<(Vec<f64>, Vec<f64>)>);
        let results: Vec<Result<ConnResult, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads().max(1))
                .map(|conn| {
                    let service = Arc::clone(&service);
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                        let mut rng =
                            StdRng::seed_from_u64(seed ^ 0x50_1E ^ (conn as u64 + 1) << 24);
                        let mut draws = Draws::new(&mut rng);
                        let mut recorder = Recorder::new(record.then_some(service), t0);
                        let mut tally = Tally::default();
                        let (mut query_rtts, mut batch_rtts) = (Vec::new(), Vec::new());
                        let mut samples: Vec<(Spec, f64)> = Vec::new();
                        let mut batch_sample = None;
                        let mut deck: Vec<Class> =
                            DECK.iter().flat_map(|&(c, n)| std::iter::repeat_n(c, n)).collect();
                        'run: loop {
                            deck.shuffle(&mut rng);
                            for &class in &deck {
                                if Instant::now() >= deadline {
                                    break 'run;
                                }
                                tally.attempted += 1;
                                let (spec, lengths) = match class {
                                    Class::Query(solver) => (Some(draws.query(solver)), None),
                                    Class::Batch => (None, Some(draws.lengths())),
                                };
                                let body: Arc<str> = match (&spec, &lengths) {
                                    (Some(spec), _) => Arc::from(spec.body(false)),
                                    (_, Some(lengths)) => Arc::from(batch_body(lengths)),
                                    _ => unreachable!("every class draws a query or a batch"),
                                };
                                let (path, kind) = match &spec {
                                    Some(spec) => ("/query", Kind::Query(spec.solver)),
                                    None => ("/batch", Kind::Batch),
                                };
                                let sent = Instant::now();
                                let ex = match post(&mut client, path, &body) {
                                    Ok(ex) => ex,
                                    Err(e) => {
                                        tally.fail(format!("I/O: {e}"));
                                        client =
                                            Client::connect(addr).map_err(|e| e.to_string())?;
                                        continue;
                                    }
                                };
                                recorder.note(sent, path, &body, kind, ex.rtt, &ex.rid);
                                match (spec, lengths) {
                                    (Some(spec), _) => {
                                        if let Some(answer) =
                                            certified_answer(&mut tally, &ex, spec.solver)
                                        {
                                            query_rtts.push(sample(ex.rtt));
                                            let kept = samples
                                                .iter()
                                                .filter(|(s, _)| s.solver == spec.solver)
                                                .count();
                                            if conn == 0 && kept < SAMPLES_PER_CLASS {
                                                samples.push((
                                                    spec,
                                                    answer_value(&answer).unwrap_or(f64::NAN),
                                                ));
                                            }
                                        }
                                    }
                                    (None, Some(lengths)) => {
                                        if let Some(values) = batch_values(&mut tally, &ex) {
                                            batch_rtts.push(sample(ex.rtt));
                                            if conn == 0 && batch_sample.is_none() {
                                                batch_sample = Some((lengths, values));
                                            }
                                        }
                                    }
                                    _ => unreachable!("every class draws a query or a batch"),
                                }
                            }
                        }
                        Ok((tally, query_rtts, batch_rtts, recorder, samples, batch_sample))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("solve_mix connection panicked")).collect()
        });
        let elapsed = t0.elapsed();
        let mut phase_tally = Tally::default();
        let (mut query_rtts, mut batch_rtts, mut recs) = (Vec::new(), Vec::new(), Vec::new());
        for result in results {
            let (tally, q, b, recorder, samples, batch_sample) = result?;
            phase_tally.merge(tally);
            query_rtts.extend(q);
            batch_rtts.extend(b);
            recs.extend(recorder.recs);
            if !samples.is_empty() {
                self.samples = samples;
            }
            if batch_sample.is_some() {
                self.batch_sample = batch_sample;
            }
        }
        recs.sort_by_key(|r| r.start);
        Ok(Phase {
            ok: (query_rtts.len() + batch_rtts.len()) as u64,
            busy: elapsed,
            side_ok: batch_rtts.len() as u64,
            side_busy: elapsed,
            query_rtts,
            side_rtts: batch_rtts,
            tally: phase_tally,
            recs,
            delta_max: 0,
        })
    }

    /// Compares connection 0's first answers per class, and its first
    /// batch, with the in-process reference; approximate answers must lie
    /// within `[(1/2 − ε) · exact, exact]`.
    pub fn verify(&self, tally: &mut Tally) -> Result<(), String> {
        let reference = Reference::new(&self.line_csv, &self.planar_csv)?;
        for line in [true, false] {
            let chosen: Vec<&(Spec, f64)> =
                self.samples.iter().filter(|(s, _)| s.line == line).collect();
            let twins: Vec<Spec> = chosen.iter().map(|(s, _)| s.exact_twin()).collect();
            let exact = reference.values(&twins)?;
            for ((spec, served), exact) in chosen.into_iter().zip(exact) {
                check_served(tally, spec, *served, exact);
            }
        }
        if let Some((lengths, served)) = &self.batch_sample {
            let specs: Vec<Spec> = lengths
                .iter()
                .map(|&l| Spec {
                    solver: "batched-interval-1d",
                    shape: Shape::Interval(l),
                    line: true,
                })
                .collect();
            for ((spec, served), exact) in specs.iter().zip(served).zip(reference.values(&specs)?) {
                check_served(tally, spec, *served, exact);
            }
        }
        Ok(())
    }
}

/// Checks one served value against the exact reference value.
pub fn check_served(tally: &mut Tally, spec: &Spec, served: f64, exact: f64) {
    if spec.exact() {
        if !same_value(served, exact) {
            tally.wrong(format!(
                "{} {:?}: served {served}, reference {exact}",
                spec.solver, spec.shape
            ));
        }
    } else {
        let floor = (0.5 - crate::common::EPS) * exact;
        if !(served >= floor - 1e-9 && served <= exact + 1e-9 * exact.abs().max(1.0)) {
            tally.fail(format!(
                "{} {:?}: served {served} outside [{floor}, {exact}]",
                spec.solver, spec.shape
            ));
        }
    }
}
