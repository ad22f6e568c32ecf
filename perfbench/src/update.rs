//! `update_mix`: a writer connection mutates the datasets and a reader
//! connection reads each mutated dataset after each round, so every
//! mutation invalidates the cached answers, bumps the version, grows the
//! delta overlay and, every ~125 insert bodies, compacts it.
//!
//! The two connections run in lockstep: a round's mutations, then its
//! reads.  Run free, the two closed loops phase-locked into different
//! CPU-contention patterns from run to run: on one seed, throughput read
//! 153–185 req/s and the mutation p50 5.9–8.2 ms over four runs, against
//! 158–181 req/s and 4.3–5.0 ms in lockstep on a 2-core box.
//!
//! Each latency quantile falls inside one read class whose cost is set by
//! work, not on the step between two classes or in a scheduler-noise tail:
//! the read p50 inside the exact-interval reads, the read p99 inside the
//! planar reads (one read in 31, each about five times the costliest line
//! read).  When the p99 fell in the tail of ~6 ms reads, it spread 30% of
//! its median over ten seeds on a shared host.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrs_bench::serve::{line_csv, planar_csv};
use mrs_server::{Client, Json};
use rand::prelude::*;

use crate::common::{boot, upload, Counters, Reference, Shape, Spec};
use crate::load::{answer_value, certified_answer, post, Kind, Recorder, Tally};
use crate::report::sample;
use crate::solve::check_served;
use crate::{Phase, Setup};

/// Points in the line dataset.
pub const LINE_POINTS: usize = 50_000;
/// Points in the planar dataset: enough that a planar read (~22 ms on a
/// 2-core box) stands clear of the line reads' tail.
pub const PLANAR_POINTS: usize = 15_000;
/// Records per insert or delete body.
pub const RECORDS: usize = 100;
/// Every this many rounds the writer also mutates the planar dataset.
pub const PLANAR_EVERY: usize = 10;

/// The reader's queries of the line dataset, sent after every round.  The
/// first rebuilds the new version's index; the exact-interval read after
/// it sets the read p50.  The dynamic-ball read is cheaper (~0.4 ms) and
/// depends on the seed's data, so it must not hold the median.
const LINE_READS: [Spec; 3] = [
    Spec { solver: "batched-interval-1d", shape: Shape::Interval(25.0), line: true },
    Spec { solver: "exact-interval-1d", shape: Shape::Interval(25.0), line: true },
    Spec { solver: "dynamic-ball", shape: Shape::Ball(12.5), line: true },
];

/// The reader's query of the planar dataset, sent only after rounds that
/// mutate it.
const PLANAR_READ: Spec =
    Spec { solver: "exact-rect-2d", shape: Shape::Box(2.0, 2.0), line: false };

/// Every query the reader sends.  All go with the cache on: each follows a
/// mutation of its dataset, so each misses and recomputes on the new
/// version.
fn all_reads() -> impl Iterator<Item = Spec> {
    LINE_READS.into_iter().chain([PLANAR_READ])
}

/// The generated inputs and the client-side model of the live records.
pub struct UpdateMix {
    seed: u64,
    /// Line dataset CSV as uploaded.
    pub line_csv: String,
    /// Planar dataset CSV as uploaded.
    pub planar_csv: String,
    /// Rounds written so far (the record stream continues across phases).
    round: usize,
    /// Inserted line records still live, oldest first (`x,weight`).
    line_live: VecDeque<String>,
    /// The inserted planar record, while live (`x,y,weight,color`).
    planar_live: Option<String>,
}

/// Formats a coordinate with seven decimals ending in `37`, so it can
/// never equal a generated dataset coordinate (those have at most five).
fn coord(x: f64) -> String {
    format!("{x:.5}37")
}

/// The first field(s) of a record: what a delete body names.
fn delete_key(record: &str, fields: usize) -> String {
    record.split(',').take(fields).collect::<Vec<_>>().join(",")
}

/// The mutated version and the dataset's delta size from a mutation
/// response.
fn mutation_outcome(body: &str) -> Option<(u64, usize)> {
    let json = Json::parse(body).ok()?;
    let version = json.get("mutated")?.get("version")?.as_f64()?;
    let delta = json.get("dataset")?.get("delta")?.as_f64()?;
    Some((version as u64, delta as usize))
}

impl UpdateMix {
    /// Generates the inputs of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            line_csv: line_csv(LINE_POINTS, seed),
            planar_csv: planar_csv(PLANAR_POINTS, seed),
            round: 0,
            line_live: VecDeque::new(),
            planar_live: None,
        }
    }

    /// Boots, uploads, and answers each read once (building the sorted
    /// line events, the rectangle structures and the dynamic-ball tracker).
    pub fn setup(&mut self, record: bool) -> Result<Setup, String> {
        self.round = 0;
        self.line_live.clear();
        self.planar_live = None;
        let t0 = Instant::now();
        let server = boot()?;
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        upload(&mut client, &self.line_csv, &self.planar_csv)?;
        let before = Counters::of(server.service());
        let mut recorder = Recorder::new(record.then(|| Arc::clone(server.service())), t0);
        let mut tally = Tally::default();
        let mut first_query = Vec::new();
        for spec in all_reads() {
            let body: Arc<str> = Arc::from(spec.body(true));
            let sent = Instant::now();
            let ex = post(&mut client, "/query", &body).map_err(|e| e.to_string())?;
            recorder.note(sent, "/query", &body, Kind::Query(spec.solver), ex.rtt, &ex.rid);
            certified_answer(&mut tally, &ex, "warm-up")
                .ok_or_else(|| format!("warm-up failed: {:?}", tally.notes))?;
            if spec.solver == "dynamic-ball" {
                first_query.push(("dynamic-ball", ex.rtt));
            }
        }
        let warm = Counters::of(server.service()).since(&before);
        Ok(Setup {
            elapsed: t0.elapsed(),
            server: Some(server),
            recs: recorder.recs,
            warm,
            warm_queries: all_reads().count() as u64,
            first_query,
        })
    }

    /// The next round's mutations, `(path, body)` each: an insert of
    /// `RECORDS` fresh line records, then a delete of the previous round's;
    /// every `PLANAR_EVERY`-th round adds a planar insert or delete.  With
    /// both line bodies in every round, each read follows the same kind of
    /// mutation: when rounds alternated insert and delete, the
    /// batched-interval read cost fell into one mode per kind, and the
    /// read median sat between them.
    fn mutations(&mut self) -> Vec<(&'static str, String)> {
        let round = self.round;
        self.round += 1;
        let mut out = Vec::with_capacity(3);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x1D5E ^ (round as u64) << 16);
        let mut body = String::with_capacity(RECORDS * 20);
        for _ in 0..RECORDS {
            let center = rng.gen_range(0.0..1_000.0f64);
            let record = format!(
                "{},{:.3}",
                coord(center + rng.gen_range(-15.0..15.0)),
                rng.gen_range(0.5..3.0)
            );
            body.push_str(&record);
            body.push('\n');
            self.line_live.push_back(record);
        }
        out.push(("/datasets/loadgen1d/insert", body));
        if self.line_live.len() > RECORDS {
            let body: String = self
                .line_live
                .drain(..RECORDS)
                .map(|record| delete_key(&record, 1) + "\n")
                .collect();
            out.push(("/datasets/loadgen1d/delete", body));
        }
        if round % PLANAR_EVERY == PLANAR_EVERY - 1 {
            match self.planar_live.take() {
                Some(record) => {
                    out.push(("/datasets/loadgen/delete", delete_key(&record, 2) + "\n"))
                }
                None => {
                    let mut rng = StdRng::seed_from_u64(self.seed ^ 0x2D5E ^ (round as u64) << 16);
                    let record = format!(
                        "{},{},{:.3},{}",
                        coord(rng.gen_range(0.0..100.0)),
                        coord(rng.gen_range(0.0..100.0)),
                        rng.gen_range(0.5..3.0),
                        rng.gen_range(0..50)
                    );
                    out.push(("/datasets/loadgen/insert", record.clone() + "\n"));
                    self.planar_live = Some(record);
                }
            }
        }
        out
    }

    /// One writer and one reader connection for `seconds`, in lockstep:
    /// each round's mutations, then its reads.  A write sample is a whole
    /// round's mutations: per request, insert bodies (~4 ms) and delete
    /// bodies (~12 ms) came in equal numbers, so their median sat on the
    /// step between the two.
    pub fn drive(&mut self, setup: &Setup, seconds: f64, record: bool) -> Result<Phase, String> {
        let addr = setup.server().addr();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let connect = || Client::connect(addr).map_err(|e| e.to_string());
        let (mut writer, mut reader) = (connect()?, connect()?);
        let mut recorder = Recorder::new(record.then(|| Arc::clone(setup.server().service())), t0);
        let mut tally = Tally::default();
        let (mut update_rtts, mut read_rtts) = (Vec::new(), Vec::new());
        let mut writes = 0;
        // The last mutation version acknowledged per dataset (line, planar).
        let mut acked = [0u64; 2];
        let mut delta_max = 0;
        let reads: Vec<(Spec, Arc<str>)> =
            all_reads().map(|spec| (spec, Arc::from(spec.body(true)))).collect();
        while Instant::now() < deadline {
            let planar_round = self.round % PLANAR_EVERY == PLANAR_EVERY - 1;
            let mut round_writes = Some(Duration::ZERO);
            for (path, body) in self.mutations() {
                tally.attempted += 1;
                let body: Arc<str> = Arc::from(body);
                let sent = Instant::now();
                let ex =
                    post(&mut writer, path, &body).map_err(|e| format!("mutation I/O: {e}"))?;
                recorder.note(sent, path, &body, Kind::Mutate, ex.rtt, &ex.rid);
                match (ex.status, mutation_outcome(&ex.body)) {
                    (200, Some((version, delta))) => {
                        let dataset = &mut acked[usize::from(path.contains("loadgen/"))];
                        *dataset = (*dataset).max(version);
                        delta_max = delta_max.max(delta);
                        round_writes = round_writes.map(|sum| sum + ex.rtt);
                        writes += 1;
                    }
                    _ => {
                        round_writes = None;
                        tally.fail(format!("{path}: status {}: {}", ex.status, ex.body));
                    }
                }
            }
            update_rtts.extend(round_writes.map(sample));
            for (spec, body) in reads.iter().filter(|(spec, _)| spec.line || planar_round) {
                tally.attempted += 1;
                let floor = acked[usize::from(!spec.line)];
                let sent = Instant::now();
                let ex = post(&mut reader, "/query", body).map_err(|e| format!("read I/O: {e}"))?;
                recorder.note(sent, "/query", body, Kind::Query(spec.solver), ex.rtt, &ex.rid);
                let Some(answer) = certified_answer(&mut tally, &ex, spec.solver) else {
                    continue;
                };
                let version = answer.get("version").and_then(Json::as_f64).unwrap_or(-1.0);
                if version < floor as f64 {
                    tally.fail(format!(
                        "{}: answer at v{version} after mutation v{floor} was acknowledged",
                        spec.solver
                    ));
                    continue;
                }
                read_rtts.push(sample(ex.rtt));
            }
        }
        let elapsed = t0.elapsed();
        Ok(Phase {
            ok: read_rtts.len() as u64 + writes,
            busy: elapsed,
            side_ok: update_rtts.len() as u64,
            side_busy: elapsed,
            query_rtts: read_rtts,
            side_rtts: update_rtts,
            tally,
            recs: recorder.recs,
            delta_max,
        })
    }

    /// The live records as CSV: the upload plus live inserts, minus nothing
    /// else (deletes only ever target this benchmark's inserts).
    fn model_csv(&self) -> (String, String) {
        let mut line = self.line_csv.clone();
        for record in &self.line_live {
            line.push_str(record);
            line.push('\n');
        }
        let mut planar = self.planar_csv.clone();
        if let Some(record) = &self.planar_live {
            planar.push_str(record);
            planar.push('\n');
        }
        (line, planar)
    }

    /// Checks the final state: each read, recomputed with the cache off,
    /// against the in-process reference over the model of the live records.
    pub fn verify(&self, setup: &Setup, tally: &mut Tally) -> Result<(), String> {
        let (line, planar) = self.model_csv();
        let reference = Reference::new(&line, &planar)?;
        let mut client = Client::connect(setup.server().addr()).map_err(|e| e.to_string())?;
        for spec in all_reads() {
            tally.attempted += 1;
            let ex = post(&mut client, "/query", &spec.body(false)).map_err(|e| e.to_string())?;
            let Some(answer) = certified_answer(tally, &ex, "final state") else { continue };
            let served = answer_value(&answer).unwrap_or(f64::NAN);
            let exact = reference.values(&[spec.exact_twin()])?[0];
            check_served(tally, &spec, served, exact);
        }
        Ok(())
    }
}
