//! `cached_zipf`: the canonical Zipf(1.1) query mix over a warmed cache.
//! Almost every request is a cache hit, so the runtime, HTTP, JSON, cache
//! and service layers do the work and the solvers almost none.
//!
//! Phase A: one connection per core, one request in flight each.  Phase B:
//! one connection per core, each pipelined at depth 16.  With a single
//! pipelined connection the reactor hands each burst to one worker while
//! the other idles, and the burst round trip fell into two clusters from
//! run to run (0.14–0.18 ms and 0.21–0.24 ms over ten seeds on a 2-core
//! box); with one per core it read 0.23–0.27 ms.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrs_bench::serve::{line_csv, planar_csv, query_pool, zipf_pick, zipf_weights};
use mrs_server::{Client, PipelineRequest, Service};
use rand::prelude::*;

use crate::common::{boot, threads, upload, Counters, Reference, Spec};
use crate::load::{
    answer_value, certified_answer, post, request_id, same_value, Exchange, Kind, Rec, Recorder,
    Tally,
};
use crate::report::sample;
use crate::{Phase, Setup};

/// Points in the line dataset.
pub const LINE_POINTS: usize = 100_000;
/// Points in the planar dataset.
pub const PLANAR_POINTS: usize = 5_000;
/// Distinct queries the Zipf draw picks from.
pub const POOL: usize = 256;
/// Requests per pipelined burst in phase B.
pub const PIPELINE_DEPTH: usize = 16;
/// Share of the timed seconds spent in phase A.
const PHASE_A_SHARE: f64 = 0.7;

/// What one phase (or one of its connections) measured.
#[derive(Default)]
struct Loops {
    ok: u64,
    busy: Duration,
    rtts: Vec<f32>,
    tally: Tally,
    recs: Vec<Rec>,
}

/// The generated inputs and what the warm-up learned about them.
pub struct CachedZipf {
    seed: u64,
    /// Line dataset CSV.
    pub line_csv: String,
    /// Planar dataset CSV.
    pub planar_csv: String,
    pool: Vec<Arc<str>>,
    specs: Vec<Spec>,
    weights: Vec<f64>,
    total: f64,
    /// Per pool entry: the tail every response body must end with
    /// (`"answer":<rendered>}`), and the served value.
    expected: Vec<(String, f64)>,
}

impl CachedZipf {
    /// Generates the inputs of `seed`.
    pub fn new(seed: u64) -> Self {
        let pool: Vec<String> = query_pool(POOL);
        let specs = pool.iter().map(|b| Spec::parse(b).expect("pool bodies parse")).collect();
        let weights = zipf_weights(POOL);
        Self {
            seed,
            line_csv: line_csv(LINE_POINTS, seed),
            planar_csv: planar_csv(PLANAR_POINTS, seed),
            pool: pool.into_iter().map(Arc::from).collect(),
            specs,
            total: weights.iter().sum(),
            weights,
            expected: Vec::new(),
        }
    }

    /// Boots, uploads, and warms every pool entry once (each a miss).
    pub fn setup(&mut self, record: bool) -> Result<Setup, String> {
        let t0 = Instant::now();
        let server = boot()?;
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        upload(&mut client, &self.line_csv, &self.planar_csv)?;
        let before = Counters::of(server.service());
        let mut recorder = Recorder::new(record.then(|| Arc::clone(server.service())), t0);
        let mut tally = Tally::default();
        self.expected.clear();
        for (body, spec) in self.pool.iter().zip(&self.specs) {
            let sent = Instant::now();
            let ex = post(&mut client, "/query", body).map_err(|e| e.to_string())?;
            recorder.note(sent, "/query", body, Kind::Query(spec.solver), ex.rtt, &ex.rid);
            let answer = certified_answer(&mut tally, &ex, "warm-up")
                .ok_or_else(|| format!("warm-up failed: {:?}", tally.notes))?;
            let tail =
                ex.body.find("\"answer\":").map(|at| ex.body[at..].to_string()).unwrap_or_default();
            self.expected.push((tail, answer_value(&answer).unwrap_or(f64::NAN)));
        }
        let warm = Counters::of(server.service()).since(&before);
        Ok(Setup {
            elapsed: t0.elapsed(),
            server: Some(server),
            recs: recorder.recs,
            warm,
            warm_queries: POOL as u64,
            first_query: Vec::new(),
        })
    }

    /// Phase A then phase B.
    pub fn drive(&self, setup: &Setup, seconds: f64, record: bool) -> Result<Phase, String> {
        let service = setup.server().service();
        let t0 = Instant::now();
        let a = self.phase(setup, 1, seconds * PHASE_A_SHARE, record.then_some(service), t0)?;
        let b = self.phase(
            setup,
            PIPELINE_DEPTH,
            seconds * (1.0 - PHASE_A_SHARE),
            record.then_some(service),
            t0,
        )?;
        let mut tally = a.tally;
        tally.merge(b.tally);
        let mut recs = a.recs;
        recs.extend(b.recs);
        recs.sort_by_key(|r| r.start);
        Ok(Phase {
            ok: a.ok,
            busy: a.busy,
            side_ok: b.ok,
            side_busy: b.busy,
            query_rtts: a.rtts,
            side_rtts: b.rtts,
            tally,
            recs,
            delta_max: 0,
        })
    }

    /// `threads()` connections for `seconds`, each sending Zipf draws
    /// `depth` at a time: one request in flight at depth 1, a pipelined
    /// burst (one coalesced write, responses read in order) above it.  The
    /// round trips are per request at depth 1 and per burst above it.
    fn phase(
        &self,
        setup: &Setup,
        depth: usize,
        seconds: f64,
        service: Option<&Arc<Service>>,
        t0: Instant,
    ) -> Result<Loops, String> {
        let addr = setup.server().addr();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let results: Vec<Result<Loops, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads())
                .map(|conn| {
                    let recorder = Recorder::new(service.cloned(), t0);
                    scope.spawn(move || self.connection(addr, conn, depth, deadline, recorder))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cached_zipf connection panicked"))
                .collect()
        });
        let mut loops = Loops { busy: start.elapsed(), ..Loops::default() };
        for result in results {
            let conn = result?;
            loops.ok += conn.ok;
            loops.tally.merge(conn.tally);
            loops.rtts.extend(conn.rtts);
            loops.recs.extend(conn.recs);
        }
        Ok(loops)
    }

    /// One connection's closed loop until `deadline`.
    fn connection(
        &self,
        addr: SocketAddr,
        conn: usize,
        depth: usize,
        deadline: Instant,
        mut recorder: Recorder,
    ) -> Result<Loops, String> {
        let connect = || Client::connect(addr).map_err(|e| e.to_string());
        let mut client = connect()?;
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (depth as u64) << 8 ^ (conn as u64 + 1) << 20);
        let mut loops = Loops::default();
        while Instant::now() < deadline {
            let picks: Vec<usize> =
                (0..depth).map(|_| zipf_pick(&self.weights, self.total, &mut rng)).collect();
            loops.tally.attempted += depth as u64;
            let sent = Instant::now();
            let responses = if depth == 1 {
                post(&mut client, "/query", &self.pool[picks[0]]).map(|ex| vec![ex])
            } else {
                let requests: Vec<PipelineRequest<'_>> =
                    picks.iter().map(|&i| PipelineRequest::post("/query", &self.pool[i])).collect();
                client.pipeline(&requests).map(|responses| {
                    let rtt = sent.elapsed();
                    responses
                        .into_iter()
                        .map(|(status, headers, body)| Exchange {
                            status,
                            rid: request_id(&headers),
                            body,
                            rtt,
                        })
                        .collect()
                })
            };
            let responses = match responses {
                Ok(responses) => responses,
                Err(e) => {
                    (0..depth).for_each(|_| loops.tally.fail(format!("I/O: {e}")));
                    client = connect()?;
                    continue;
                }
            };
            let mut all_ok = true;
            for (&i, ex) in picks.iter().zip(&responses) {
                let kind = Kind::Query(self.specs[i].solver);
                recorder.note(sent, "/query", &self.pool[i], kind, ex.rtt, &ex.rid);
                if self.check(&mut loops.tally, i, ex) {
                    loops.ok += 1;
                } else {
                    all_ok = false;
                }
            }
            if all_ok {
                loops.rtts.push(sample(responses[0].rtt));
            }
        }
        loops.recs = recorder.recs;
        Ok(loops)
    }

    /// `true` if the response is the warmed answer of pool entry `i`; a
    /// recomputed answer passes when it is certified and has the same value.
    fn check(&self, tally: &mut Tally, i: usize, ex: &Exchange) -> bool {
        let (tail, value) = &self.expected[i];
        if ex.status == 200 && ex.body.ends_with(tail.as_str()) {
            return true;
        }
        let Some(answer) = certified_answer(tally, ex, "cached_zipf") else { return false };
        match answer_value(&answer) {
            Some(v) if same_value(v, *value) => true,
            served => {
                tally.wrong(format!("pool entry {i}: served {served:?}, warmed {value}"));
                false
            }
        }
    }

    /// Compares a seeded sample of four warmed values per query class with
    /// the in-process reference.
    pub fn verify(&self, tally: &mut Tally) -> Result<(), String> {
        let reference = Reference::new(&self.line_csv, &self.planar_csv)?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC4EC);
        // The pool cycles through its four classes: entry i is class i % 4.
        let picks: Vec<usize> = (0..4)
            .flat_map(|class| (0..4).map(move |_| class))
            .map(|class| 4 * rng.gen_range(0..POOL / 4) + class)
            .collect();
        for line in [true, false] {
            let chosen: Vec<usize> =
                picks.iter().copied().filter(|&i| self.specs[i].line == line).collect();
            let specs: Vec<Spec> = chosen.iter().map(|&i| self.specs[i]).collect();
            let values = reference.values(&specs)?;
            for (&i, reference) in chosen.iter().zip(values) {
                if !same_value(self.expected[i].1, reference) {
                    tally.wrong(format!(
                        "pool entry {i} ({}): served {}, reference {reference}",
                        self.specs[i].solver, self.expected[i].1
                    ));
                }
            }
        }
        Ok(())
    }
}
